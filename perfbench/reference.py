"""Record the figs workload's trace-file hashes as the reference the benchmark
counts differences against.

    python3 perfbench/reference.py

Run it on the commit whose outputs are the reference; it rewrites
``perfbench/reference_hashes.json`` for seeds 0-31 and the held-out seed
101. Each hash is cut to its first 16 hex digits.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = (*range(32), 101)

if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    import workloads

    work = HERE.parent / ".perfbench_work"
    work.mkdir(exist_ok=True)
    table = {}
    for seed in SEEDS:
        workdir = Path(tempfile.mkdtemp(dir=work))
        try:
            figs = workloads.Figs(seed, workdir)
            figs.reference = {}
            stats = workloads.Stats()
            figs.run_round(stats)
        finally:
            shutil.rmtree(workdir)
        if stats.problems:
            sys.exit(f"seed {seed}: {stats.problems}")
        table[str(seed)] = {
            f"{name}/{file}": digest[:16]
            for name, hashes in figs.first_hashes.items()
            for file, digest in sorted(hashes.items())
        }
        print(f"seed {seed}: {len(table[str(seed)])} files", flush=True)
    workloads.REFERENCE_HASHES.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
