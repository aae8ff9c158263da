"""Set one workload up in a fresh interpreter and exit; the caller times it.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    workload, seed, workdir = sys.argv[1:]
    workloads.WORKLOADS[workload](int(seed), Path(workdir))
