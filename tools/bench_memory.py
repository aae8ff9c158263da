"""Peak RSS and wall time of one fig3_noisy run at N steps, each in a fresh process.

    python3 tools/bench_memory.py --steps N [--steps M ...] [--max-bytes-per-step B]
    python3 tools/bench_memory.py --parent REV --change REV --pairs P \\
        --steps N [--steps M ...] --out PATH

A measuring process imports ``sisid`` from its tree's ``src/`` and runs the
bundled fig3_noisy config for 50 steps, so that what a first run imports and
allocates is in place. It reads the process's peak RSS
(``resource.getrusage(RUSAGE_SELF).ru_maxrss``), runs the config at N steps
with every trace it emits written into a temporary directory, and reads the
peak RSS and the run's wall time (``time.perf_counter``). Its bytes per step
are the growth of the peak RSS over the N-step run, divided by N.

With ``--steps`` alone, one process per N measures this checkout and prints
its numbers; with ``--max-bytes-per-step B``, the script exits 1 when any N
reads more than B bytes per step. With ``--parent`` and ``--change``, each
side is a ``git archive`` of its commit, extracted as ``tools/bench_pairs.py``
extracts it; for each N, in the order given, pair i runs one process per
side, the parent first in even pairs and the change first in odd ones, one
process at a time. The record at PATH is rewritten after every process, so an
interrupted session keeps what it measured. Its fields: ``sides`` (the two
full commit hashes), ``method``, ``pairs``, ``steps``, ``summary`` and
``runs``. ``summary`` holds, per N with at least two complete pairs,
``bench_pairs.compare`` over ``peak_rss_mb``, ``bytes_per_step`` and
``wall_s``, each in pair order. Only the standard library is used here; a
process measuring a side uses what its ``sisid`` imports.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS))

from bench_pairs import SIDES, compare, extract, git  # noqa: E402

CONFIG = "fig3_noisy"
WARM_UP_STEPS = 50
METRICS = ("peak_rss_mb", "bytes_per_step", "wall_s")

METHOD = (
    "Each side is a fresh git archive of its commit. For each step count N, pair i runs one "
    "fresh Python process per side, the parent first in even pairs and the change first in odd "
    "ones, one process at a time. A process imports sisid from its tree's src/, runs the bundled "
    "fig3_noisy config for 50 steps, reads its peak RSS (ru_maxrss), runs the config at N steps "
    "with every trace written into a temporary directory, and reads the peak RSS and the run's "
    "wall time (time.perf_counter). bytes_per_step is the growth of the peak RSS over the N-step "
    "run divided by N. summary is bench_pairs.compare over each metric, in pair order, per N: "
    "lower is better."
)


def _peak_rss_bytes() -> int:
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024  # bytes on macOS, KiB elsewhere


def measure(steps: int) -> dict:
    """Peak RSS, its growth per step and the wall time of one fig3_noisy run at
    ``steps`` steps, by the ``sisid`` on ``sys.path``, in this process."""
    import time
    from dataclasses import replace

    import sisid
    from sisid.config import load_config

    config = load_config(sisid.bundled_config_path(CONFIG))
    with tempfile.TemporaryDirectory() as out:
        sisid.run_experiment(replace(config, steps=WARM_UP_STEPS), Path(out) / "warm_up")
        before = _peak_rss_bytes()
        t0 = time.perf_counter()
        result = sisid.run_experiment(replace(config, steps=steps), Path(out) / "run")
        wall_s = time.perf_counter() - t0
        peak = _peak_rss_bytes()
    return {"sisid": sisid.__file__, "steps": steps, "status": result.status,
            "peak_rss_mb": peak / 2**20, "bytes_per_step": (peak - before) / steps,
            "wall_s": wall_s}


def run_side(tree: Path, steps: int) -> dict:
    """One fresh process measuring the ``sisid`` under ``tree/src`` at ``steps`` steps."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    argv = [sys.executable, str(Path(__file__).resolve()), "--measure", "--steps", str(steps)]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"measuring {tree} at {steps} steps failed:\n{proc.stderr[-2000:]}")
    measured = json.loads(proc.stdout.splitlines()[-1])
    if not Path(measured["sisid"]).resolve().is_relative_to(tree.resolve()):
        raise SystemExit(f"{tree} imported sisid from {measured['sisid']}")
    return measured


def summarize(runs: list[dict]) -> dict:
    """Per step count with at least two complete pairs, ``compare`` over each metric."""
    by_steps: dict[int, dict[int, dict]] = {}
    for run in runs:
        by_steps.setdefault(run["steps"], {}).setdefault(run["pair"], {})[run["side"]] = run
    summary = {}
    for steps, by_pair in by_steps.items():
        complete = [sides for _, sides in sorted(by_pair.items()) if all(s in sides for s in SIDES)]
        if len(complete) >= 2:
            summary[str(steps)] = {
                name: compare([pair["parent"][name] for pair in complete],
                              [pair["change"][name] for pair in complete])
                for name in METRICS
            }
    return summary


def over_bound(measured: list[dict], max_bytes_per_step: float | None) -> list[str]:
    """The measurements that read more than ``max_bytes_per_step``, as messages."""
    if max_bytes_per_step is None:
        return []
    return [f"{m['steps']} steps: {m['bytes_per_step']:.0f} B per step, more than "
            f"{max_bytes_per_step:g}" for m in measured if m["bytes_per_step"] > max_bytes_per_step]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--steps", type=int, action="append", required=True,
                        help="the run's step count; repeat for several")
    parser.add_argument("--max-bytes-per-step", type=float,
                        help="exit 1 when this checkout reads more bytes per step")
    parser.add_argument("--parent", help="the parent commit")
    parser.add_argument("--change", help="the commit that changes the code")
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--out", type=Path, help="the record of a parent/change comparison")
    parser.add_argument("--measure", action="store_true",
                        help="measure the sisid on sys.path in this process and print it")
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.steps[-1])))
        return 0
    if args.parent is None and args.change is None:
        measured = [run_side(TOOLS.parent, steps) for steps in args.steps]
        for m in measured:
            print(f"{m['steps']} steps: peak RSS {m['peak_rss_mb']:.1f} MB, "
                  f"{m['bytes_per_step']:.0f} B per step, {m['wall_s']:.2f} s", flush=True)
        failures = over_bound(measured, args.max_bytes_per_step)
        for failure in failures:
            print(failure, file=sys.stderr)
        return 1 if failures else 0
    if args.parent is None or args.change is None or args.pairs is None or args.out is None:
        parser.error("--parent, --change, --pairs and --out go together")
    commits = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}

    runs: list[dict] = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side, tree in trees.items():
            tree.mkdir()
            extract(commits[side], tree)
        for steps in args.steps:
            for pair in range(args.pairs):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    measured = run_side(trees[side], steps)
                    del measured["sisid"]
                    runs.append({"pair": pair, "side": side, **measured})
                    args.out.write_text(json.dumps({
                        "sides": commits, "method": METHOD, "pairs": args.pairs,
                        "steps": args.steps, "summary": summarize(runs), "runs": runs,
                    }, indent=1) + "\n")
                    print(f"{steps} steps pair {pair} {side}: {measured}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
