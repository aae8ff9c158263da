"""Run alternating parent/change pairs of the benchmark and record them.

    python3 tools/bench_pairs.py --pr N --parent REV --change REV \\
        --claim TEXT [--note TEXT] [--out PATH] WORKLOAD:SEED:PAIRS ...

Each side is a ``git archive`` of its commit, extracted into a temporary
directory, so both run from committed files only. For each
``WORKLOAD:SEED:PAIRS`` spec, in the order given, the script runs PAIRS
pairs of ``perfbench/run.py --workload WORKLOAD --seed SEED --seconds S
--trace 0`` (the command and S = ``run_seconds`` from ``BENCHMARK.json``),
one process at a time, in each tree: even pairs run the parent first, odd
pairs the change first. Each run keeps its last two stdout lines verbatim,
the report line and the result line.

``measure_in`` is the one way the tools start a process that measures a
tree: ``tools/bench_configs.py`` and ``tools/bench_memory.py`` call it.

The record, ``BENCH_<N>.json`` by default, is rewritten after every run, so
an interrupted session keeps what it measured. Its fields: ``pr``,
``claim``, ``sides`` (the two full commit hashes), ``method``, ``summary``
and ``runs``. Each run is batch 1; records that merge several batches, as
``BENCH_21.json`` does, pair runs within a batch. Only the standard library
is used.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")

METHOD = (
    "Each side is a fresh git archive of its commit. Runs alternate in pairs: even pairs run "
    "the parent first, odd pairs the change first, one process at a time. Each run is the "
    "command in its record, at BENCHMARK.json's run_seconds, at --trace 0. report and result "
    "are the run's last two stdout lines, verbatim. Summary per workload and seed: each "
    "end-to-end metric's median, q1, q3 (statistics.quantiles(n=4, method='inclusive')), min "
    "and max per side, over complete pairs; all three metrics are lower-is-better, so "
    "change_lower_in_pairs counts pairs where the change read strictly lower and ties those "
    "that read equal; median_gap is the parent's median minus the change's; parent_iqr is "
    "the parent's q3 minus q1; change_over_parent is the ratio of medians minus 1; "
    "<side>_rounds lists each run's round count from its report line, in pair order; "
    "<side>_failed_of_attempted sums the result lines' failed and attempted counts; "
    "all_correct holds when every run exited 0 and its result line reads correct."
)


def quartiles(values: list[float]) -> dict[str, float]:
    """Median, q1, q3, min and max of ``values`` (at least two)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def compare(parent: list[float], change: list[float]) -> dict:
    """One lower-is-better metric over pairs: ``parent[i]`` and ``change[i]`` are pair i."""
    p, c = quartiles(parent), quartiles(change)
    return {
        "parent": p,
        "change": c,
        "change_lower_in_pairs": sum(b < a for a, b in zip(parent, change)),
        "ties": sum(b == a for a, b in zip(parent, change)),
        "median_gap": p["median"] - c["median"],
        "parent_iqr": p["q3"] - p["q1"],
        "change_over_parent": c["median"] / p["median"] - 1.0,
    }


def summarize(runs: list[dict]) -> dict:
    """The summary of ``runs``, keyed "<workload>/seed<seed>" in order of first run.

    A pair is the runs sharing workload, seed, batch and pair index; a pair
    missing a side, or whose result line did not parse, is left out.
    """
    pairs: dict[str, dict[tuple, dict]] = {}
    for run in runs:
        key = f"{run['workload']}/seed{run['seed']}"
        pairs.setdefault(key, {}).setdefault((run["batch"], run["pair"]), {})[run["side"]] = run
    summary = {}
    for key, by_pair in pairs.items():
        complete = []
        for _, sides in sorted(by_pair.items()):
            if all(s in sides and sides[s]["result"] for s in SIDES):
                complete.append({s: (sides[s], json.loads(sides[s]["result"])) for s in SIDES})
        if len(complete) < 2:
            continue
        entry: dict = {"pairs": len(complete)}
        for name in complete[0]["parent"][1]["metrics"]:
            values = {s: [pair[s][1]["metrics"][name]["value"] for pair in complete]
                      for s in SIDES}
            entry[name] = compare(values["parent"], values["change"])
        for s in SIDES:
            results = [pair[s][1] for pair in complete]
            entry[f"{s}_failed_of_attempted"] = [sum(r["failed"] for r in results),
                                                 sum(r["attempted"] for r in results)]
            entry[f"{s}_rounds"] = [json.loads(pair[s][0]["report"])["rounds"]
                                    for pair in complete]
        entry["all_correct"] = all(
            pair[s][0]["exit"] == 0 and pair[s][1]["correct"] for pair in complete for s in SIDES
        )
        summary[key] = entry
    return summary


def parse_spec(text: str) -> tuple[str, int, int]:
    """WORKLOAD:SEED:PAIRS as (workload, seed, pairs)."""
    try:
        workload, seed, count = text.split(":")
        return workload, int(seed), int(count)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEED:PAIRS, got {text!r}") from None


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(commit: str, dest: Path) -> None:
    """The committed files of ``commit`` under ``dest``."""
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {commit} failed")


def measure_in(tree: Path, script: Path, *args: str) -> dict:
    """The last stdout line, as JSON, of ``script --measure *args`` run in a fresh
    process in ``tree`` with ``tree/src`` as ``PYTHONPATH``. ``SystemExit`` when the
    process fails, or when the ``sisid`` its line names (``"sisid"``, the
    module's file) is not under ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    argv = [sys.executable, str(script), "--measure", *args]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"measuring {tree} with {shlex.join(args)} failed:\n"
                         f"{proc.stderr[-2000:]}")
    measured = json.loads(proc.stdout.splitlines()[-1])
    if not Path(measured["sisid"]).resolve().is_relative_to(tree.resolve()):
        raise SystemExit(f"{tree} imported sisid from {measured['sisid']}")
    return measured


def run_once(tree: Path, command: list[str], seconds: int, workload: str, seed: int) -> dict:
    """One benchmark run in ``tree``: its command, exit status and last two stdout lines."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    report, result = (lines[-2], lines[-1]) if len(lines) >= 2 else (None, None)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
    return {"command": shlex.join(argv), "exit": proc.returncode, "report": report,
            "result": result, "started_utc": started}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("specs", nargs="+", type=parse_spec, metavar="WORKLOAD:SEED:PAIRS")
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", required=True, help="the parent commit")
    parser.add_argument("--change", required=True, help="the commit that changes the code")
    parser.add_argument("--claim", required=True, help="the claimed metric and why")
    parser.add_argument("--note", default="", help="appended to the method text")
    parser.add_argument("--out", type=Path, help="default: BENCH_<pr>.json at the checkout root")
    args = parser.parse_args(argv)
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    commits = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}

    runs: list[dict] = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        benchmarks = []
        for side, tree in trees.items():
            tree.mkdir()
            extract(commits[side], tree)
            benchmarks.append(json.loads((tree / "BENCHMARK.json").read_text()))
        if benchmarks[0] != benchmarks[1]:
            raise SystemExit("BENCHMARK.json differs between the two commits")
        command, seconds = benchmarks[1]["command"], benchmarks[1]["run_seconds"]
        for workload, seed, count in args.specs:
            for pair in range(count):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    record = run_once(trees[side], command, seconds, workload, seed)
                    runs.append({"workload": workload, "seed": seed, "pair": pair, "side": side,
                                 "commit": commits[side], "ran": len(runs) + 1, **record,
                                 "batch": 1})
                    out.write_text(json.dumps({
                        "pr": args.pr, "claim": args.claim, "sides": commits,
                        "method": f"{METHOD} {args.note}".strip(),
                        "summary": summarize(runs), "runs": runs,
                    }, indent=1) + "\n")
                    print(f"{workload} seed {seed} pair {pair} {side}: exit {record['exit']} "
                          f"{record['result']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
