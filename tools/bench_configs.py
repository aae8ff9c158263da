"""Time each bundled config on a parent and a change commit, in alternating pairs.

    python3 tools/bench_configs.py --parent REV --change REV --pairs N \\
        --rounds R [--seed S] --out PATH

Each side is a ``git archive`` of its commit, extracted as
``tools/bench_pairs.py`` extracts it. Pair i runs one fresh Python process
per side, the parent first in even pairs and the change first in odd ones.
A process imports ``sisid`` from its tree's ``src/`` and runs R rounds of
the four bundled configs (fig1, fig2, fig3_noisefree, fig3_noisy) through
``run_experiment``, every trace written, timing each run with
``time.perf_counter``; seed S is added to ``seed`` and ``ie_mmai.seed``, as
perfbench's figs workload adds it. A machine-speed mark,
``perfbench/workloads.py``'s ``machine_time``, is taken before the first run
and after each one, and each run's seconds are scaled to the reference speed
``REFERENCE_S`` by the mean of the marks right before and after it, as
``perfbench/run.py`` scales its samples; both are imported from the checkout
that runs this script, the same on both sides. It prints each config's
median scaled seconds over its rounds, and the median of each layer that the
run's manifest times (``LAYERS``: the ``timings`` entries, ``step_s`` summed
over the estimators), scaled by the same marks.

The record at PATH is rewritten after every process, so an interrupted
session keeps what it measured. Its fields: ``sides`` (the two full commit
hashes), ``method``, ``pairs``, ``rounds``, ``seed``, ``summary``,
``layers`` and ``runs``. ``summary`` holds, per config,
``bench_pairs.compare`` over the processes' medians in pair order: each
side's median, quartiles, min and max, ``change_lower_in_pairs``, ``ties``,
``median_gap``, ``parent_iqr`` and ``change_over_parent``. ``layers`` holds
the same per ``<config>.<layer>``. Only the standard library is used here; a
process measuring a side uses what its ``sisid`` imports.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS))

from bench_pairs import SIDES, compare, extract, git, measure_in  # noqa: E402

CONFIGS = ("fig1", "fig2", "fig3_noisefree", "fig3_noisy")
# the manifest timings a process records per config; step_s sums the estimators'
LAYERS = ("simulate_s", "fim_trace_s", "excitation_s", "step_s", "metrics_rows_s", "write_s")

METHOD = (
    "Each side is a fresh git archive of its commit. Pair i runs one fresh Python process per "
    "side, the parent first in even pairs and the change first in odd ones, one process at a "
    "time. A process imports sisid from its tree's src/, runs `rounds` rounds of the four "
    "bundled configs through run_experiment with every trace written (seed added to seed and "
    "ie_mmai.seed), times each run with time.perf_counter, scales it to the reference speed "
    "by the mean of perfbench's machine_time marks taken right before and after it (as "
    "perfbench/run.py scales its samples) and reports each config's median scaled seconds, "
    "and the median of each manifest timing (step_s summed over the estimators) scaled by the "
    "same marks. summary is bench_pairs.compare over the wall medians, in pair order, per "
    "config, and layers the same per config and timing: lower is better."
)


def scaled(seconds: list[float], marks: list[float], reference_s: float) -> list[float]:
    """Each of ``seconds`` at the speed ``reference_s``: run i is scaled by the
    mean of ``marks[i]`` and ``marks[i + 1]``, the machine times taken right
    before and after it."""
    if len(marks) != len(seconds) + 1:
        raise ValueError(f"{len(seconds)} runs need {len(seconds) + 1} marks, got {len(marks)}")
    return [s * reference_s / (0.5 * (before + after))
            for s, before, after in zip(seconds, marks, marks[1:])]


def layer_seconds(timings: dict) -> list[float]:
    """A manifest's ``timings`` in the order of ``LAYERS``, ``step_s`` summed."""
    return [sum(timings[name].values()) if name == "step_s" else timings[name]
            for name in LAYERS]


def measure(rounds: int, seed: int, out: Path) -> dict:
    """Each bundled config's median seconds over ``rounds`` rounds, run by the
    ``sisid`` on ``sys.path`` and scaled to the reference speed, and the median
    of each of its layers (``LAYERS``), scaled alike."""
    import statistics
    import time

    import sisid
    from sisid.config import config_from_mapping, load_config_mapping

    # workloads imports sisid too, and finds the one imported above; it also puts
    # this checkout's src/ on sys.path, which no later import of sisid consults
    sys.path.insert(0, str(TOOLS.parent / "perfbench"))
    from workloads import REFERENCE_S, machine_time

    configs = []
    for name in CONFIGS:
        mapping = load_config_mapping(sisid.bundled_config_path(name))
        for key in ("seed", "ie_mmai.seed"):
            if key in mapping:
                mapping[key] = str(int(mapping[key]) + seed)
        configs.append((name, config_from_mapping(mapping)))
    runs, seconds, layers, marks = [], [], [], [machine_time()]
    for _ in range(rounds):
        for name, config in configs:
            t0 = time.perf_counter()
            result = sisid.run_experiment(config, output_dir=out / name)
            seconds.append(time.perf_counter() - t0)
            marks.append(machine_time())
            runs.append(name)
            layers.append(layer_seconds(result.manifest["timings"]))
    by_config: dict[str, list[float]] = {name: [] for name in CONFIGS}
    by_layer: dict[str, list[float]] = {
        f"{name}.{layer}": [] for name in CONFIGS for layer in LAYERS}
    for name, raw, s, run_layers in zip(runs, seconds, scaled(seconds, marks, REFERENCE_S),
                                        layers):
        by_config[name].append(s)
        for layer, t in zip(LAYERS, run_layers):  # scaled as its run is
            by_layer[f"{name}.{layer}"].append(t * s / raw)
    return {"sisid": sisid.__file__,
            "median_s": {name: statistics.median(s) for name, s in by_config.items()},
            "layers_s": {key: statistics.median(s) for key, s in by_layer.items()}}


def summarize(runs: list[dict], field: str = "median_s") -> dict:
    """Per key of the runs' ``field`` (a config, or a config's layer for
    ``layers_s``), ``compare`` over the pairs that have both sides' medians. A
    key that reads 0.0 in every run, as the excitation pass of a config
    without a GRLS lane does, is left out."""
    by_pair: dict[int, dict] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run[field]
    complete = [sides for _, sides in sorted(by_pair.items()) if all(s in sides for s in SIDES)]
    if len(complete) < 2:
        return {}
    return {name: compare([pair["parent"][name] for pair in complete],
                          [pair["change"][name] for pair in complete])
            for name in complete[0]["parent"]
            if any(pair[side][name] for pair in complete for side in SIDES)}


def run_side(tree: Path, rounds: int, seed: int) -> dict:
    """One process measuring ``tree``; its printed medians and the ``sisid`` it imported."""
    with tempfile.TemporaryDirectory() as out:
        return measure_in(tree, Path(__file__).resolve(), "--rounds", str(rounds),
                          "--seed", str(seed), "--out", out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="the parent commit")
    parser.add_argument("--change", help="the commit that changes the code")
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True,
                        help="the record; with --measure, the directory runs write to")
    parser.add_argument("--measure", action="store_true",
                        help="measure the sisid on sys.path and print its medians")
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.rounds, args.seed, args.out)))
        return 0
    if args.parent is None or args.change is None or args.pairs is None:
        parser.error("--parent, --change and --pairs are required")
    commits = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}

    runs: list[dict] = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side, tree in trees.items():
            tree.mkdir()
            extract(commits[side], tree)
        for pair in range(args.pairs):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                measured = run_side(trees[side], args.rounds, args.seed)
                runs.append({"pair": pair, "side": side, "median_s": measured["median_s"],
                             "layers_s": measured["layers_s"]})
                args.out.write_text(json.dumps({
                    "sides": commits, "method": METHOD, "pairs": args.pairs,
                    "rounds": args.rounds, "seed": args.seed, "summary": summarize(runs),
                    "layers": summarize(runs, "layers_s"), "runs": runs,
                }, indent=1) + "\n")
                print(f"pair {pair} {side}: {measured['median_s']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
