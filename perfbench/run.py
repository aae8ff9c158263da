"""sisid benchmark: one command, every metric by name and unit, outputs checked.

    python3 perfbench/run.py --workload {figs,sweep,grls_long} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere inside a checkout of the repository; the program is
imported from its ``src/`` directory. Seed 0 reproduces the bundled
configs; seed 101 is kept for confirming a claim on inputs not used while
the change was written (see perfbench/README.md).

``--trace 0`` measures end-to-end numbers with nothing wrapped: set-up time
(median of several fresh interpreter start-ups that import sisid and build
the workload's inputs), peak RSS, and the median operation latency. Shared
machines change speed every few seconds, by up to 2x, so every time sample
is scaled to a fixed reference speed by a reference kernel timed right
before and after it (``workloads.machine_time``); raw times, p10/p90 and
estimator steps per second are in the report line.
``--trace 1`` first measures a quarter of the time untraced, then installs
the span tracer and reports per-layer counts and times per round, the
tracing overhead, and the output-derived per-layer numbers.

The last line of standard output is the result object; the line before it
records the environment, sample counts, checks and problems. Work files go
to ``.perfbench_work/`` at the checkout root and are removed at exit,
except the span file of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
MIN_ROUNDS = 2  # a second round checks that reruns are bitwise identical
ESTIMATOR_KINDS = ("pure_gd", "ef_rls", "ie_mmai", "grls")


def _pin_blas_threads() -> None:
    # nproc is 2 on the reference machine; BLAS threads would only contend.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def setup_seconds(workload: str, seed: int):
    """Wall time of fresh interpreters that import sisid and set the workload up,
    as a Stats with one "setup" sample and a machine-speed mark around each."""
    import workloads

    stats = workloads.Stats()
    probe = HERE / "setup_probe.py"
    for _ in range(SETUP_PROBES):
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            stats.mark()
            t0 = perf_counter()
            subprocess.run(
                [sys.executable, str(probe), workload, str(seed), tmp],
                check=True,
            )
            stats.sample("setup", perf_counter() - t0)
    stats.mark()
    return stats


def scaled(stats, kind: str, part: slice = slice(None)):
    """Samples of ``kind`` (those in ``part``), each scaled to the reference
    speed by the mean of the machine-speed marks taken before and after it."""
    import numpy as np

    import workloads

    raw = np.asarray(stats.kind_s[kind])[part]
    before = np.asarray(stats.kind_mark[kind])[part]
    marks = np.asarray(stats.marks)
    after = np.minimum(before + 1, len(marks) - 1)
    return raw * workloads.REFERENCE_S / (0.5 * (marks[before] + marks[after]))


def _environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _run_rounds(workload, stats, seconds: float, min_rounds: int) -> None:
    start = perf_counter()
    rounds = 0
    while rounds < min_rounds or perf_counter() - start < seconds:
        workload.run_round(stats)
        stats.rounds += 1
        rounds += 1
    stats.mark()


def op_ms(stats, q: float, parts: dict | None = None, raw: bool = False) -> float:
    """Latency of one operation at percentile q, in ms: the sum over the
    operation's kinds of each kind's q-th percentile (over the samples in
    ``parts[kind]``; scaled to the reference speed unless ``raw``)."""
    import numpy as np

    parts = parts or {}
    total = 0.0
    for kind, samples in stats.kind_s.items():
        part = parts.get(kind, slice(None))
        values = samples[part] if raw else scaled(stats, kind, part)
        total += float(np.percentile(values, q))
    return 1e3 * total


def end_to_end(stats, setup) -> dict:
    return {
        "setup_s": (float(statistics.median(scaled(setup, "setup"))), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "op_ms_p50": (op_ms(stats, 50), "ms"),
    }


def per_layer(span, rounds: int, stats, traced_s: float, overhead: float,
              absent: list[str]) -> dict:
    """Per-layer metrics; counts and seconds are per traced round."""

    def calls(name):
        return span.calls.get(name, 0) / rounds

    def seconds(name):
        return span.total_s.get(name, 0.0) / rounds

    m = {
        "linalg.inversion_lemma.calls": (calls("linalg.inversion_lemma"), "count"),
        "linalg.inversion_lemma.s": (seconds("linalg.inversion_lemma"), "s"),
        "linalg.inversion_lemma.rows_mean": (span.info_mean("linalg.inversion_lemma"), "rows"),
    }
    for split, parent in (
        ("offer", "excitation.greedy_offer"),
        ("fim_trace", "harness.fim_condition_trace"),
        ("metrics", "harness.run_experiment"),
    ):
        n, s = span.parent_calls("linalg.condition_number", parent)
        m[f"linalg.condition_number.{split}.calls"] = (n / rounds, "count")
        m[f"linalg.condition_number.{split}.s"] = (s / rounds, "s")
    m["linalg.solve_spd.calls"] = (calls("linalg.solve_spd"), "count")
    m["linalg.conditioning_errors"] = (
        span.layer_errors("linalg", "ConditioningError") / rounds, "count")

    m["excitation.greedy_offer.calls"] = (calls("excitation.greedy_offer"), "count")
    m["excitation.greedy_offer.s"] = (seconds("excitation.greedy_offer"), "s")
    m["excitation.accept_ratio"] = (span.info_mean("excitation.greedy_offer"), "ratio")
    sizes = stats.set_sizes or [0]
    m["excitation.set_size_final_mean"] = (statistics.fmean(sizes), "rows")
    m["excitation.set_size_final_max"] = (max(sizes), "rows")

    for kind in ESTIMATOR_KINDS:
        name = f"estimators.{kind}.step"
        m[f"estimators.{kind}.steps"] = (calls(name), "count")
        m[f"estimators.{kind}.self_s"] = (span.self_s.get(name, 0.0) / rounds, "s")
    m["estimators.failures"] = (span.layer_errors("estimators") / rounds, "count")
    m["estimators.grls.final_rel_err"] = (max(stats.final_errs, default=0.0), "ratio")
    m["estimators.grls.steps_to_1pct"] = (max(stats.steps_to_1pct, default=0), "steps")
    m["estimators.grls.oracle_rel_gap"] = (max(stats.oracle_gaps, default=0.0), "ratio")

    m["dynamics.simulate.calls"] = (calls("dynamics.simulate"), "count")
    m["dynamics.simulate.s"] = (seconds("dynamics.simulate"), "s")
    m["dynamics.steps"] = (span.info_sum.get("dynamics.simulate", 0.0) / rounds, "steps")

    m["harness.run_experiment.s"] = (seconds("harness.run_experiment"), "s")
    m["harness.fim_condition_trace.s"] = (seconds("harness.fim_condition_trace"), "s")
    m["harness.self_s"] = (span.layer_self_s("harness") / rounds, "s")
    m["harness.bytes_written"] = (stats.bytes_written / stats.rounds, "B")
    m["harness.files_written"] = (stats.files_written / stats.rounds, "count")
    m["harness.csv_hash_diffs"] = (stats.hash_diffs, "count")

    m["config.load.s"] = (span.layer_outer_s.get("config", 0.0) / rounds, "s")
    m["cli.self_s"] = (span.self_s.get("cli.main", 0.0) / rounds, "s")

    core_self = sum(span.layer_self_s(layer) for layer in ("estimators", "excitation", "linalg"))
    m["bench.core_self_share"] = (core_self / traced_s, "ratio")
    m["bench.trace_overhead_frac"] = (overhead, "ratio")
    m["bench.traced_rounds"] = (rounds, "count")
    m["bench.absent_spans"] = (len(absent), "count")
    return m


def bench(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one benchmark; returns (result object, report of how it was obtained)."""
    WORK.mkdir(exist_ok=True)

    import workloads
    from tracer import Tracer

    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        setup = None if trace else setup_seconds(workload_name, seed)
        stats = workloads.Stats()
        workload = workloads.WORKLOADS[workload_name](seed, workdir)
        report = {"workload": workload_name, "seed": seed, "trace": int(trace)}
        if not trace:
            _run_rounds(workload, stats, seconds, MIN_ROUNDS)
            metrics = end_to_end(stats, setup)
            report["samples"] = {"setup": SETUP_PROBES,
                                 **{k: len(v) for k, v in stats.kind_s.items()}}
            report["raw_setup_s"] = list(setup.kind_s["setup"])
        else:
            _run_rounds(workload, stats, seconds / 4, 1)
            split = {kind: len(samples) for kind, samples in stats.kind_s.items()}
            rounds_before, wall_before = stats.rounds, stats.wall_s
            tracer = Tracer()
            with tracer:
                _run_rounds(workload, stats, seconds - seconds / 4, 1)
            traced_rounds = stats.rounds - rounds_before
            overhead = (
                op_ms(stats, 50, {k: slice(n, None) for k, n in split.items()})
                / op_ms(stats, 50, {k: slice(0, n) for k, n in split.items()}) - 1.0
            )
            metrics = per_layer(tracer.summary(), traced_rounds, stats,
                                stats.wall_s - wall_before, overhead, tracer.absent)
            spans_dir = WORK / "spans"
            spans_dir.mkdir(exist_ok=True)
            spans_file = spans_dir / f"{workload_name}.tsv.gz"  # latest traced run
            tracer.write(spans_file)
            report["absent_spans"] = tracer.absent
            report["spans_file"] = str(spans_file.relative_to(ROOT))
            report["samples"] = {"traced_rounds": traced_rounds,
                                 "untraced_rounds": rounds_before}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(stats.problems)
    report.update(
        env=_environment(),
        rounds=stats.rounds,
        op_ms={f"p{q}": op_ms(stats, q) for q in (10, 50, 90)},
        raw_op_ms={f"p{q}": op_ms(stats, q, raw=True) for q in (10, 50, 90)},
        est_steps_per_s=stats.est_steps / sum(
            float(scaled(stats, kind).sum()) for kind in stats.kind_s),
        raw_est_steps_per_s=stats.est_steps / stats.wall_s,
        failed_frac=failed / stats.attempted,
        problems=stats.problems[:10],
        csv_hashes={"compared": stats.hashes_compared, "differ": stats.hash_diffs},
    )
    result = {
        "correct": failed == 0,
        "attempted": stats.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("figs", "sweep", "grls_long"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sisid" / "__init__.py").is_file():
        print(f"error: no sisid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result, report = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    _pin_blas_threads()
    sys.path.insert(0, str(HERE))
    sys.exit(main())
