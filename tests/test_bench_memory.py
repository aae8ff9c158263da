"""The summary arithmetic and the bound of ``tools/bench_memory.py``, on canned
data, and one measuring run of the ``sisid`` under test.

No subprocess starts and no commit is extracted: the runs are records in the
shape the script writes, made up below.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_memory.py"
_SPEC = importlib.util.spec_from_file_location("bench_memory", _PATH)
bench_memory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_memory)

# three pairs at 1000 steps; the change is lower in each; one pair at 10 steps
PARENT_MB = [300.0, 310.0, 305.0]
CHANGE_MB = [120.0, 125.0, 121.0]


def canned_runs():
    runs = []
    for pair, (p, c) in enumerate(zip(PARENT_MB, CHANGE_MB)):
        order = [("parent", p), ("change", c)]
        for side, mb in order if pair % 2 == 0 else order[::-1]:
            runs.append({"pair": pair, "side": side, "steps": 1000, "status": 0,
                         "peak_rss_mb": mb, "bytes_per_step": mb * 10.0, "wall_s": mb / 100})
    runs.append({"pair": 0, "side": "parent", "steps": 10, "status": 0, "peak_rss_mb": 40.0,
                 "bytes_per_step": 9.0, "wall_s": 0.1})
    runs.append({"pair": 0, "side": "change", "steps": 10, "status": 0, "peak_rss_mb": 39.0,
                 "bytes_per_step": 8.0, "wall_s": 0.1})
    return runs


def test_summary_compares_each_metric_over_pairs():
    summary = bench_memory.summarize(canned_runs())
    assert list(summary) == ["1000"]  # one pair is no summary
    rss = summary["1000"]["peak_rss_mb"]
    assert rss["parent"]["median"] == 305.0 and rss["change"]["median"] == 121.0
    assert rss["change_lower_in_pairs"] == 3 and rss["ties"] == 0
    assert rss["parent_iqr"] == pytest.approx(307.5 - 302.5)
    assert summary["1000"]["bytes_per_step"]["median_gap"] == pytest.approx(1840.0)
    assert set(summary["1000"]) == set(bench_memory.METRICS)


def test_incomplete_pairs_are_left_out():
    runs = canned_runs()
    runs.append({"pair": 3, "side": "change", "steps": 1000, "status": 0, "peak_rss_mb": 1.0,
                 "bytes_per_step": 1.0, "wall_s": 1.0})
    assert bench_memory.summarize(runs) == bench_memory.summarize(canned_runs())


def test_the_bound_names_each_step_count_above_it():
    measured = [{"steps": 100, "bytes_per_step": 1024.0}, {"steps": 1000, "bytes_per_step": 1025.0}]
    assert bench_memory.over_bound(measured, 1024) == [
        "1000 steps: 1025 B per step, more than 1024"]
    assert bench_memory.over_bound(measured, None) == []


def test_the_gate_exits_1_above_the_bound(monkeypatch, capsys):
    def side(tree, steps):
        return {"sisid": str(tree / "src"), "steps": steps, "status": 0,
                "peak_rss_mb": 50.0, "bytes_per_step": 0.01 * steps, "wall_s": 1.0}

    monkeypatch.setattr(bench_memory, "run_side", side)
    assert bench_memory.main(["--steps", "1000", "--max-bytes-per-step", "10"]) == 0
    assert bench_memory.main(["--steps", "1000", "--steps", "2000",
                              "--max-bytes-per-step", "10"]) == 1
    assert "2000 steps: 20 B per step, more than 10" in capsys.readouterr().err


def test_a_measuring_run_reads_the_peak_and_the_wall_time():
    measured = bench_memory.measure(200)
    assert measured["steps"] == 200 and measured["status"] == 0
    assert measured["peak_rss_mb"] > 0 and measured["bytes_per_step"] >= 0
    assert measured["wall_s"] > 0
