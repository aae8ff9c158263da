"""The summary arithmetic, per config and per layer, and the machine-speed
scaling of ``tools/bench_configs.py``, on canned data, and one measuring round
of the ``sisid`` under test.

No subprocess starts and no commit is extracted: the runs are records in the
shape the script writes, made up below.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_configs.py"
_SPEC = importlib.util.spec_from_file_location("bench_configs", _PATH)
bench_configs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_configs)

# four pairs of fig2 medians; the change is lower in pairs 0, 1 and 3 and ties in pair 2
PARENT_S = [0.030, 0.032, 0.029, 0.031]
CHANGE_S = [0.026, 0.027, 0.029, 0.025]


def canned_runs():
    runs = []
    for pair, (p, c) in enumerate(zip(PARENT_S, CHANGE_S)):
        order = [("parent", p), ("change", c)]
        for side, s in order if pair % 2 == 0 else order[::-1]:
            # fig2 steps for half its wall time; its simulation takes a fixed 1 ms,
            # and it makes no excitation pass
            layers = {"fig2.step_s": s / 2, "fig2.simulate_s": 0.001, "fig2.excitation_s": 0.0}
            runs.append({"pair": pair, "side": side, "median_s": {"fig2": s, "fig1": 2 * s},
                         "layers_s": layers})
    return runs


def test_summary_compares_each_config_over_pairs():
    summary = bench_configs.summarize(canned_runs())
    assert list(summary) == ["fig2", "fig1"]
    fig2 = summary["fig2"]
    assert fig2["parent"]["median"] == pytest.approx(0.0305)
    assert fig2["change"]["median"] == pytest.approx(0.0265)
    assert fig2["change_lower_in_pairs"] == 3 and fig2["ties"] == 1
    assert fig2["median_gap"] == pytest.approx(0.004)
    assert fig2["parent_iqr"] == pytest.approx(0.03125 - 0.02975)
    assert fig2["change_over_parent"] == pytest.approx(0.0265 / 0.0305 - 1.0)
    assert summary["fig1"]["parent"]["median"] == pytest.approx(0.061)


def test_layers_are_compared_as_wall_time_is():
    layers = bench_configs.summarize(canned_runs(), "layers_s")
    assert list(layers) == ["fig2.step_s", "fig2.simulate_s"]
    step = layers["fig2.step_s"]
    assert step["parent"]["median"] == pytest.approx(0.0305 / 2)
    assert step["change"]["median"] == pytest.approx(0.0265 / 2)
    assert step["change_lower_in_pairs"] == 3 and step["ties"] == 1
    assert step["parent_iqr"] == pytest.approx((0.03125 - 0.02975) / 2)
    simulate = layers["fig2.simulate_s"]
    assert simulate["change_lower_in_pairs"] == 0 and simulate["ties"] == 4
    assert simulate["median_gap"] == 0.0


def test_a_manifest_s_step_seconds_are_summed_over_its_estimators():
    timings = {"simulate_s": 0.5, "fim_trace_s": 0.25, "excitation_s": 0.0,
               "step_s": {"pure_gd": 1.0, "grls": 2.0}, "metrics_rows_s": 4.0, "write_s": 8.0}
    assert bench_configs.layer_seconds(timings) == [0.5, 0.25, 0.0, 3.0, 4.0, 8.0]


def test_incomplete_pairs_are_left_out():
    runs = canned_runs()
    runs.append({"pair": 4, "side": "parent", "median_s": {"fig2": 9.0, "fig1": 9.0},
                 "layers_s": {"fig2.step_s": 9.0, "fig2.simulate_s": 9.0}})
    assert bench_configs.summarize(runs) == bench_configs.summarize(canned_runs())
    assert (bench_configs.summarize(runs, "layers_s")
            == bench_configs.summarize(canned_runs(), "layers_s"))
    assert bench_configs.summarize(runs[:3]) == {}  # one complete pair is no summary


def test_each_run_is_scaled_by_the_marks_right_before_and_after_it():
    # the machine runs at the reference speed, then at half of it, then recovers
    seconds = [0.030, 0.060, 0.045]
    marks = [4e-4, 4e-4, 8e-4, 4e-4]
    assert bench_configs.scaled(seconds, marks, 4e-4) == pytest.approx([0.030, 0.040, 0.030])
    assert bench_configs.scaled(seconds, marks, 2e-4) == pytest.approx([0.015, 0.020, 0.015])
    with pytest.raises(ValueError):  # each run needs a mark after it
        bench_configs.scaled(seconds, marks[:3], 4e-4)


def test_a_measuring_round_times_each_bundled_config(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", sys.path[:])  # measure adds perfbench/ to it
    measured = bench_configs.measure(1, 101, tmp_path)
    assert list(measured["median_s"]) == list(bench_configs.CONFIGS)
    assert all(s > 0 for s in measured["median_s"].values())
    assert list(measured["layers_s"]) == [
        f"{name}.{layer}" for name in bench_configs.CONFIGS for layer in bench_configs.LAYERS]
    layers = measured["layers_s"]
    for name in bench_configs.CONFIGS:  # every config simulates, steps and writes
        assert all(layers[f"{name}.{layer}"] > 0
                   for layer in ("simulate_s", "step_s", "metrics_rows_s", "write_s"))
        # one round: the layers are parts of the run, scaled by its marks
        assert sum(layers[f"{name}.{layer}"] for layer in bench_configs.LAYERS) < (
            measured["median_s"][name])
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(bench_configs.CONFIGS)
