"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q perfbench/selftest.py

Workloads run shrunken: one set-up probe, the shortest measuring time, and
fewer steps on grls_long.
"""

from __future__ import annotations

import json
import math
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

import sisid  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def shrunk(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(workloads, "LONG_STEPS", 4_000)
    monkeypatch.setenv("SISID_OUTPUT_ROOT", "")


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_shrunken_run_emits_exactly_the_declared_metrics(shrunk, workload, trace):
    result, report = run.bench(workload, seed=0, seconds=0.01, trace=trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert report["failed_frac"] == 0.0
    assert report["env"]["blas_threads"] is not None
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_figs_seed_zero_matches_the_reference_hashes(shrunk):
    _, report = run.bench("figs", seed=0, seconds=0.01, trace=False)
    assert report["csv_hashes"] == {"compared": 10, "differ": 0}


def test_wrong_oracle_raises_failed_frac(shrunk, monkeypatch):
    real = sisid.batch_oracle
    monkeypatch.setattr(sisid, "batch_oracle", lambda *a: real(*a) * (1 + 1e-3))
    result, report = run.bench("grls_long", seed=0, seconds=0.01, trace=False)
    assert not result["correct"]
    assert result["failed"] > 0
    assert report["failed_frac"] > 0
    assert "batch_oracle" in report["problems"][0]


def test_tracer_reports_missing_functions_as_absent(shrunk, monkeypatch):
    sites = tracer.SITES + (
        ("sisid.linalg", "renamed_away", "linalg.renamed_away", None),
        ("sisid.no_such_module", "f", "gone.f", None),
    )
    monkeypatch.setattr(tracer, "SITES", sites)
    result, report = run.bench("grls_long", seed=0, seconds=0.01, trace=True)
    assert result["correct"]
    assert report["absent_spans"] == ["sisid.linalg.renamed_away", "sisid.no_such_module.f"]
    assert result["metrics"]["bench.absent_spans"]["value"] == 2


def test_tracer_survives_a_removed_public_function(shrunk, monkeypatch):
    # a refactor that stops exposing condition_number to the excitation module
    offer = sisid.excitation.greedy_offer
    inlined = types.FunctionType(offer.__code__, dict(offer.__globals__), offer.__name__)
    monkeypatch.setattr(sisid.estimators, "greedy_offer", inlined)
    monkeypatch.delattr(sisid.excitation, "condition_number")
    result, report = run.bench("grls_long", seed=0, seconds=0.01, trace=True)
    assert result["correct"]
    assert "sisid.excitation.condition_number" in report["absent_spans"]
    assert result["metrics"]["linalg.condition_number.offer.calls"]["value"] == 0
    assert result["metrics"]["excitation.greedy_offer.calls"]["value"] == 4_000


def test_self_time_subtracts_child_spans(monkeypatch):
    fake = types.ModuleType("fake_layers")
    clock = iter(range(100))
    monkeypatch.setattr(tracer, "perf_counter", lambda: float(next(clock)))

    def inner():
        return None

    def outer():
        fake.inner()
        fake.inner()
        raise ArithmeticError("boom")

    fake.inner, fake.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layers", fake)
    t = tracer.Tracer(sites=(
        ("fake_layers", "outer", "a.outer", None),
        ("fake_layers", "inner", "b.inner", None),
    ))
    with t, pytest.raises(ArithmeticError):
        fake.outer()
    assert fake.outer is outer and fake.inner is inner
    summary = t.summary()
    # outer spans clock 0..5, each inner 1 tick: 5 - 2 = 3 of self time
    assert summary.total_s == {"a.outer": 5.0, "b.inner": 2.0}
    assert summary.self_s == {"a.outer": 3.0, "b.inner": 2.0}
    assert summary.layer_errors("a", "ArithmeticError") == 1
    assert summary.parent_calls("b.inner", "a.outer") == (2, 2.0)
    spans = list(t.spans())
    assert spans[1][3] == 0 and math.isnan(t.infos[1])
