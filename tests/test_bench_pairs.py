"""The summary arithmetic of ``tools/bench_pairs.py``, on canned result lines,
and its measuring process, on a stand-in script.

No benchmark runs: the runs are records in the shape the script writes, made
up below or read from ``BENCH_21.json``, and the only subprocesses run a
stand-in script that prints one line.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def run(side, pair, op_ms, rss=50.0, failed=0, attempted=10, rounds=7, workload="grls_long",
        seed=0, batch=1, correct=True, exit_status=0):
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": {
        "setup_s": {"value": 0.15, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "op_ms_p50": {"value": op_ms, "unit": "ms"},
    }}
    return {"workload": workload, "seed": seed, "pair": pair, "side": side, "batch": batch,
            "exit": exit_status, "report": json.dumps({"rounds": rounds}),
            "result": json.dumps(result)}


# five pairs; the change is lower in pairs 0, 1, 3 and 4 and ties in pair 2
PARENT_MS = [4.0, 4.2, 3.9, 4.4, 4.1]
CHANGE_MS = [3.8, 3.9, 3.9, 4.0, 3.7]


def canned_runs():
    runs = []
    for pair, (p, c) in enumerate(zip(PARENT_MS, CHANGE_MS)):
        order = [("parent", p), ("change", c)]
        for side, ms in order if pair % 2 == 0 else order[::-1]:
            runs.append(run(side, pair, ms, rounds=10 + pair if side == "parent" else 20 + pair))
    return runs


def test_quartiles_are_inclusive():
    # statistics.quantiles(method="inclusive") over five values: q1 is the second
    # value and q3 the fourth once sorted
    assert bench_pairs.quartiles([4.0, 4.2, 3.9, 4.4, 4.1]) == {
        "median": 4.1, "q1": 4.0, "q3": 4.2, "min": 3.9, "max": 4.4,
    }
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == {
        "median": 2.5, "q1": 1.75, "q3": 3.25, "min": 1.0, "max": 4.0,
    }


def test_summary_counts_pairs_gaps_and_ratios():
    entry = bench_pairs.summarize(canned_runs())["grls_long/seed0"]
    assert entry["pairs"] == 5
    op = entry["op_ms_p50"]
    assert op["parent"]["median"] == 4.1 and op["change"]["median"] == 3.9
    assert op["change"]["q1"] == 3.8 and op["change"]["q3"] == 3.9
    assert op["change_lower_in_pairs"] == 4 and op["ties"] == 1
    assert op["median_gap"] == pytest.approx(0.2)
    assert op["parent_iqr"] == pytest.approx(0.2)
    assert op["change_over_parent"] == pytest.approx(3.9 / 4.1 - 1.0)
    rss = entry["peak_rss_mb"]
    assert rss["change_lower_in_pairs"] == 0 and rss["ties"] == 5 and rss["median_gap"] == 0.0
    assert entry["parent_rounds"] == [10, 11, 12, 13, 14]
    assert entry["change_rounds"] == [20, 21, 22, 23, 24]
    assert entry["parent_failed_of_attempted"] == [0, 50]
    assert entry["all_correct"] is True


def test_pairs_are_matched_by_batch_and_index_not_by_order():
    runs = canned_runs()
    shuffled = runs[1::2] + runs[::2]
    assert bench_pairs.summarize(shuffled) == bench_pairs.summarize(runs)
    # a second batch reuses pair indices 0.. and adds pairs of its own
    more = [run("change", 0, 3.0, batch=2), run("parent", 0, 5.0, batch=2)]
    entry = bench_pairs.summarize(runs + more)["grls_long/seed0"]
    assert entry["pairs"] == 6 and entry["op_ms_p50"]["change_lower_in_pairs"] == 5


def test_incomplete_pairs_are_left_out_and_failures_counted():
    runs = canned_runs()
    runs.append(run("parent", 5, 9.9))  # its change run never happened
    unparsed = run("change", 6, 1.0)
    unparsed["result"] = None  # a run that printed no result line
    runs += [run("parent", 6, 4.0), unparsed]
    runs[0] = run("parent", 0, 4.0, failed=2, correct=False)
    entry = bench_pairs.summarize(runs)["grls_long/seed0"]
    assert entry["pairs"] == 5
    assert entry["parent_failed_of_attempted"] == [2, 50]
    assert entry["all_correct"] is False


def test_keys_follow_workload_and_seed_and_need_two_pairs():
    runs = canned_runs() + [run("parent", 0, 1.0, workload="figs", seed=101),
                            run("change", 0, 1.0, workload="figs", seed=101)]
    assert list(bench_pairs.summarize(runs)) == ["grls_long/seed0"]


def test_summary_reproduces_a_record_assembled_by_hand():
    # BENCH_21.json was assembled without the script, with the same summary
    # fields; its grls_long entry covers one of its two batches only
    record = json.loads((_PATH.parent.parent / "BENCH_21.json").read_text())
    summary = bench_pairs.summarize(record["runs"])
    for key in ("figs/seed0", "sweep/seed0", "figs/seed101"):
        assert summary[key] == record["summary"][key]


def test_spec_parsing():
    assert bench_pairs.parse_spec("grls_long:101:3") == ("grls_long", 101, 3)
    with pytest.raises(Exception, match="WORKLOAD:SEED:PAIRS"):
        bench_pairs.parse_spec("grls_long:3")


# prints, when given --measure, the args after it and the sisid file its argv names
_STAND_IN = """import json, sys
assert sys.argv[1] == "--measure"
print("a line before the last")
print(json.dumps({"sisid": sys.argv[2], "args": sys.argv[3:]}))
"""


def test_a_measuring_process_reads_its_last_line_and_checks_its_tree(tmp_path):
    script = tmp_path / "stand_in.py"
    script.write_text(_STAND_IN)
    tree = tmp_path / "tree"
    (tree / "src" / "sisid").mkdir(parents=True)
    inside = str(tree / "src" / "sisid" / "__init__.py")
    assert bench_pairs.measure_in(tree, script, inside, "--steps", "10") == {
        "sisid": inside, "args": ["--steps", "10"]}
    with pytest.raises(SystemExit, match="imported sisid from "):
        bench_pairs.measure_in(tree, script, str(tmp_path / "elsewhere.py"))
    script.write_text("raise SystemExit('no measure')")
    with pytest.raises(SystemExit, match="no measure"):
        bench_pairs.measure_in(tree, script)
