"""The pair recorder's summary on canned run.py lines, and the recorded
BENCH file in its schema recomputed from its own runs."""

import json
import pathlib

import pytest

import bench_pairs

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_line(p50: float, *, ops: float = 10.0, correct: bool = True, failed: int = 0) -> str:
    """One run.py stdout: a log line, then the JSON line of one run."""
    metrics = {"setup_s": 0.07, "ops_per_s": ops, "op_p50_ms": p50, "op_p75_ms": p50 + 80.0,
               "peak_rss_mb": 37.5}
    units = {name: unit for name, (unit, _) in bench_pairs.END_TO_END.items()}
    return "perfbench: a line before\n" + json.dumps(
        {"correct": correct, "attempted": 42, "failed": failed,
         "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}) + "\n"


def runs(p50s, **kw):
    return [bench_pairs.parse_run(run_line(v, **kw)) for v in p50s]


def test_summary_of_canned_runs():
    parent = runs([90.0000004, 92.0, 91.0, 95.0], ops=10.0)
    change = runs([89.0, 93.0, 90.0, 94.0], ops=11.0)
    block = bench_pairs.summarize(parent, change)
    assert block["every_run_correct_with_0_failed"] is True
    p50 = block["metrics"]["op_p50_ms"]
    assert p50["parent_runs"] == [90.0, 92.0, 91.0, 95.0]
    # inclusive quartiles of 90, 91, 92, 95: positions 0.75, 1.5 and 2.25
    assert p50["parent"] == {"median": 91.5, "q1": 90.75, "q3": 92.75, "min": 90.0}
    assert p50["change"] == {"median": 91.5, "q1": 89.75, "q3": 93.25, "min": 89.0}
    # lower is better for a time and higher for a rate
    assert p50["change_better_in_pairs"] == "3/4"
    assert block["metrics"]["ops_per_s"]["change_better_in_pairs"] == "4/4"
    assert block["metrics"]["peak_rss_mb"]["change_better_in_pairs"] == "0/4"
    assert block["metrics"]["ops_per_s"]["change_over_parent"] == 1.1
    assert set(block["metrics"]) == set(bench_pairs.END_TO_END)


@pytest.mark.parametrize("flaw", [{"correct": False}, {"failed": 1}])
def test_a_failed_run_is_recorded(flaw):
    parent = runs([90.0, 91.0])
    change = runs([89.0]) + runs([90.0], **flaw)
    assert bench_pairs.summarize(parent, change)["every_run_correct_with_0_failed"] is False


@pytest.mark.parametrize("change_p50, met", [
    # ten wins, and the medians 6 apart against the parent's IQR of 4.5
    ([v - 6.0 for v in range(90, 100)], True),
    # ten wins, 4 apart: within the parent's spread
    ([v - 4.0 for v in range(90, 100)], False),
    # 8 of 10 pairs won, however far apart the medians
    ([v - 50.0 for v in range(90, 98)] + [100.0, 100.0], False),
    # 9 of 10
    ([v - 50.0 for v in range(90, 99)] + [100.0], True),
])
def test_claim_rule(change_p50, met):
    block = bench_pairs.summarize(runs(range(90, 100)), runs(change_p50))
    claim = bench_pairs.claim("cli-session", "op_p50_ms", block["metrics"]["op_p50_ms"])
    assert claim["parent_iqr"] == 4.5
    assert claim["met"] is met
    assert claim["gain"] == round(claim["parent_median"] / claim["change_median"], 4)


def test_higher_is_better_claim():
    parent, change = runs([90.0] * 4, ops=10.0), runs([90.0] * 4, ops=12.0)
    claim = bench_pairs.claim("lambda0-scan", "ops_per_s",
                              bench_pairs.summarize(parent, change)["metrics"]["ops_per_s"])
    assert (claim["gain"], claim["change_better_in_pairs"], claim["met"]) == (1.2, "4/4", True)


@pytest.mark.parametrize("path", [p for p in sorted(ROOT.glob("BENCH_*.json"))
                                  if "parent_runs" in p.read_text()],
                         ids=lambda p: p.name)
def test_recorded_runs_recompute_to_their_summary(path):
    # the summaries may come from the unrounded runs, so a median or
    # quartile may differ by one unit of the sixth decimal
    record = json.loads(path.read_text())
    for workload, block in record["workloads"].items():
        for name, recorded in block["metrics"].items():
            got = bench_pairs.summarize_metric(recorded["parent_runs"], recorded["change_runs"],
                                               recorded["unit"], bench_pairs.END_TO_END[name][1])
            for side in ("parent", "change"):
                assert got[side] == pytest.approx(recorded[side], abs=2e-6), (workload, name)
            for key in ("unit", "change_better_in_pairs", "change_over_parent"):
                assert got[key] == recorded[key], (workload, name, key)
    claim = record["claim"]
    got = bench_pairs.claim(claim["workload"], claim["metric"],
                            record["workloads"][claim["workload"]]["metrics"][claim["metric"]])
    assert got == claim
