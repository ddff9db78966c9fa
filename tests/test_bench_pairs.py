"""The summary of ``tools/bench_pairs.py`` on canned benchmark results."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "throughput_ops_s", "unit": "ops/s", "better": "higher", "bound": 0.25},
]


def run(latency, throughput, failed=2, attempted=27, correct=True):
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": {
        "latency_p50_ms": {"value": latency, "unit": "ms"},
        "throughput_ops_s": {"value": throughput, "unit": "ops/s"}}}


PARENT = [run(1.68 + 0.002 * i, 390.0) for i in range(10)]


def by_name(rows):
    return {row["name"]: row for row in rows}


def test_clear_gain_holds():
    change = [run(1.50 + 0.002 * i, 420.0 + i) for i in range(10)]
    rows = by_name(bench_pairs.summarize(END_TO_END, PARENT, change))
    latency = rows["latency_p50_ms"]
    assert latency["wins"] == 10 and latency["pairs"] == 10 and latency["gain_rule"]
    assert latency["parent"][1] == pytest.approx(1.689)
    assert latency["median_change_pct"] == pytest.approx(100 * (1.509 - 1.689) / 1.689)
    assert rows["throughput_ops_s"]["wins"] == 10 and rows["throughput_ops_s"]["gain_rule"]


def test_ties_count_for_neither_side():
    # the same throughput in every pair: no wins, and no gain
    change = [run(1.50, 390.0) for _ in range(10)]
    rows = by_name(bench_pairs.summarize(END_TO_END, PARENT, change))
    assert rows["throughput_ops_s"]["wins"] == 0
    assert not rows["throughput_ops_s"]["gain_rule"]
    assert rows["latency_p50_ms"]["gain_rule"]


def test_eight_wins_of_ten_is_not_a_gain():
    change = [run(1.50, 420.0) for _ in range(8)] + [run(1.80, 380.0) for _ in range(2)]
    rows = by_name(bench_pairs.summarize(END_TO_END, PARENT, change))
    assert rows["latency_p50_ms"]["wins"] == 8
    assert not rows["latency_p50_ms"]["gain_rule"]


def test_gap_within_the_parent_spread_is_not_a_gain():
    # every pair won, by less than the parent's interquartile range
    parent = [run(1.60 + 0.02 * i, 390.0) for i in range(10)]
    change = [run(1.60 + 0.02 * i - 0.001, 390.0) for i in range(10)]
    rows = by_name(bench_pairs.summarize(END_TO_END, parent, change))
    assert rows["latency_p50_ms"]["wins"] == 10
    assert not rows["latency_p50_ms"]["gain_rule"]


def test_worse_change_is_not_a_gain():
    change = [run(1.90, 350.0) for _ in range(10)]
    rows = by_name(bench_pairs.summarize(END_TO_END, PARENT, change))
    assert all(row["wins"] == 0 and not row["gain_rule"] for row in rows.values())


def test_problems():
    assert bench_pairs.problems(PARENT[:2], [run(1.5, 420.0), run(1.5, 420.0)]) == []
    found = bench_pairs.problems(
        PARENT[:3], [run(1.5, 420.0, correct=False), run(1.5, 420.0, failed=3),
                     run(1.5, 420.0, failed=4, attempted=54)])
    assert found == ["pair 0: the change run is not correct",
                     "pair 1: failed 2/27 (parent) vs 3/27 (change)"]
