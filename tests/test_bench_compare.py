"""tools/bench_compare.py summaries, including a workload of one pair."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_compare.py"
spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
bench_compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_compare)


def pair(seed, parent, change):
    return {
        "seed": seed,
        "first": "parent",
        "parent": {"metrics": {"run_s": parent}},
        "change": {"metrics": {"run_s": change}},
    }


def test_quartiles_of_one_value_are_that_value():
    assert bench_compare.quartiles([0.25]) == {"median": 0.25, "q1": 0.25, "q3": 0.25}


def test_quartiles_of_several_values():
    assert bench_compare.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0,
    }


def test_summarize_one_pair():
    run_s = bench_compare.summarize([pair(301, 2.0, 1.5)])["run_s"]
    assert run_s["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0, "runs": [2.0]}
    assert run_s["change"] == {"median": 1.5, "q1": 1.5, "q3": 1.5, "runs": [1.5]}
    assert run_s["pairs"] == 1
    assert run_s["change_wins"] == 1
    assert run_s["median_change_frac"] == pytest.approx(-0.25)
    # one run has no interquartile range, so the gap is not judged
    assert run_s["median_gap_exceeds_parent_iqr"] is None


def test_summarize_judges_the_gap_from_two_pairs():
    run_s = bench_compare.summarize([pair(1, 2.0, 1.5), pair(2, 2.1, 1.6)])["run_s"]
    assert run_s["median_gap_exceeds_parent_iqr"] is True


def test_summarize_counts_ties_for_neither_side():
    pairs = [pair(1, 1.0, 1.0), pair(2, 1.0, 0.9), pair(3, 1.0, 1.1)]
    run_s = bench_compare.summarize(pairs)["run_s"]
    assert run_s["change_wins"] == 1
    assert run_s["pairs"] == 3
