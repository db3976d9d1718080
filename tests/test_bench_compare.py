"""tools/bench_compare.py summaries, from one pair to ten."""

import importlib.util
import json
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
    assert run_s["median_gap_exceeds_parent_iqr"] is None


def test_summarize_judges_the_gap_from_ten_pairs():
    pairs = [pair(k, 2.0 + 0.01 * k, 1.5 + 0.01 * k) for k in range(10)]
    run_s = bench_compare.summarize(pairs)["run_s"]
    assert run_s["median_gap_exceeds_parent_iqr"] is True
    pairs = [pair(k, 2.0 + 0.01 * k, 2.0 + 0.01 * (9 - k)) for k in range(10)]
    assert bench_compare.summarize(pairs)["run_s"]["median_gap_exceeds_parent_iqr"] is False


def test_summarize_does_not_judge_the_gap_from_nine_pairs():
    pairs = [pair(k, 2.0 + 0.01 * k, 1.5 + 0.01 * k) for k in range(9)]
    run_s = bench_compare.summarize(pairs)["run_s"]
    assert run_s["pairs"] == 9
    assert run_s["median_gap_exceeds_parent_iqr"] is None


def test_summarize_counts_ties_for_neither_side():
    pairs = [pair(1, 1.0, 1.0), pair(2, 1.0, 0.9), pair(3, 1.0, 1.1)]
    run_s = bench_compare.summarize(pairs)["run_s"]
    assert run_s["change_wins"] == 1
    assert run_s["pairs"] == 3


def test_each_side_keeps_its_own_environment(tmp_path, monkeypatch):
    def fake_run_bench(checkout, workload, seed, trace, seconds):
        result = {"seed": seed, "correct": True, "failed": 0, "attempted": 6,
                  "metrics": {"round_p50_s": 1.0 if checkout.name == "parent" else 0.9}}
        return result, {"git_commit": checkout.name, "seed": seed}

    monkeypatch.setattr(bench_compare, "run_bench", fake_run_bench)
    out = tmp_path / "BENCH_test.json"
    dirs = []
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        dirs += [f"--{side}", str(tmp_path / side)]
    assert bench_compare.main([*dirs, "--out", str(out), "--workload", "smoke:3", "--trace"]) == 0
    written = json.loads(out.read_text())
    # the third pair runs the change last; the parent's block is still there
    assert written["env"] == {
        "parent": {"git_commit": "parent", "seed": 303},
        "change": {"git_commit": "change", "seed": 303},
    }
    assert written["workloads"]["smoke"]["end_to_end"]["round_p50_s"]["change_wins"] == 3
