"""Benchmark formulas: hand-computed examples and regression oracles."""

import numpy as np
import pytest

from afflsim.metrics import (
    MetricsReport,
    cei,
    clinical_readiness,
    hfi,
    mis,
    put,
    scaling_exponent,
    slope,
    statistical_parity,
    transfer_effectiveness,
)
from afflsim.rng import stream


def test_cei_identical_runs():
    assert cei([(50, 50, 0.8, 0.8)], 0.4, 0.6) == pytest.approx(1.0)


def test_cei_hand_example():
    value = cei([(60, 20, 0.84, 0.88)], 0.5, 0.5)
    assert value == pytest.approx(0.5 * 3 + 0.5 * (0.88 / 0.84), abs=1e-12)
    assert value == pytest.approx(2.024, abs=1e-3)


def test_cei_round_reduction_band_maps_to_ratio():
    # a 55-75% round reduction corresponds to R-ratios in [1/0.45, 1/0.25]
    for reduction in (0.55, 0.75):
        ratio = 1.0 / (1.0 - reduction)
        assert 2.22 <= ratio <= 4.0 + 1e-9


def test_cei_guards():
    with pytest.raises(ValueError):
        cei([], 0.5, 0.5)
    with pytest.raises(ValueError):
        cei([(10, 0, 0.5, 0.5)], 0.5, 0.5)


def test_hfi_sigma_zero_convention():
    assert hfi({"academic": 0.8, "rural": 0.8}) == 1.0
    assert hfi([0.42]) == 1.0


def test_hfi_two_and_three_types():
    assert hfi([0.8, 0.9]) == pytest.approx(0.0, abs=1e-12)
    assert hfi([0.8, 0.85, 0.9]) == pytest.approx(0.1835, abs=1e-4)


def test_hfi_permutation_invariant():
    values = [0.7, 0.9, 0.75, 0.85]
    assert hfi(values) == pytest.approx(hfi(values[::-1]), abs=1e-12)


def test_put_examples():
    assert put(0.8, 0.8, 0.0, 0.1) == pytest.approx(1.0)
    assert put(0.72, 0.8, 2.0, 0.1) == pytest.approx(0.9 * np.exp(-0.2), abs=1e-12)
    assert put(0.72, 0.8, 2.0, 0.1) == pytest.approx(0.7369, abs=1e-4)
    lower = put(0.72, 0.8, 3.0, 0.1)
    assert lower < put(0.72, 0.8, 2.0, 0.1)


def test_mis_examples():
    assert mis(0.8, [0.8, 0.7]) == pytest.approx(1.0)
    assert mis(0.9, [0.8, 0.75]) == pytest.approx(1.125)
    assert mis(0.66, [0.66]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        mis(0.5, [])


def test_statistical_parity_examples():
    same = {"a": [0.1, 0.2], "b": [0.1, 0.2]}
    assert statistical_parity(same, 0.05) == 0.0
    split = {"a": [0.1, 0.2], "b": [0.0, 0.0]}
    assert statistical_parity(split, 0.05) == pytest.approx(1.0)
    rng = stream(0, "parity")
    for _ in range(100):
        data = {
            str(i): rng.uniform(-1, 1, int(rng.integers(1, 6))) for i in range(3)
        }
        v = statistical_parity(data, float(rng.uniform(-0.5, 0.5)))
        assert 0.0 <= v <= 1.0


def test_transfer_effectiveness_examples():
    assert transfer_effectiveness(0.75, 0.75, 0.9) == 0.0
    assert transfer_effectiveness(0.85, 0.75, 0.9) == pytest.approx(0.1111, abs=1e-4)
    assert transfer_effectiveness(0.7, 0.75, 0.9) < 0


def test_scaling_exponent_exact_nlogn():
    samples = [(n, 3.0 * n * np.log(n)) for n in (10, 20, 40, 80)]
    assert scaling_exponent(samples) == pytest.approx(1.0, abs=1e-6)


def test_scaling_exponent_constant():
    samples = [(n, 5.0) for n in (10, 20, 40, 80)]
    assert scaling_exponent(samples) == pytest.approx(0.0, abs=1e-12)


def test_scaling_exponent_quadratic_matches_regression_oracle():
    sizes = (10, 20, 40, 80, 160)
    samples = [(n, 2.0 * n**2) for n in sizes]
    value = scaling_exponent(samples)
    # independent oracle: polyfit on the same axes
    x = np.log([n * np.log(n) for n in sizes])
    y = np.log([2.0 * n**2 for n in sizes])
    oracle = np.polyfit(x, y, 1)[0]
    assert value == pytest.approx(oracle, abs=1e-10)
    assert value == pytest.approx(1.55, abs=0.01)


def test_scaling_exponent_guards():
    with pytest.raises(ValueError):
        scaling_exponent([(10, 1.0), (10, 2.0)])
    with pytest.raises(ValueError):
        scaling_exponent([(10, 1.0), (20, -2.0), (40, 1.0)])


def test_slope_of_linear_bytes_on_log_axes():
    sizes = np.array([10, 20, 40, 80])
    assert slope(np.log(sizes), np.log(7.5 * sizes)) == pytest.approx(1.0, abs=1e-9)


def test_clinical_readiness():
    assert clinical_readiness(0.6, 0.6, 0.6, 0.5, 0.3, 0.2) == pytest.approx(0.6)
    assert clinical_readiness(0.9, 0.6, 1.0, 0.5, 0.3, 0.2) == pytest.approx(0.83)
    with pytest.raises(ValueError):
        clinical_readiness(1.2, 0.5, 0.5, 0.5, 0.3, 0.2)
    with pytest.raises(ValueError):
        clinical_readiness(0.5, 0.5, 0.5, 0.5, 0.3, 0.3)


def test_gap_zero_iff_gini_zero():
    from afflsim.fairness import fairness_gap, gini

    rng = stream(4, "gapgini")
    for _ in range(200):
        n = int(rng.integers(1, 12))
        if rng.random() < 0.3:
            accs = np.full(n, float(rng.uniform(0.1, 1.0)))
        else:
            accs = rng.uniform(0.1, 1.0, n)
        gap = fairness_gap(accs)
        g = gini(accs)
        assert (gap == 0.0) == (g == pytest.approx(0.0, abs=1e-15))


def test_report_roundtrip(tmp_path):
    report = MetricsReport(suite="scale", scaling_exponent=0.77)
    path = tmp_path / "report.txt"
    report.write_flat(str(path))
    text = path.read_text()
    assert "scaling_exponent=0.77" in text
    assert "utility=validation_accuracy" in text
    row = report.csv_row()
    assert row["scaling_exponent"] == 0.77
    assert row["cei"] == ""
