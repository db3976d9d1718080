"""Shapley values, fair weights, robust aggregation, inequality measures."""

import numpy as np
import pytest

from afflsim.fairness import (
    aggregate_messengers,
    fair_weights,
    fairness_gap,
    gini,
    monitor_and_adjust,
    robust_aggregate,
    shapley_estimate,
)
from afflsim.models import Arch, ModelParams
from afflsim.rng import stream


def vec_params(values):
    values = np.asarray(values, dtype=float)
    arch = Arch(values.size // 2 - 1, 2, 0) if values.size % 2 == 0 else None
    # simplest arch with the right param count: logistic (d+1)*C
    for d in range(1, 50):
        for c in range(2, 6):
            if (d + 1) * c == values.size:
                return ModelParams(Arch(d, c), values)
    raise AssertionError(f"no small arch with {values.size} params")


# -- shapley -----------------------------------------------------------------
# value_fn takes a boolean membership matrix: row k is coalition k, column j
# true when the j-th cohort id is a member.


def test_shapley_additive_value_function_exact():
    contrib = np.array([1.0, 2.0, 3.0, 4.0])

    def v(members):
        return members @ contrib

    phi = shapley_estimate([10, 11, 12, 13], v, mode="exact")
    assert phi == pytest.approx([1.0, 2.0, 3.0, 4.0], abs=1e-12)


def test_shapley_efficiency_exact():
    def v(members):
        masks = members @ (1 << np.arange(members.shape[1]))
        return [float(stream(1, "v", int(mask)).uniform(0, 1)) for mask in masks]

    ids = list(range(6))
    phi = shapley_estimate(ids, v, mode="exact")
    v_grand, v_empty = v(np.array([[True] * 6, [False] * 6]))
    assert phi.sum() == pytest.approx(v_grand - v_empty, abs=1e-9)


def test_shapley_symmetric_clients_equal_values():
    def v(members):  # symmetric accuracy-like value: depends only on coalition size
        return 0.5 + 0.1 * np.sqrt(members.sum(axis=1))

    phi = shapley_estimate(list(range(5)), v, mode="monte_carlo", num_perms=2000, seed=3)
    assert np.abs(phi - phi.mean()).max() < 0.01
    exact = shapley_estimate(list(range(5)), v, mode="exact")
    assert np.abs(exact - exact[0]).max() < 1e-12


def test_shapley_mc_converges_to_exact():
    rng = stream(5, "mc-v")
    weights = rng.uniform(0, 1, 6)

    def v(members):
        return members @ weights + 0.3 * np.sqrt(members.sum(axis=1))

    ids = list(range(6))
    exact = shapley_estimate(ids, v, mode="exact")
    err = []
    for perms in (100, 5000):
        mc = shapley_estimate(ids, v, mode="monte_carlo", num_perms=perms, seed=7)
        err.append(np.abs(mc - exact).max())
    assert err[1] < err[0]


def test_shapley_mc_deterministic_for_seed():
    def v(members):
        return members.sum(axis=1) ** 1.5

    a = shapley_estimate([0, 1, 2], v, mode="monte_carlo", num_perms=50, seed=9)
    b = shapley_estimate([0, 1, 2], v, mode="monte_carlo", num_perms=50, seed=9)
    assert np.array_equal(a, b)


def test_shapley_guards():
    with pytest.raises(ValueError):
        shapley_estimate([], lambda m: [0.0] * len(m), mode="exact")
    with pytest.raises(ValueError):
        shapley_estimate(list(range(11)), lambda m: [0.0] * len(m), mode="exact")
    with pytest.raises(FloatingPointError):
        shapley_estimate([0, 1], lambda m: [float("nan")] * len(m), mode="exact")
    with pytest.raises(ValueError, match="3 values for 4 coalitions"):
        shapley_estimate([0, 1], lambda m: [0.0] * (len(m) - 1), mode="exact")
    with pytest.raises(ValueError, match="8 values for 4 coalitions"):
        shapley_estimate([0, 1], lambda m: np.zeros((len(m), 2)), mode="exact")


# -- fair weights ------------------------------------------------------------


def test_fair_weights_uniform_for_equal_phi():
    w = fair_weights(np.array([0.4, 0.4, 0.4]), np.array([10, 10, 10]), 0.0, 0.0)
    assert w == pytest.approx(np.full(3, 1 / 3))


def test_fair_weights_hand_ratio():
    w = fair_weights(np.array([1.0, 3.0]), np.array([5, 5]), 0.0, 0.0)
    assert w == pytest.approx([0.25, 0.75])


def test_fair_weights_size_debias_hand_example():
    counts = np.array([np.e**2, np.e**4])
    w = fair_weights(np.array([1.0, 1.0]), counts, 0.0, 0.5)
    assert w == pytest.approx([0.6, 0.4])


def test_fair_weights_clamps_negative_phi():
    w = fair_weights(np.array([-0.5, 1.0]), np.array([3, 3]), 0.1, 0.0)
    assert w[0] == pytest.approx(0.1 / 1.2)
    assert w.sum() == pytest.approx(1.0)


def test_fair_weights_scale_invariance():
    phi = np.array([0.2, 0.5, 0.9])
    counts = np.array([100, 200, 300])
    a = fair_weights(phi, counts, 0.0, 0.0)
    b = fair_weights(7.3 * phi, counts, 0.0, 0.0)
    assert a == pytest.approx(b, abs=1e-12)


def test_fair_weights_all_zero_raises():
    with pytest.raises(ValueError):
        fair_weights(np.array([0.0, 0.0]), np.array([3, 3]), 0.0, 0.0)
    with pytest.raises(ValueError):
        fair_weights(np.array([-1.0, -2.0]), np.array([3, 3]), 0.0, 0.1)


# -- aggregation -------------------------------------------------------------


def test_aggregate_identical_variants():
    v = vec_params(np.arange(6.0))
    out = aggregate_messengers([v, v.copy(), v.copy()], np.array([0.2, 0.3, 0.5]))
    assert out.theta == pytest.approx(v.theta, abs=1e-12)


def test_aggregate_vertex_weight():
    a = vec_params(np.arange(6.0))
    b = vec_params(np.arange(6.0) + 5)
    out = aggregate_messengers([a, b], np.array([0.0, 1.0]))
    assert np.array_equal(out.theta, b.theta)


def test_aggregate_matches_dot_product_oracle():
    rng = stream(2, "agg")
    thetas = rng.normal(0, 1, (3, 8))
    weights = np.array([0.2, 0.5, 0.3])
    variants = [vec_params(t) for t in thetas]
    out = aggregate_messengers(variants, weights)
    oracle = weights[0] * thetas[0] + weights[1] * thetas[1] + weights[2] * thetas[2]
    assert out.theta == pytest.approx(oracle, abs=1e-12)


def test_aggregate_convex_hull_and_guards():
    rng = stream(3, "hull")
    thetas = rng.normal(0, 1, (4, 6))
    weights = np.array([0.1, 0.2, 0.3, 0.4])
    out = aggregate_messengers([vec_params(t) for t in thetas], weights)
    assert np.all(out.theta <= thetas.max(axis=0) + 1e-12)
    assert np.all(out.theta >= thetas.min(axis=0) - 1e-12)
    with pytest.raises(ValueError):
        aggregate_messengers([vec_params(thetas[0])], np.array([0.5]))
    mismatched = ModelParams(Arch(3, 2), np.zeros(8))
    with pytest.raises(ValueError):
        aggregate_messengers([vec_params(thetas[0]), mismatched], np.array([0.5, 0.5]))


# -- robust aggregation ------------------------------------------------------


def test_robust_identical_variants():
    v = vec_params(np.arange(6.0))
    out = robust_aggregate([v.copy() for _ in range(5)], "trimmed_mean", 1)
    assert out.theta == pytest.approx(v.theta, abs=1e-12)


def test_trimmed_mean_hand_example():
    column = np.array([0.0, 1.0, 2.0, 3.0, 100.0])
    variants = [vec_params(np.full(6, c)) for c in column]
    out = robust_aggregate(variants, "trimmed_mean", 1)
    assert out.theta == pytest.approx(np.full(6, 2.0))


def test_coordinate_median_matches_sort_oracle():
    rng = stream(4, "median")
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        thetas = rng.normal(0, 1, (n, 6))
        out = robust_aggregate([vec_params(t) for t in thetas], "coordinate_median")
        srt = np.sort(thetas, axis=0)
        oracle = srt[n // 2] if n % 2 == 1 else 0.5 * (srt[n // 2 - 1] + srt[n // 2])
        assert out.theta == pytest.approx(oracle, abs=1e-12)


def test_trimmed_mean_f_zero_equals_plain_mean():
    rng = stream(5, "f0")
    thetas = rng.normal(0, 1, (5, 6))
    out = robust_aggregate([vec_params(t) for t in thetas], "trimmed_mean", 0)
    assert out.theta == pytest.approx(thetas.mean(axis=0), abs=1e-12)


def test_trimmed_mean_cohort_guard():
    variants = [vec_params(np.zeros(6)) for _ in range(4)]
    with pytest.raises(ValueError):
        robust_aggregate(variants, "trimmed_mean", 2)


def test_robust_aggregate_rejects_unknown_method_and_negative_f():
    variants = [vec_params(np.zeros(6)) for _ in range(3)]
    with pytest.raises(ValueError, match="unknown robust method"):
        robust_aggregate(variants, "mean")
    with pytest.raises(ValueError, match="nonnegative"):
        robust_aggregate(variants, "trimmed_mean", -1)


def test_trimmed_mean_weighted_composition():
    # trim drops the extremes, then the surviving weights renormalize
    column = np.array([0.0, 1.0, 3.0, 50.0])
    variants = [vec_params(np.full(6, c)) for c in column]
    weights = np.array([0.4, 0.3, 0.2, 0.1])
    out = robust_aggregate(variants, "trimmed_mean", 1, weights)
    expected = (0.3 * 1.0 + 0.2 * 3.0) / 0.5
    assert out.theta == pytest.approx(np.full(6, expected), abs=1e-12)


# -- gap, monitor, gini ------------------------------------------------------


def test_fairness_gap_cases():
    assert fairness_gap(np.array([0.8, 0.8, 0.8])) == 0.0
    assert fairness_gap(np.array([0.9, 0.7, 0.8])) == pytest.approx(0.2)
    assert fairness_gap(np.array([0.42])) == 0.0


def test_monitor_and_adjust():
    assert monitor_and_adjust(0.3, 0.1, 2.0) == pytest.approx(2.2)
    assert monitor_and_adjust(0.05, 0.1, 2.0) == 2.0
    lam = 1.0
    for _ in range(7):
        lam = monitor_and_adjust(0.5, 0.1, lam)
    assert lam == pytest.approx(1.1**7, abs=1e-12)


def test_gini_cases():
    assert gini(np.array([3.0, 3.0, 3.0])) == pytest.approx(0.0, abs=1e-12)
    assert gini(np.array([0.0, 1.0])) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        gini(np.array([0.0, 0.0]))


def test_gini_matches_brute_force():
    rng = stream(6, "gini")
    for _ in range(500):
        n = int(rng.integers(1, 20))
        v = rng.uniform(0, 10, n)
        if v.sum() == 0:
            continue
        pairwise = np.abs(v[:, None] - v[None, :]).sum() / (2 * n * n * v.mean())
        assert gini(v) == pytest.approx(pairwise, abs=1e-12)
