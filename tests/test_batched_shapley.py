"""Batched Shapley valuation against the scalar path it replaced.

shapley_estimate collects every coalition first and calls value_fn once
with the list; the harness's value function evaluates blocks of coalition
means in one stacked forward. The oracles below are the scalar
expressions as they were before, one value_fn call and one forward per
coalition. Every comparison is exact (bit for bit), because the golden
run digests depend on it and the guarantee rests on the BLAS build.
"""

import math

import numpy as np
import pytest

from afflsim.fairness import EXACT_MAX_CLIENTS, aggregate_messengers, shapley_estimate
from afflsim.federation import DatasetShard
from afflsim.harness import COALITION_BLOCK, coalition_value_fn
from afflsim.models import (
    Arch,
    ModelParams,
    _unpack,
    _unpack_stacked,
    evaluate,
    forward_stacked,
    init_params,
    logits,
    stacked_accuracy,
)
from afflsim.rng import stream

# -- oracles: the scalar path ------------------------------------------------


def reference_shapley_estimate(cohort_ids, value, mode="exact", num_perms=1000, seed=0):
    """The scalar estimator: value(subset) -> float, memoized per coalition."""
    ids = list(cohort_ids)
    n = len(ids)
    cache = {}

    def v(subset):
        key = frozenset(subset)
        if key not in cache:
            cache[key] = float(value(tuple(sorted(subset))))
        return cache[key]

    phi = np.zeros(n)
    if mode == "exact":
        fact = [math.factorial(k) for k in range(n + 1)]
        for mask in range(1 << n):
            subset = tuple(ids[j] for j in range(n) if mask >> j & 1)
            size = len(subset)
            v_s = v(subset)
            weight = fact[size] * fact[n - size - 1] / fact[n]
            for j in range(n):
                if not mask >> j & 1:
                    phi[j] += weight * (v(subset + (ids[j],)) - v_s)
        return phi
    for p in range(num_perms):
        order = stream(seed, "shapley-perm", p).permutation(n)
        prefix = ()
        v_prev = v(prefix)
        for j in order:
            prefix = prefix + (ids[j],)
            v_new = v(prefix)
            phi[j] += v_new - v_prev
            v_prev = v_new
    return phi / num_perms


def reference_value(variants_by_id, base, validation, subset):
    """Per-coalition aggregate_messengers + evaluate."""
    if not subset:
        return evaluate(base, validation)[1]
    uniform = np.full(len(subset), 1.0 / len(subset))
    agg = aggregate_messengers([variants_by_id[i] for i in subset], uniform)
    return evaluate(agg, validation)[1]


class Recorder:
    """A list-valued value_fn over a random table; records every call."""

    def __init__(self, seed):
        self.seed = seed
        self.calls = []

    def value(self, subset):
        assert list(subset) == sorted(subset)
        return float(stream(self.seed, "value-table", subset).uniform(-1.0, 1.0))

    def __call__(self, subsets):
        self.calls.append(list(subsets))
        return [self.value(subset) for subset in subsets]


# -- shapley_estimate --------------------------------------------------------

UNSORTED_IDS = [41, 7, 19, 3, 88, 12, 60, 5, 33, 21]


@pytest.mark.parametrize("n", [1, 2, 5, EXACT_MAX_CLIENTS])
@pytest.mark.parametrize("table", [0, 1])
def test_exact_mode_matches_scalar_oracle(n, table):
    ids = UNSORTED_IDS[:n]
    fn = Recorder(table)
    phi = shapley_estimate(ids, fn, mode="exact")
    assert np.array_equal(phi, reference_shapley_estimate(ids, fn.value, mode="exact"))
    assert len(fn.calls) == 1
    coalitions = fn.calls[0]
    assert len(coalitions) == 2**n
    assert len(set(coalitions)) == 2**n
    assert coalitions[0] == ()


@pytest.mark.parametrize("n, perms", [(1, 3), (4, 1), (7, 40), (25, 20)])
@pytest.mark.parametrize("seed", [0, 9])
def test_monte_carlo_mode_matches_scalar_oracle(n, perms, seed):
    ids = UNSORTED_IDS[:n] if n <= len(UNSORTED_IDS) else list(range(300, 300 - 7 * n, -7))
    fn = Recorder(seed + 2)
    phi = shapley_estimate(ids, fn, mode="monte_carlo", num_perms=perms, seed=seed)
    expected = reference_shapley_estimate(ids, fn.value, "monte_carlo", perms, seed)
    assert np.array_equal(phi, expected)
    assert len(fn.calls) == 1
    coalitions = fn.calls[0]
    assert len(set(coalitions)) == len(coalitions)
    assert all(set(c) <= set(ids) for c in coalitions)


def test_monte_carlo_values_each_distinct_coalition_once_in_first_seen_order():
    ids = [30, 10, 20]
    fn = Recorder(4)
    shapley_estimate(ids, fn, mode="monte_carlo", num_perms=12, seed=5)
    seen = [()]
    for p in range(12):
        prefix = []
        for j in stream(5, "shapley-perm", p).permutation(3):
            prefix.append(ids[j])
            key = tuple(sorted(prefix))
            if key not in seen:
                seen.append(key)
    assert fn.calls == [seen]


# -- the stacked forward -----------------------------------------------------


@pytest.mark.parametrize("hidden", [0, 2, 8])
@pytest.mark.parametrize("k", [1, 3, 64])
def test_stacked_matmul_equals_2d_product_slice_by_slice(hidden, k):
    rng = stream(hidden, "stacked-matmul", k)
    arch = Arch(6, 3, hidden)
    thetas = rng.normal(0.0, 1.0, (k, arch.param_count))
    x = np.asfortranarray(rng.normal(0.0, 1.0, (257, 6)))
    layers = _unpack_stacked(arch, thetas)
    for i in range(k):
        for stacked, single in zip(layers, _unpack(arch, thetas[i])):
            assert np.shares_memory(stacked[i], thetas) and np.array_equal(stacked[i], single)
    w_first = layers[0].transpose(0, 2, 1)
    out = np.matmul(w_first, x.T)
    for i in range(k):
        assert np.array_equal(out[i], w_first[i] @ x.T)
    if hidden:
        h = rng.normal(0.0, 1.0, (k, hidden, 257))
        w_second = layers[2].transpose(0, 2, 1)
        out = np.matmul(w_second, h)
        for i in range(k):
            assert np.array_equal(out[i], w_second[i] @ h[i])


@pytest.mark.parametrize("hidden", [0, 2, 8])
@pytest.mark.parametrize("classes", [2, 3, 4])
def test_forward_stacked_equals_forward_per_model(hidden, classes):
    rng = stream(hidden, "forward-stacked", classes)
    arch = Arch(5, classes, hidden)
    thetas = rng.normal(0.0, 1.0, (COALITION_BLOCK + 1, arch.param_count))
    x = rng.normal(0.0, 1.0, (301, 5))
    labels = rng.integers(0, classes, 301)
    shard = DatasetShard(x, labels, classes)
    z = forward_stacked(arch, thetas, shard.features)
    assert z.shape == (len(thetas), classes, 301) and z.flags.c_contiguous
    accs = stacked_accuracy(arch, thetas, shard, {})
    for i, theta in enumerate(thetas):
        params = ModelParams(arch, theta.copy())
        assert np.array_equal(z[i], logits(params, shard.features).T)
        assert accs[i] == evaluate(params, shard)[1]


# -- coalition_value_fn ------------------------------------------------------


def make_round(hidden, classes, cohort, rows=240, d=7):
    rng = stream(hidden, "coalition-round", classes, rows)
    means = rng.normal(0.0, 1.5, (classes, d))
    labels = rng.integers(0, classes, rows)
    validation = DatasetShard(means[labels] + rng.normal(0.0, 1.0, (rows, d)), labels, classes)
    arch = Arch(d, classes, hidden)
    base = init_params(arch, 1)
    variants = [
        ModelParams(arch, base.theta + rng.normal(0.0, 0.5, arch.param_count)) for _ in cohort
    ]
    return variants, base, validation


def random_coalitions(cohort, count, seed):
    rng = stream(seed, "coalitions", count)
    out = []
    for _ in range(count):
        size = int(rng.integers(1, len(cohort) + 1))
        out.append(tuple(sorted(int(i) for i in rng.choice(cohort, size, replace=False))))
    return out


@pytest.mark.parametrize("hidden", [0, 2, 8])
@pytest.mark.parametrize("classes", [2, 3, 4])
@pytest.mark.parametrize("count", [1, 63, 64, 65, 129])
def test_coalition_values_match_aggregate_then_evaluate(hidden, classes, count):
    cohort = [17, 2, 40, 9, 31, 5, 26, 11]  # unsorted, non-contiguous
    variants, base, validation = make_round(hidden, classes, cohort)
    by_id = dict(zip(cohort, variants))
    snapshots = [v.theta.copy() for v in variants]
    value_fn = coalition_value_fn(cohort, variants, base, validation)
    coalitions = random_coalitions(cohort, count, hidden * 10 + classes)
    values = value_fn(coalitions)
    assert len(values) == count
    assert count == 1 or len(set(values)) > 1
    for subset, value in zip(coalitions, values):
        assert value == reference_value(by_id, base, validation, subset)
    assert all(np.array_equal(v.theta, s) for v, s in zip(variants, snapshots))


def test_empty_coalitions_anywhere_in_the_list_are_worth_the_base_model():
    cohort = [3, 1, 4]
    variants, base, validation = make_round(2, 3, cohort)
    by_id = dict(zip(cohort, variants))
    value_fn = coalition_value_fn(cohort, variants, base, validation)
    coalitions = [(1, 3), (), (1, 3, 4), (), (4,)]
    values = value_fn(coalitions)
    assert list(values) == [reference_value(by_id, base, validation, s) for s in coalitions]
    assert list(value_fn([()])) == [evaluate(base, validation)[1]]
    assert len(value_fn([])) == 0


@pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
def test_batched_round_valuation_matches_the_scalar_path(mode):
    cohort = [12, 4, 30, 8, 21, 15]
    variants, base, validation = make_round(8, 4, cohort)
    by_id = dict(zip(cohort, variants))
    phi = shapley_estimate(
        cohort, coalition_value_fn(cohort, variants, base, validation), mode, 40, 3
    )
    expected = reference_shapley_estimate(
        cohort, lambda s: reference_value(by_id, base, validation, s), mode, 40, 3
    )
    assert np.array_equal(phi, expected)
