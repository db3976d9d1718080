"""Batched Shapley valuation on membership rows.

shapley_estimate collects every coalition first and calls value_fn once
with a boolean membership matrix, one row per distinct coalition; the
harness's value function averages a block of coalitions in one product
and evaluates the block in one stacked forward. The estimator oracle below
is the scalar expression it replaced, one value per coalition; comparing
phi with it is exact (bit for bit), because the golden run digests depend
on it.

The coalition-value oracle is the documented product itself, evaluated one
coalition at a time. A coalition mean is a row of (members / sizes) @
stacked, summed by BLAS over every cohort position in cohort order (zero
weights included), so it no longer equals aggregate_messengers' product
over the members alone bit for bit; those thetas are compared to a few
ulp instead.
"""

import math

import numpy as np
import pytest

from afflsim.fairness import (
    EXACT_MAX_CLIENTS,
    _stack_variants,
    aggregate_messengers,
    shapley_estimate,
)
from afflsim.federation import DatasetShard
from afflsim.harness import COALITION_BLOCK, coalition_value_fn
from afflsim.models import (
    Arch,
    ModelParams,
    _layers,
    evaluate,
    forward_stacked,
    init_params,
    logits,
    stacked_accuracy,
)
from afflsim.rng import stream

# -- oracles: the scalar estimator and the product per coalition ------------


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


def subsets_of(ids, members):
    """The coalitions of membership rows, as ascending id tuples."""
    return [tuple(sorted(ids[j] for j in np.flatnonzero(row))) for row in members]


def rows_of(ids, subsets):
    """Membership rows over ids of id subsets."""
    members = np.zeros((len(subsets), len(ids)), dtype=bool)
    for row, subset in zip(members, subsets):
        row[[ids.index(i) for i in subset]] = True
    return members


def reference_values(variants, base, validation, members):
    """The product, one coalition at a time: each block of COALITION_BLOCK
    non-empty rows is (rows / sizes) @ stacked, and each mean is evaluated
    on its own; an empty row is worth base."""
    arch, stacked = _stack_variants(variants)
    values = [evaluate(base, validation)[1]] * len(members)
    filled = [k for k, row in enumerate(members) if row.any()]
    for start in range(0, len(filled), COALITION_BLOCK):
        block = filled[start : start + COALITION_BLOCK]
        rows = members[block]
        thetas = (rows / rows.sum(axis=1, keepdims=True)) @ stacked
        for k, theta in zip(block, thetas):
            values[k] = evaluate(ModelParams(arch, theta), validation)[1]
    return values


def assert_means_near_aggregate(variants, members):
    """The product's coalition means are aggregate_messengers' to a few ulp."""
    _, stacked = _stack_variants(variants)
    for row in members:
        if row.any():
            picked = [v for v, member in zip(variants, row) if member]
            uniform = np.full(len(picked), 1.0 / len(picked))
            want = aggregate_messengers(picked, uniform).theta
            got = (row[None, :] / row.sum()) @ stacked
            np.testing.assert_allclose(got[0], want, rtol=1e-13, atol=1e-15)


class Recorder:
    """A value_fn over a random table of id subsets; records every call."""

    def __init__(self, seed, ids):
        self.seed = seed
        self.ids = list(ids)
        self.calls = []

    def value(self, subset):
        assert list(subset) == sorted(subset)
        return float(stream(self.seed, "value-table", subset).uniform(-1.0, 1.0))

    def __call__(self, members):
        assert members.dtype == bool and members.shape[1] == len(self.ids)
        subsets = subsets_of(self.ids, members)
        self.calls.append(subsets)
        return np.array([self.value(subset) for subset in subsets])


# -- shapley_estimate --------------------------------------------------------

UNSORTED_IDS = [41, 7, 19, 3, 88, 12, 60, 5, 33, 21]


@pytest.mark.parametrize("n", [1, 2, 5, EXACT_MAX_CLIENTS])
@pytest.mark.parametrize("table", [0, 1])
def test_exact_mode_matches_scalar_oracle(n, table):
    ids = UNSORTED_IDS[:n]
    fn = Recorder(table, ids)
    phi = shapley_estimate(ids, fn, mode="exact")
    assert np.array_equal(phi, reference_shapley_estimate(ids, fn.value, mode="exact"))
    assert len(fn.calls) == 1
    coalitions = fn.calls[0]
    assert len(coalitions) == 2**n
    # row `mask` holds the positions of mask's set bits
    for mask, subset in enumerate(coalitions):
        assert subset == tuple(sorted(ids[j] for j in range(n) if mask >> j & 1))


@pytest.mark.parametrize("n, perms", [(1, 3), (4, 1), (7, 40), (25, 20)])
@pytest.mark.parametrize("seed", [0, 9])
def test_monte_carlo_mode_matches_scalar_oracle(n, perms, seed):
    ids = UNSORTED_IDS[:n] if n <= len(UNSORTED_IDS) else list(range(300, 300 - 7 * n, -7))
    fn = Recorder(seed + 2, ids)
    phi = shapley_estimate(ids, fn, mode="monte_carlo", num_perms=perms, seed=seed)
    expected = reference_shapley_estimate(ids, fn.value, "monte_carlo", perms, seed)
    assert np.array_equal(phi, expected)
    assert len(fn.calls) == 1
    coalitions = fn.calls[0]
    assert len(set(coalitions)) == len(coalitions)
    assert coalitions[0] == ()


def test_monte_carlo_values_each_distinct_coalition_once_in_first_seen_order():
    ids = [30, 10, 20]
    fn = Recorder(4, ids)
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
    # [X | 1], column-major, as the kernels multiply it
    x = np.asfortranarray(np.column_stack([rng.normal(0.0, 1.0, (257, 6)), np.ones(257)]))
    layers = _layers(arch, thetas)
    for i in range(k):
        for stacked, single in zip(layers, _layers(arch, thetas[i])):
            assert np.shares_memory(stacked[i], thetas) and np.array_equal(stacked[i], single)
    w_first = layers[0].transpose(0, 2, 1)
    out = np.matmul(w_first, x.T)
    for i in range(k):
        assert np.array_equal(out[i], w_first[i] @ x.T)
    if hidden:
        h = rng.normal(0.0, 1.0, (k, hidden + 1, 257))
        h[:, -1] = 1.0
        w_second = layers[1].transpose(0, 2, 1)
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
    z = forward_stacked(arch, thetas, shard.design)
    assert z.shape == (len(thetas), classes, 301) and z.flags.c_contiguous
    accs = stacked_accuracy(arch, thetas, shard, {})
    for i, theta in enumerate(thetas):
        params = ModelParams(arch, theta.copy())
        assert np.array_equal(z[i], logits(params, shard.design).T)
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


def random_members(n, count, seed):
    """count non-empty membership rows over n positions."""
    rng = stream(seed, "coalitions", count)
    members = np.zeros((count, n), dtype=bool)
    for row in members:
        row[rng.choice(n, int(rng.integers(1, n + 1)), replace=False)] = True
    return members


@pytest.mark.parametrize("hidden", [0, 2, 8])
@pytest.mark.parametrize("classes", [2, 3, 4])
@pytest.mark.parametrize("count", [1, 63, 64, 65, 129])
def test_coalition_values_match_the_product_oracle(hidden, classes, count):
    cohort = [17, 2, 40, 9, 31, 5, 26, 11]  # unsorted, non-contiguous
    variants, base, validation = make_round(hidden, classes, cohort)
    snapshots = [v.theta.copy() for v in variants]
    value_fn = coalition_value_fn(cohort, variants, base, validation)
    members = random_members(len(cohort), count, hidden * 10 + classes)
    snapshot = members.copy()
    values = value_fn(members)
    assert values.shape == (count,)
    assert count == 1 or len(set(values)) > 1
    assert list(values) == reference_values(variants, base, validation, members)
    assert_means_near_aggregate(variants, members)
    assert all(np.array_equal(v.theta, s) for v, s in zip(variants, snapshots))
    assert np.array_equal(members, snapshot)


def test_empty_coalitions_anywhere_in_the_matrix_are_worth_the_base_model():
    cohort = [3, 1, 4]
    variants, base, validation = make_round(2, 3, cohort)
    value_fn = coalition_value_fn(cohort, variants, base, validation)
    members = rows_of(cohort, [(1, 3), (), (1, 3, 4), (), (4,)])
    values = value_fn(members)
    assert list(values) == reference_values(variants, base, validation, members)
    assert list(value_fn(np.zeros((1, 3), dtype=bool))) == [evaluate(base, validation)[1]]
    assert len(value_fn(np.zeros((0, 3), dtype=bool))) == 0


@pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
def test_batched_round_valuation_matches_the_scalar_path(mode):
    cohort = [12, 4, 30, 8, 21, 15]
    variants, base, validation = make_round(8, 4, cohort)
    value_fn = coalition_value_fn(cohort, variants, base, validation)
    calls = []

    def recorded(members):
        calls.append(members.copy())
        return value_fn(members)

    phi = shapley_estimate(cohort, recorded, mode, 40, 3)
    # the scalar estimator over the values of the coalitions as batched
    (members,) = calls
    table = dict(
        zip(subsets_of(cohort, members), reference_values(variants, base, validation, members))
    )
    expected = reference_shapley_estimate(cohort, table.__getitem__, mode, 40, 3)
    assert np.array_equal(phi, expected)
