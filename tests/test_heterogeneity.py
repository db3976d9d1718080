"""Divergence components and the heterogeneity index."""

import numpy as np
import pytest

from afflsim.config import ProtocolBlock
from afflsim.federation import ClientProfile, DatasetShard
from afflsim.heterogeneity import (
    arch_divergence,
    assess_cohort,
    descriptor_divergence,
    descriptor_divergences,
    heterogeneity_index,
    res_divergence,
    stat_divergence,
)
from afflsim.models import Arch
from afflsim.rng import stream

EQUAL_WEIGHTS = (1 / 3, 1 / 3, 1 / 3)  # het_alpha, het_beta, het_gamma


def shard_with_labels(labels, num_classes):
    labels = np.asarray(labels)
    return DatasetShard(np.zeros((len(labels), 2)), labels, num_classes)


def profile(pid, capacity=2.0, delay=1.0, hidden=8, cls="rural", samples=1000):
    return ClientProfile(
        id=pid,
        institution_class=cls,
        sample_count=samples,
        compute_capacity=capacity,
        network_delay=delay,
        modalities=(0,),
        honesty="honest",
        arch=Arch(4, 3, hidden),
    )


def reference_jsd(p, q):
    """Direct JSD formula, natural log."""
    p, q = np.asarray(p, float), np.asarray(q, float)
    m = (p + q) / 2

    def kl(a, b):
        mask = a > 0
        return np.sum(a[mask] * np.log(a[mask] / b[mask]))

    return 0.5 * kl(p, m) + 0.5 * kl(q, m)


def test_stat_divergence_identical_is_zero():
    shard = shard_with_labels([0, 0, 1, 1], 2)
    assert stat_divergence(shard, np.array([0.5, 0.5])) == 0.0


def test_stat_divergence_disjoint_is_one():
    shard = shard_with_labels([0, 0, 0], 2)
    assert stat_divergence(shard, np.array([0.0, 1.0])) == pytest.approx(1.0)


def test_stat_divergence_half_vs_point_mass():
    shard = shard_with_labels([0, 1], 2)
    value = stat_divergence(shard, np.array([1.0, 0.0]))
    assert value == pytest.approx(0.3113, abs=1e-3)
    assert value == pytest.approx(reference_jsd([0.5, 0.5], [1.0, 0.0]) / np.log(2), abs=1e-12)


def test_stat_divergence_validates_inputs():
    shard = shard_with_labels([0, 1], 2)
    with pytest.raises(ValueError):
        stat_divergence(shard, np.array([0.9, 0.2]))
    empty = DatasetShard(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
    with pytest.raises(ValueError):
        stat_divergence(empty, np.array([0.5, 0.5]))


def test_arch_divergence_homogeneous_population():
    pop = [profile(i, hidden=8) for i in range(4)]
    assert all(arch_divergence(p, pop) == 0.0 for p in pop)


def test_descriptor_divergence_two_client_example():
    vectors = np.array([[1.0, 8.0, 100.0], [2.0, 16.0, 300.0]])
    assert descriptor_divergence(vectors, 0) == pytest.approx(1.0)
    assert descriptor_divergence(vectors, 1) == pytest.approx(1.0)


def test_descriptor_divergence_rescaling_invariance():
    rng = stream(0, "rescale")
    vectors = rng.uniform(1, 5, (6, 3))
    base = [descriptor_divergence(vectors, i) for i in range(6)]
    scaled = vectors.copy()
    scaled[:, 1] *= 37.0
    rescaled = [descriptor_divergence(scaled, i) for i in range(6)]
    assert base == pytest.approx(rescaled, abs=1e-12)


def loop_divergence(vectors, index):
    """Reference: the per-pair loop, one scaled L1 distance per peer."""
    ranges = vectors.max(axis=0) - vectors.min(axis=0)
    informative = ranges > 0
    peers = [i for i in range(len(vectors)) if i != index]
    if not peers:
        return 0.0
    dists = []
    for j in peers:
        if not informative.any():
            dists.append(0.0)
            continue
        diffs = np.abs(vectors[index][informative] - vectors[j][informative]) / ranges[informative]
        dists.append(float(diffs.mean()))
    return float(np.mean(dists))


def assert_matches_loop(vectors):
    got = descriptor_divergences(vectors)
    assert got.shape == (len(vectors),)
    for i in range(len(vectors)):
        assert got[i] == loop_divergence(vectors, i)
        assert descriptor_divergence(vectors, i) == loop_divergence(vectors, i)


@pytest.mark.parametrize("n", [1, 2, 3, 9, 40, 160])
def test_descriptor_divergences_equal_per_pair_loop(n):
    rng = stream(n, "divergence-oracle")
    for cols in (2, 3):
        assert_matches_loop(rng.uniform(-3.0, 50.0, (n, cols)))
    # integer-valued descriptors with repeats, as arch descriptors are
    assert_matches_loop(rng.integers(0, 4, (n, 3)).astype(np.float64))


def test_descriptor_divergences_skip_zero_range_coordinates():
    rng = stream(2, "divergence-zero-range")
    vectors = rng.uniform(0.0, 1.0, (12, 3))
    vectors[:, 1] = 4.0
    assert_matches_loop(vectors)
    assert np.array_equal(descriptor_divergences(vectors), descriptor_divergences(vectors[:, [0, 2]]))


def test_descriptor_divergences_all_constant_and_tiny_cohorts():
    assert np.array_equal(descriptor_divergences(np.full((5, 3), 2.5)), np.zeros(5))
    assert np.array_equal(descriptor_divergences(np.array([[1.0, 2.0]])), np.zeros(1))
    pair = np.array([[1.0, 8.0, 100.0], [2.0, 8.0, 300.0]])
    assert np.array_equal(descriptor_divergences(pair), np.ones(2))
    assert_matches_loop(pair)


def test_assess_cohort_equals_per_client_composition():
    rng = stream(3, "assess-oracle")
    cohort = [
        profile(
            i,
            capacity=float(rng.uniform(0.1, 100.0)),
            delay=float(rng.uniform(1.0, 8.0)),
            hidden=int(rng.choice([0, 8, 16, 32])),
        )
        for i in range(40)
    ]
    shards = [shard_with_labels(rng.integers(0, 3, 20), 3) for _ in cohort]
    dist = np.array([0.2, 0.3, 0.5])
    arch = np.array([p.arch_descriptor for p in cohort], dtype=np.float64)
    res = np.array([[np.log(p.compute_capacity), p.network_delay] for p in cohort])
    report = assess_cohort(shards, cohort, dist, EQUAL_WEIGHTS)
    expected = [
        (stat_divergence(s, dist), loop_divergence(arch, i), loop_divergence(res, i))
        for i, s in enumerate(shards)
    ]
    assert report.per_client == tuple(expected)
    assert report.h_t == heterogeneity_index(expected, EQUAL_WEIGHTS).h_t


def test_res_divergence_identical_resources():
    pop = [profile(i, capacity=3.0, delay=1.5) for i in range(3)]
    assert all(res_divergence(p, pop) == 0.0 for p in pop)


def test_res_divergence_log_spaced_capacities():
    # capacities 1, 10, 100 are equally spaced in log; delays identical, so
    # the delay coordinate is uninformative and the middle client sits at 0.5
    pop = [
        profile(0, capacity=1.0, delay=1.0),
        profile(1, capacity=10.0, delay=1.0),
        profile(2, capacity=100.0, delay=1.0),
    ]
    assert res_divergence(pop[1], pop) == pytest.approx(0.5)
    assert res_divergence(pop[0], pop) == pytest.approx(0.75)


def test_res_divergence_bounded_over_random_populations():
    rng = stream(1, "res-sweep")
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        pop = [
            profile(
                i,
                capacity=float(rng.uniform(0.1, 1000.0)),
                delay=float(rng.uniform(1.0, 8.0)),
            )
            for i in range(n)
        ]
        for p in pop:
            assert 0.0 <= res_divergence(p, pop) <= 1.0


def test_index_all_zero_and_all_one():
    weights = EQUAL_WEIGHTS
    assert heterogeneity_index([(0, 0, 0)] * 3, weights).h_t == 0.0
    assert heterogeneity_index([(1, 1, 1)] * 3, weights).h_t == pytest.approx(1.0)


def test_index_hand_example():
    weights = EQUAL_WEIGHTS
    report = heterogeneity_index([(0.2, 0.4, 0.6), (0.8, 0.6, 0.4)], weights)
    assert report.h_t == pytest.approx(0.5)


def test_index_monotone_in_components():
    weights = (0.5, 0.3, 0.2)
    base = heterogeneity_index([(0.2, 0.3, 0.4), (0.1, 0.1, 0.1)], weights).h_t
    bumped = heterogeneity_index([(0.5, 0.3, 0.4), (0.1, 0.1, 0.1)], weights).h_t
    assert bumped >= base


def test_index_permutation_invariant():
    weights = EQUAL_WEIGHTS
    rows = [(0.2, 0.4, 0.6), (0.8, 0.6, 0.4), (0.1, 0.9, 0.5)]
    assert heterogeneity_index(rows, weights).h_t == pytest.approx(
        heterogeneity_index(rows[::-1], weights).h_t
    )


def test_index_bounds_over_random_inputs():
    rng = stream(2, "index-sweep")
    weights = EQUAL_WEIGHTS
    for _ in range(500):
        rows = rng.uniform(0, 1, (int(rng.integers(1, 8)), 3))
        h = heterogeneity_index([tuple(r) for r in rows], weights).h_t
        assert 0.0 <= h <= 1.0


def test_index_rejects_empty_and_bad_weights():
    with pytest.raises(ValueError):
        heterogeneity_index([], EQUAL_WEIGHTS)
    with pytest.raises(ValueError):
        ProtocolBlock(het_alpha=0.5, het_beta=0.5, het_gamma=0.5)
