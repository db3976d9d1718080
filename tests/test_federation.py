"""Federation generation: sample ranges, label skew, determinism."""

import numpy as np
import pytest

from afflsim.config import FederationBlock
from afflsim.federation import (
    SAMPLE_RANGES,
    DatasetShard,
    gen_federation,
    gen_reference_shard,
    pooled_label_distribution,
)

TWELVE = {"academic": 2, "regional": 4, "rural": 6}


def test_twelve_institution_ranges_seed_7():
    profiles, shards = gen_federation(FederationBlock(**TWELVE), seed=7)
    assert len(profiles) == 12
    for profile, shard in zip(profiles, shards):
        assert shard.sample_count == profile.sample_count
        lo, hi = SAMPLE_RANGES[profile.institution_class]
        assert lo <= profile.sample_count <= hi
    assert all(p.sample_count >= 10_000 for p in profiles if p.institution_class == "academic")
    assert all(
        500 <= p.sample_count <= 2_000 for p in profiles if p.institution_class == "rural"
    )


def test_dirichlet_limit_is_uniform():
    config = FederationBlock(academic=3, regional=0, rural=0, num_classes=4, concentration=1e6)
    _, shards = gen_federation(config, seed=3)
    for shard in shards:
        hist = shard.label_histogram()
        assert np.abs(hist - 0.25).max() < 0.02


def test_generation_is_byte_identical():
    config = FederationBlock(academic=0, regional=2, rural=3)
    p1, s1 = gen_federation(config, seed=11)
    p2, s2 = gen_federation(config, seed=11)
    assert p1 == p2
    for a, b in zip(s1, s2):
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()


def test_different_seeds_differ():
    config = FederationBlock(academic=0, regional=0, rural=2)
    _, s1 = gen_federation(config, seed=1)
    _, s2 = gen_federation(config, seed=2)
    assert s1[0].features.tobytes() != s2[0].features.tobytes()


def test_ranges_hold_over_seed_sweep():
    config = FederationBlock(academic=1, regional=1, rural=1)
    for seed in range(100):
        profiles, _ = gen_federation(config, seed)
        for p in profiles:
            lo, hi = SAMPLE_RANGES[p.institution_class]
            assert lo <= p.sample_count <= hi


def test_zero_clients_rejected():
    with pytest.raises(ValueError):
        FederationBlock(academic=0, regional=0, rural=0)


def test_nonpositive_concentration_rejected():
    with pytest.raises(ValueError):
        FederationBlock(academic=0, regional=0, rural=1, concentration=0.0)


def test_modality_blocks_cover_columns():
    config = FederationBlock(
        academic=0, regional=0, rural=2, feature_dim=12, num_modalities=3
    )
    blocks = config.modality_blocks()
    assert [m for m, _ in blocks] == [0, 1, 2]
    edges = [0] + [stop for _, (_, stop) in blocks]
    assert [start for _, (start, _) in blocks] == edges[:-1]
    assert edges[-1] == 12


def test_missing_modalities_zero_their_columns():
    config = FederationBlock(
        academic=0,
        regional=0,
        rural=1,
        feature_dim=12,
        num_modalities=3,
        modalities_by_class={"rural": (0,)},
    )
    profiles, shards = gen_federation(config, seed=5)
    assert profiles[0].modalities == (0,)
    columns = {m: slice(start, stop) for m, (start, stop) in config.modality_blocks()}
    features = shards[0].features
    assert np.all(features[:, columns[1]] == 0)
    assert np.all(features[:, columns[2]] == 0)
    assert np.any(features[:, columns[0]] != 0)


def test_shard_invariants_enforced():
    with pytest.raises(ValueError):
        DatasetShard(np.zeros((3, 2)), np.array([0, 1, 5]), num_classes=3)


def test_reference_shard_uniform_and_deterministic():
    config = FederationBlock(academic=0, regional=0, rural=1, num_classes=4)
    val1 = gen_reference_shard(config, 7, 400, "validation")
    val2 = gen_reference_shard(config, 7, 400, "validation")
    probe = gen_reference_shard(config, 7, 400, "probe")
    assert val1.features.tobytes() == val2.features.tobytes()
    assert val1.features.tobytes() != probe.features.tobytes()
    assert np.abs(val1.label_histogram() - 0.25).max() < 0.1


def test_pooled_distribution_weighted_by_size():
    a = DatasetShard(np.zeros((3, 2)), np.array([0, 0, 0]), 2)
    b = DatasetShard(np.zeros((1, 2)), np.array([1]), 2)
    pooled = pooled_label_distribution([a, b])
    assert pooled == pytest.approx([0.75, 0.25])
