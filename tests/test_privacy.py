"""Clipping, Gaussian noise, accounting, and the membership-inference harness."""

import numpy as np
import pytest

from afflsim.config import FederationBlock
from afflsim.federation import DatasetShard, gen_reference_shard
from afflsim.models import Arch, init_params
from afflsim.privacy import (
    PrivacyParams,
    PrivacySpend,
    account_privacy,
    clip_update,
    mia_attack,
    noise_multiplier_for_budget,
    overfit_scenario,
    privatize,
)
from afflsim.rng import stream


def test_clip_inside_ball_unchanged():
    v = np.array([0.3, 0.4])  # norm 0.5
    out = clip_update(v, 1.0)
    assert np.array_equal(out, v)
    assert out is not v


def test_clip_outside_ball_scaled_to_norm():
    rng = stream(0, "clip")
    v = rng.normal(0, 1, 30)
    v = v / np.linalg.norm(v) * 2.0
    out = clip_update(v, 1.0)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)
    assert out == pytest.approx(v / 2.0)


def test_clip_zero_vector_and_guards():
    assert np.array_equal(clip_update(np.zeros(4), 0.7), np.zeros(4))
    with pytest.raises(ValueError):
        clip_update(np.array([np.inf, 0.0]), 1.0)
    with pytest.raises(ValueError):
        clip_update(np.zeros(2), 0.0)


def test_privatize_zero_multiplier_is_clip():
    params = PrivacyParams(clip_norm=0.5, noise_multiplier=0.0, enabled=True)
    v = np.array([3.0, 4.0])
    assert privatize(v, params, 0) == pytest.approx(clip_update(v, 0.5))


def test_privatize_noise_statistics():
    params = PrivacyParams(clip_norm=2.0, noise_multiplier=0.8, enabled=True)
    sigma = 0.8 * 2.0
    v = stream(1, "base").normal(0, 0.01, 10_000)
    noisy = privatize(v, params, seed=42)
    noise = noisy - clip_update(v, 2.0)
    assert np.std(noise) == pytest.approx(sigma, rel=0.03)
    assert abs(np.mean(noise)) < 4 * sigma / np.sqrt(10_000)


def test_privatize_deterministic_per_seed():
    params = PrivacyParams(clip_norm=1.0, noise_multiplier=1.0, enabled=True)
    v = np.ones(8)
    assert np.array_equal(privatize(v, params, 5), privatize(v, params, 5))
    assert not np.array_equal(privatize(v, params, 5), privatize(v, params, 6))


def test_privatize_requires_enabled():
    with pytest.raises(ValueError):
        privatize(np.ones(3), PrivacyParams(enabled=False), 0)


def test_account_zero_rounds():
    params = PrivacyParams(noise_multiplier=1.0, enabled=True)
    spend = account_privacy(0, params)
    assert spend.total_eps == 0.0
    assert spend.rounds_counted == 0


def test_account_round_trip_inversion():
    delta = 1e-5
    nm = np.sqrt(2 * np.log(1.25 / delta)) / 0.1
    params = PrivacyParams(noise_multiplier=nm, delta=delta, enabled=True)
    spend = account_privacy(1, params)
    assert spend.per_round_eps == pytest.approx(0.1, abs=1e-12)


def test_default_budget_25_rounds_within_2_3():
    nm = noise_multiplier_for_budget(2.3, 25, 1e-5)
    params = PrivacyParams(noise_multiplier=nm, delta=1e-5, enabled=True)
    spend = account_privacy(25, params)
    assert spend.total_eps <= 2.3 + 1e-12
    assert spend.total_eps == pytest.approx(2.3, abs=1e-9)


def test_account_monotonicity():
    params_lo = PrivacyParams(noise_multiplier=1.0, enabled=True)
    params_hi = PrivacyParams(noise_multiplier=2.0, enabled=True)
    assert account_privacy(10, params_lo).total_eps >= account_privacy(5, params_lo).total_eps
    assert account_privacy(10, params_hi).total_eps <= account_privacy(10, params_lo).total_eps
    with pytest.raises(ValueError):
        account_privacy(5, PrivacyParams(noise_multiplier=0.0, enabled=True))


def test_spend_invariant():
    with pytest.raises(ValueError):
        PrivacySpend(per_round_eps=0.1, total_eps=0.5, rounds_counted=2)


def test_delta_warning():
    params = PrivacyParams(delta=0.01, enabled=True)
    with pytest.warns(UserWarning):
        params.check_delta(min_shard_size=500)


# -- membership inference ----------------------------------------------------


def shards_same_distribution(seed, n=200):
    config = FederationBlock(
        academic=0, regional=0, rural=1, num_classes=3, feature_dim=8, concentration=1e6
    )
    a = gen_reference_shard(config, seed, n, "mia-a")
    b = gen_reference_shard(config, seed, n, "mia-b")
    return a, b


def test_mia_chance_for_identical_distributions():
    member, nonmember = shards_same_distribution(2)
    model = init_params(Arch(8, 3, 4), 0)
    assert mia_attack(model, member, nonmember, seed=1) == pytest.approx(0.5, abs=0.05)


def test_mia_detects_overfit_model():
    assert overfit_scenario(seed=11) > 0.6


def test_mia_shuffled_membership_is_chance():
    # mixing member and non-member samples destroys the signal
    member, nonmember = shards_same_distribution(3)
    pool_feats = np.concatenate([member.features, nonmember.features])
    pool_labels = np.concatenate([member.labels, nonmember.labels])
    perm = stream(4, "shuffle").permutation(len(pool_labels))
    half = len(perm) // 2
    mixed_member = DatasetShard(pool_feats[perm[:half]], pool_labels[perm[:half]], 3)
    mixed_nonmember = DatasetShard(pool_feats[perm[half:]], pool_labels[perm[half:]], 3)
    from afflsim.models import train_local

    model = train_local(init_params(Arch(8, 3, 16), 0), member, steps=300, lr=0.5)
    score = mia_attack(model, mixed_member, mixed_nonmember, seed=5)
    assert score == pytest.approx(0.5, abs=0.08)


def test_mia_balanced_query_set_required():
    member, nonmember = shards_same_distribution(6, n=50)
    short = DatasetShard(nonmember.features[:40], nonmember.labels[:40], 3)
    with pytest.raises(ValueError):
        mia_attack(init_params(Arch(8, 3, 0), 0), member, short, seed=0)


def test_privacy_lowers_mia_over_ten_seeds():
    nm = noise_multiplier_for_budget(2.3, 25, 1e-5)
    dp = PrivacyParams(clip_norm=0.5, noise_multiplier=nm, delta=1e-5, enabled=True)
    deltas = []
    for seed in range(10):
        clear = overfit_scenario(seed=seed)
        private = overfit_scenario(seed=seed, params=dp)
        deltas.append(clear - private)
    deltas = np.array(deltas)
    # strict reduction on every seed is the cleanest "statistical test" here:
    # sign test at p < 0.001 (2^-10) if all ten go the same way
    assert np.all(deltas > 0)
