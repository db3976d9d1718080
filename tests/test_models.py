"""Model math: gradients vs finite differences, evaluation, difficulty tiers."""

import numpy as np
import pytest

from afflsim.federation import DatasetShard
from afflsim.models import (
    Arch,
    ModelParams,
    _ce_step,
    _label_index,
    assign_difficulty_tiers,
    cross_entropy,
    evaluate,
    init_params,
    logits,
    safe_log,
    softmax,
    train_local,
)
from afflsim.rng import stream


def small_shard(seed=0, n=40, d=6, classes=3, separation=2.0):
    rng = stream(seed, "test-shard")
    means = rng.normal(0, 1, (classes, d))
    means = means / np.linalg.norm(means, axis=1, keepdims=True) * separation
    labels = rng.integers(0, classes, n)
    feats = means[labels] + rng.normal(0, 1, (n, d))
    return DatasetShard(feats, labels, classes)


def fd_gradient(params, shard, coords, h=1e-5):
    """Central finite differences of the mean cross-entropy."""
    grads = []
    for c in coords:
        for sign in (+1, -1):
            theta = params.theta.copy()
            theta[c] += sign * h
            shifted = ModelParams(params.arch, theta)
            loss, _ = evaluate(shifted, shard)
            grads.append(loss if sign > 0 else -loss)
    pairs = np.array(grads).reshape(-1, 2)
    return (pairs[:, 0] + pairs[:, 1]) / (2 * h)


@pytest.mark.parametrize("hidden", [0, 8])
@pytest.mark.parametrize("point_seed", [1, 2, 3])
def test_gradients_match_finite_differences(hidden, point_seed):
    arch = Arch(6, 3, hidden)
    shard = small_shard()
    params = init_params(arch, point_seed)
    _, grad = _ce_step(params, shard.features, _label_index(shard.labels, 3), None)
    rng = stream(point_seed, "fd-coords")
    coords = rng.choice(arch.param_count, size=min(50, arch.param_count), replace=False)
    fd = fd_gradient(params, shard, coords)
    rel = np.abs(grad[coords] - fd) / np.maximum.reduce(
        [np.abs(grad[coords]), np.abs(fd), np.full_like(fd, 1e-6)]
    )
    assert rel.max() < 1e-4


def test_train_local_zero_steps_returns_unchanged():
    shard = small_shard()
    params = init_params(Arch(6, 3, 0), 0)
    out = train_local(params, shard, steps=0, lr=0.1)
    assert np.array_equal(out.theta, params.theta)
    assert out is not params


def test_train_local_reduces_loss_on_separable_task():
    rng = stream(5, "separable")
    n = 60
    labels = np.repeat([0, 1], n // 2)
    feats = np.where(labels[:, None] == 0, -2.0, 2.0) + 0.3 * rng.normal(0, 1, (n, 2))
    shard = DatasetShard(feats, labels, 2)
    params = init_params(Arch(2, 2, 0), 0)
    before, _ = evaluate(params, shard)
    after, _ = evaluate(train_local(params, shard, steps=200, lr=0.1), shard)
    assert after < before


def test_train_local_does_not_mutate_input():
    shard = small_shard()
    params = init_params(Arch(6, 3, 4), 0)
    snapshot = params.theta.copy()
    train_local(params, shard, steps=5, lr=0.2)
    assert np.array_equal(params.theta, snapshot)


def test_train_local_rejects_dim_mismatch():
    shard = small_shard(d=6)
    params = init_params(Arch(5, 3, 0), 0)
    with pytest.raises(ValueError):
        train_local(params, shard, steps=1, lr=0.1)


def test_evaluate_perfect_predictor():
    # one-hot features, W = 50*I: softmax is ~one-hot on the true class
    feats = np.eye(3)
    labels = np.array([0, 1, 2])
    shard = DatasetShard(feats, labels, 3)
    theta = np.zeros(Arch(3, 3, 0).param_count)
    theta[: 9] = (50.0 * np.eye(3)).ravel()
    params = ModelParams(Arch(3, 3, 0), theta)
    loss, acc = evaluate(params, shard)
    assert acc == 1.0
    assert loss == pytest.approx(0.0, abs=1e-8)


def test_evaluate_uniform_logits_four_classes():
    rng = stream(9, "balanced")
    labels = np.tile(np.arange(4), 25)
    feats = rng.normal(0, 1, (100, 5))
    shard = DatasetShard(feats, labels, 4)
    params = ModelParams(Arch(5, 4, 0), np.zeros(Arch(5, 4, 0).param_count))
    loss, acc = evaluate(params, shard)
    # zero weights: argmax ties resolve to class 0, which is exactly 1/4 here
    assert acc == pytest.approx(0.25)
    assert loss == pytest.approx(np.log(4.0), abs=1e-12)


def test_evaluate_matches_hand_computed_loss():
    # logits are the features themselves (W = I, b = 0)
    feats = np.array([[1.0, 0.0], [0.0, 2.0], [0.5, 0.5]])
    labels = np.array([0, 1, 0])
    shard = DatasetShard(feats, labels, 2)
    theta = np.zeros(6)
    theta[:4] = np.eye(2).ravel()
    params = ModelParams(Arch(2, 2, 0), theta)
    # per-sample CE: -log softmax(z)[y]
    hand = -(
        np.log(np.exp(1.0) / (np.exp(1.0) + 1.0))
        + np.log(np.exp(2.0) / (np.exp(2.0) + 1.0))
        + np.log(0.5)
    ) / 3.0
    loss, _ = evaluate(params, shard)
    assert loss == pytest.approx(hand, abs=1e-12)


def test_safe_log_floors_zero_with_the_inline_bits():
    p = np.array([0.0, 1e-320, 1e-300, 0.25, 1.0])
    out = safe_log(p)
    assert np.isfinite(out).all()
    assert out[0] == out[1] == np.log(1e-300)
    assert np.array_equal(out, np.log(np.maximum(p, 1e-300)))


def test_cross_entropy_is_the_loss_evaluate_reports():
    shard = small_shard(seed=4, n=57, classes=4)
    params = init_params(Arch(6, 4, 8), seed=4)
    p = softmax(logits(params, shard.features))
    picked = p[np.arange(shard.labels.shape[0]), shard.labels]
    fancy = float(-np.mean(np.log(np.maximum(picked, 1e-300))))
    loss = cross_entropy(p, shard.labels)
    assert loss == fancy
    assert loss == evaluate(params, shard)[0]


def test_evaluate_rejects_empty_shard():
    shard = DatasetShard(np.zeros((0, 3)), np.zeros(0, dtype=int), 2)
    with pytest.raises(ValueError):
        evaluate(init_params(Arch(3, 2, 0), 0), shard)


def test_tiers_single_tier():
    shard = small_shard(n=10)
    tiered = assign_difficulty_tiers(shard, init_params(Arch(6, 3, 0), 0), 1)
    assert np.array_equal(tiered.difficulty_tiers, np.zeros(10, dtype=int))


def test_tiers_rank_by_confidence():
    # scalar feature drives p(class 0); all labels are class 0
    conf = np.array([0.9, 0.1, 0.8, 0.2])
    feats = np.log(conf / (1 - conf))[:, None]
    shard = DatasetShard(feats, np.zeros(4, dtype=int), 2)
    theta = np.array([1.0, 0.0, 0.0, 0.0])  # W = [[1, 0]], b = 0
    warmup = ModelParams(Arch(1, 2, 0), theta)
    p = softmax(logits(warmup, feats))
    assert p[:, 0] == pytest.approx(conf, abs=1e-12)
    tiered = assign_difficulty_tiers(shard, warmup, 2)
    assert tiered.difficulty_tiers.tolist() == [0, 1, 0, 1]


def test_tier_sizes_differ_by_at_most_one():
    shard = small_shard(n=41)
    tiered = assign_difficulty_tiers(shard, init_params(Arch(6, 3, 0), 1), 3)
    sizes = np.bincount(tiered.difficulty_tiers, minlength=3)
    assert sizes.max() - sizes.min() <= 1
    assert sizes.sum() == 41


def test_tiers_reject_more_tiers_than_samples():
    shard = small_shard(n=4)
    with pytest.raises(ValueError):
        assign_difficulty_tiers(shard, init_params(Arch(6, 3, 0), 0), 5)


def test_non_finite_loss_raises():
    shard = small_shard()
    theta = np.full(Arch(6, 3, 0).param_count, np.nan)
    params = ModelParams(Arch(6, 3, 0), theta)
    with pytest.raises(FloatingPointError):
        train_local(params, shard, steps=1, lr=0.1)


# -- softmax ---------------------------------------------------------------


def reference_softmax(z):
    """The row-wise softmax as first written: one max, exp and sum per row."""
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("classes", range(2, 10))
@pytest.mark.parametrize("rows", [1, 2, 31, 32, 33, 1280, 12000])
def test_softmax_bit_identical_to_reference(classes, rows):
    z = stream(rows, "softmax", classes).normal(0.0, 4.0, (rows, classes))
    snapshot = z.copy()
    out = softmax(z)
    assert np.array_equal(out, reference_softmax(z))
    assert np.array_equal(z, snapshot)  # input untouched


@pytest.mark.parametrize("classes", [2, 3, 4, 7, 8, 9])
def test_softmax_one_dim_is_single_row(classes):
    z = stream(0, "softmax-1d", classes).normal(0.0, 3.0, classes)
    snapshot = z.copy()
    out = softmax(z)
    assert out.shape == (classes,)
    assert np.array_equal(out, reference_softmax(z[None, :])[0])
    assert np.array_equal(z, snapshot)


@pytest.mark.parametrize("classes", range(2, 10))
def test_softmax_extreme_logits_and_tied_maxima(classes):
    rows = 64
    rng = stream(1, "softmax-extreme", classes)
    z = rng.choice([-700.0, 0.0, 700.0], size=(rows, classes))
    z[::4] = 700.0  # every entry ties for the max
    z[1::4, :2] = 699.5  # two-way tie below a larger max elsewhere in the row
    z[1::4, -1] = 700.0
    z[2::4] = -700.0
    snapshot = z.copy()
    out = softmax(z)
    assert np.array_equal(out, reference_softmax(z))
    assert np.all(np.isfinite(out))
    assert np.array_equal(z, snapshot)
