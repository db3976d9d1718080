"""Model math: gradients vs finite differences, evaluation, difficulty tiers."""

import numpy as np
import pytest

from afflsim.config import config_from_dict, preset_smoke
from afflsim.federation import DatasetShard
from afflsim.harness import init_state
from afflsim.models import (
    Arch,
    ModelParams,
    _argmax_is_label,
    _ce_step,
    _label_index,
    accuracy,
    assign_difficulty_tiers,
    backprop,
    cross_entropy,
    evaluate,
    forward,
    forward_stacked,
    init_params,
    logits,
    pooled_cross_entropy,
    safe_log,
    softmax,
    stacked_accuracy,
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
    _, grad = _ce_step(params, shard.features, _label_index(shard.labels), None)
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


def stacked(shards):
    """One shard holding the rows of every shard, in order."""
    return DatasetShard(
        np.concatenate([s.features for s in shards]),
        np.concatenate([s.labels for s in shards]),
        shards[0].num_classes,
    )


@pytest.mark.parametrize("hidden", [0, 8])
def test_pooled_cross_entropy_is_the_row_weighted_mean(hidden):
    small = small_shard(seed=5, n=3, classes=4, separation=0.5)
    large = small_shard(seed=6, n=300, classes=4, separation=3.0)
    params = init_params(Arch(6, 4, hidden), seed=5)
    pooled = stacked([small, large])
    reference = cross_entropy(softmax(logits(params, pooled.features)), pooled.labels)
    loss = pooled_cross_entropy(params, [small, large])
    assert loss == pytest.approx(reference, rel=1e-15, abs=0.0)
    mean_of_means = (evaluate(params, small)[0] + evaluate(params, large)[0]) / 2
    assert abs(loss - mean_of_means) > 1e-3


def test_pooled_cross_entropy_bit_identical_on_smoke_shards():
    """On shards this small both paths take the same BLAS kernel, so the bits agree."""
    state = init_state(config_from_dict(preset_smoke(7)))
    pooled = stacked(state.shards)
    for model in (state.messenger, state.client_params[0]):
        reference = cross_entropy(softmax(logits(model, pooled.features)), pooled.labels)
        assert pooled_cross_entropy(model, state.shards) == reference


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
    """Softmax of the rows of z, on a C-contiguous (C, n) transpose, reduced down axis 0."""
    e = np.exp(np.ascontiguousarray(z.T) - z.T.max(axis=0))
    return (e / e.sum(axis=0)).T


def column_major_normals(seed, rows, classes, scale):
    return np.asfortranarray(stream(rows, seed, classes).normal(0.0, scale, (rows, classes)))


@pytest.mark.parametrize("classes", range(2, 10))
@pytest.mark.parametrize("rows", [1, 2, 31, 32, 33, 1280, 12000])
def test_softmax_bit_identical_to_reference(classes, rows):
    z = column_major_normals("softmax", rows, classes, 4.0)
    snapshot = z.copy()
    out = softmax(z)
    assert out.flags.f_contiguous
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
    z = np.asfortranarray(rng.choice([-700.0, 0.0, 700.0], size=(rows, classes)))
    z[::4] = 700.0  # every entry ties for the max
    z[1::4, :2] = 699.5  # two-way tie below a larger max elsewhere in the row
    z[1::4, -1] = 700.0
    z[2::4] = -700.0
    snapshot = z.copy()
    out = softmax(z)
    assert np.array_equal(out, reference_softmax(z))
    assert np.all(np.isfinite(out))
    assert np.array_equal(z, snapshot)


# -- column-major layout ------------------------------------------------------


def test_shard_features_are_column_major_and_held_once():
    shard = small_shard(n=30)
    assert shard.features.flags.f_contiguous
    tiered = shard.with_tiers(np.arange(30) % 2, 2)
    flipped = tiered.with_labels((tiered.labels + 1) % 3)
    for derived in (tiered, flipped):
        assert derived.features is shard.features
    fused = shard.with_features(np.ascontiguousarray(shard.features[:, :4]))
    assert fused.features.flags.f_contiguous
    assert fused.features.shape == (30, 4)


@pytest.mark.parametrize("hidden", [0, 8])
def test_kernels_are_correct_on_row_major_inputs(hidden):
    """The kernels take inputs of any layout; only the rounding may move."""
    shard = small_shard(seed=3, n=257, classes=4)
    params = init_params(Arch(6, 4, hidden), seed=3)
    row_major = np.ascontiguousarray(shard.features)
    assert not row_major.flags.f_contiguous
    z, h = forward(params, shard.features)
    z_c, _ = forward(params, row_major)
    np.testing.assert_allclose(z_c, z, rtol=1e-12, atol=1e-12)
    p = softmax(z)
    p_c = softmax(np.ascontiguousarray(z))
    np.testing.assert_allclose(p_c, p, rtol=1e-12, atol=1e-15)
    delta = (p - np.eye(4)[shard.labels]) / 257
    grad = backprop(params, shard.features, delta, h)
    h_c = None if h is None else np.ascontiguousarray(h)
    grad_c = backprop(params, row_major, np.ascontiguousarray(delta), h_c)
    np.testing.assert_allclose(grad_c, grad, rtol=1e-12, atol=1e-12)
    trained = train_local(params, shard, 5, 0.5)
    at_label = _label_index(shard.labels)
    np.testing.assert_allclose(
        _ce_step(trained, row_major, at_label, None)[1],
        _ce_step(trained, shard.features, at_label, None)[1],
        rtol=1e-12, atol=1e-12,
    )


def test_workspace_serves_shorter_shards_from_its_leading_rows():
    large = small_shard(seed=7, n=300, classes=4)
    small = small_shard(seed=8, n=37, classes=4)
    params = init_params(Arch(6, 4, 8), seed=7)
    ws = {}
    forward(params, large.features, ws)
    buffers = {name: buf for name, buf in ws.items()}
    z, h = forward(params, small.features, ws)
    assert all(ws[name] is buf for name, buf in buffers.items())
    assert np.shares_memory(z, buffers["logits"]) and z.shape == (37, 4)
    z_fresh, h_fresh = forward(params, small.features)
    assert np.array_equal(z, z_fresh) and np.array_equal(h, h_fresh)
    assert np.array_equal(softmax(z, ws), softmax(z_fresh))


def test_pooled_cross_entropy_equals_fresh_forwards_per_shard():
    """The largest shard runs first; the others, on the leading rows of its
    buffers, give the bits of a fresh forward."""
    shards = [small_shard(seed=s, n=n, classes=4) for s, n in ((1, 40), (2, 300), (3, 41))]
    params = init_params(Arch(6, 4, 8), seed=9)
    picked = [
        softmax(logits(params, s.features))[np.arange(len(s.labels)), s.labels] for s in shards
    ]
    fresh = float(-np.mean(safe_log(np.concatenate(picked))))
    assert pooled_cross_entropy(params, shards) == fresh


def argmax_cases():
    """Class-major logits (k, C, n) with ties, infinities and NaNs."""
    rng = stream(11, "argmax-cases")
    values = np.array([-np.inf, -1.0, 0.0, -0.0, 1.0, 2.0, np.inf, np.nan])
    for classes in (2, 3, 4, 9):
        yield rng.choice(values, size=(5, classes, 400))
        yield rng.normal(0.0, 1.0, (5, classes, 400))


@pytest.mark.parametrize("z", list(argmax_cases()), ids=lambda z: f"C{z.shape[1]}")
def test_argmax_is_label_equals_numpy_argmax(z):
    labels = stream(z.shape[1], "argmax-labels").integers(0, z.shape[1], z.shape[2])
    want = np.argmax(z, axis=1) == labels
    assert np.array_equal(_argmax_is_label(z, labels), want)
    assert accuracy(z[0].T, labels) == float(np.mean(want[0]))


def test_stacked_accuracy_ties_and_non_finite_logits_match_argmax():
    arch = Arch(3, 3, 0)
    thetas = np.zeros((5, arch.param_count))  # zero weights: the logits are the biases
    thetas[1, -3:] = [0.0, 1.0, 1.0]  # classes 1 and 2 tie: the first wins
    thetas[2, -3:] = [-np.inf, -np.inf, 0.0]
    thetas[3, -3:] = [0.0, np.nan, np.inf]  # the first NaN is the maximum
    thetas[4, -3:] = [np.inf, 0.0, np.nan]  # a NaN beats an earlier inf
    features = stream(12, "stacked-ties").normal(0.0, 1.0, (50, 3))
    shard = DatasetShard(features, np.repeat([0, 1, 2], [10, 15, 25]), 3)
    z = forward_stacked(arch, thetas, shard.features)
    want = np.mean(np.argmax(z, axis=1) == shard.labels, axis=-1)
    assert np.array_equal(stacked_accuracy(arch, thetas, shard), want)
    assert want.tolist() == [10 / 50, 15 / 50, 25 / 50, 15 / 50, 25 / 50]
