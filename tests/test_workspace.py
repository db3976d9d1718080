"""Workspace kernels and training calls against allocating expressions.

Each kernel and step loop writes its temporaries into a workspace that
one training call reuses on every step. The oracles below state each
kernel as allocating expressions on column-major inputs: products on the
(width, n) transposes, with every layer's bias riding in its [W; b]
against a ones column, softmax on the transposes, and every training
step's logit delta as softmax(z) * scale - target. Every comparison with
them is exact (bit for bit), because the golden run digests depend on
it. The textbook deltas, softmax - onehot, the KL term and the tier
weights, are checked against the training calls to 1e-12.
"""

import numpy as np
import pytest

from afflsim.federation import DatasetShard
from afflsim.messenger import (
    _distill_toward_teacher,
    _tier_sample_weights,
    distill_to_messenger,
    inject_knowledge,
    messenger_forward,
)
from afflsim.models import (
    Arch,
    _layers,
    backprop,
    forward,
    init_params,
    logits,
    softmax,
    train_local,
)
from afflsim.rng import stream


# -- oracles: the allocating expressions -------------------------------------


def column_major(a):
    return np.asfortranarray(a)


def ones_extended(a):
    """[a | 1], column-major."""
    return column_major(np.column_stack([a, np.ones(a.shape[0])]))


def reference_softmax(z):
    """Softmax of the rows of z, on a C-contiguous (C, n) transpose, reduced down axis 0."""
    e = np.exp(np.ascontiguousarray(z.T) - z.T.max(axis=0))
    return (e / e.sum(axis=0)).T


def reference_forward(params, features):
    """(logits, [H | 1] or None)."""
    x = ones_extended(features)
    if params.arch.hidden == 0:
        (wb,) = _layers(params.arch, params.theta)
        return (wb.T @ x.T).T, None
    w1, w2 = _layers(params.arch, params.theta)
    hidden_t = np.vstack([np.tanh(w1.T @ x.T), np.ones(x.shape[0])])
    return (w2.T @ hidden_t).T, hidden_t.T


def reference_backprop(params, features, out_delta, hidden):
    x = ones_extended(features)
    grad = np.empty_like(params.theta)
    layers = _layers(params.arch, grad)
    if params.arch.hidden == 0:
        layers[0][:] = x.T @ out_delta
        return grad
    h = params.arch.hidden
    w2 = _layers(params.arch, params.theta)[1][:h]
    layers[1][:] = hidden.T @ out_delta
    hid_delta = (w2 @ out_delta.T).T * (1.0 - hidden[:, :h] ** 2)
    layers[0][:] = x.T @ hid_delta
    return grad


def reference_step(params, features, scale, target):
    """One step's gradient, times the learning rate: delta = softmax(z) * scale - target."""
    z, hidden = reference_forward(params, features)
    e = np.exp(np.ascontiguousarray(z.T) - z.T.max(axis=0))
    delta = (e * (scale / e.sum(axis=0)) - target.T).T
    return reference_backprop(params, features, delta, hidden)


def reference_descend(params, features, steps, scale, target):
    current = params.copy()
    for _ in range(steps):
        current.theta -= reference_step(current, features, scale, target)
    return current


def onehot(shard):
    out = np.zeros((shard.sample_count, shard.num_classes))
    out[np.arange(shard.sample_count), shard.labels] = 1.0
    return out


def reference_train_local(params, shard, steps, lr):
    scale = lr / shard.sample_count
    return reference_descend(params, shard.features, steps, scale, onehot(shard) * scale)


def reference_inject_knowledge(client, messenger, shard, pi, steps, lr):
    scale = lr * _tier_sample_weights(shard, pi)
    p_m = reference_softmax(reference_forward(messenger, shard.features)[0])
    return reference_descend(client, shard.features, steps, scale, p_m * scale[:, None])


def reference_distill_to_messenger(messenger, client, shard, lambda_kl, steps, lr):
    per_row = lr / shard.sample_count
    p_c = reference_softmax(reference_forward(client, shard.features)[0])
    target = (p_c * lambda_kl + onehot(shard)) * per_row
    return reference_descend(
        messenger, shard.features, steps, per_row * (1.0 + lambda_kl), target
    )


def reference_distill_toward_teacher(params, features, teacher_probs, steps, lr):
    scale = lr / features.shape[0]
    return reference_descend(params, features, steps, scale, teacher_probs * scale)


def make_shard(n, d=10, classes=4, tiers=3, seed=0):
    rng = stream(seed, "workspace-shard", n, d, classes)
    means = rng.normal(0, 2, (classes, d))
    labels = rng.integers(0, classes, n)
    feats = means[labels] + rng.normal(0, 1, (n, d))
    shard = DatasetShard(feats, labels, classes)
    return shard.with_tiers(np.arange(n) % tiers, tiers)


# -- kernels -----------------------------------------------------------------


@pytest.mark.parametrize("hidden", [0, 24])
@pytest.mark.parametrize("n", [1, 37, 12000])
def test_forward_bit_identical_with_and_without_workspace(hidden, n):
    shard = make_shard(n)
    params = init_params(Arch(10, 4, hidden), 1)
    z_ref, h_ref = reference_forward(params, shard.features)
    ws = {}
    for run in range(2):  # the second call reuses the first call's buffers
        other = init_params(Arch(10, 4, hidden), 2 + run)
        forward(other, shard.design, ws)
        for w in (None, ws):
            z, h = forward(params, shard.design, w)
            assert np.array_equal(z, z_ref)
            assert (h is None) if hidden == 0 else np.array_equal(h, h_ref)
    assert ws["logits"] is forward(params, shard.design, ws)[0]


@pytest.mark.parametrize("hidden", [0, 24])
@pytest.mark.parametrize("n", [1, 37, 12000])
def test_backprop_bit_identical_with_and_without_workspace(hidden, n):
    shard = make_shard(n)
    params = init_params(Arch(10, 4, hidden), 3)
    delta = column_major(stream(n, "delta").normal(0, 0.1, (n, 4)))
    _, hid = reference_forward(params, shard.features)
    snapshots = (delta.copy(), None if hid is None else hid.copy(), params.theta.copy())
    expected = reference_backprop(params, shard.features, delta, hid)
    ws = {}
    for w in (None, ws, ws):
        grad = backprop(params, shard.design, delta, hid, w)
        assert np.array_equal(grad, expected)
    assert np.array_equal(delta, snapshots[0])
    if hid is not None:
        assert np.array_equal(hid, snapshots[1])
    assert np.array_equal(params.theta, snapshots[2])


@pytest.mark.parametrize("classes", range(2, 10))
@pytest.mark.parametrize("rows", [1, 2, 31, 1280, 12000])
def test_softmax_into_workspace_bit_identical(classes, rows):
    z = column_major(stream(rows, "softmax-ws", classes).normal(0.0, 4.0, (rows, classes)))
    snapshot = z.copy()
    ws = {"probs": column_major(np.full((rows, classes), np.nan))}
    expected = reference_softmax(z)
    out = softmax(z, ws)
    assert out is ws["probs"]
    assert np.array_equal(out, expected)
    # a second input into the same buffers
    z2 = column_major(-z[::-1])
    assert np.array_equal(softmax(z2, ws), reference_softmax(z2))
    assert np.array_equal(z, snapshot)


@pytest.mark.parametrize("classes", [2, 4, 9])
def test_softmax_one_dim_into_workspace(classes):
    z = stream(0, "softmax-ws-1d", classes).normal(0.0, 3.0, classes)
    out = softmax(z, {})
    assert out.shape == (classes,)
    assert np.array_equal(out, reference_softmax(z[None, :])[0])


@pytest.mark.parametrize("hidden", [0, 24])
def test_training_steps_match_the_textbook_deltas(hidden):
    """One step of each training loss applies lr * backprop of its unfused
    delta: softmax - onehot, plus lambda * (p_m - p_c) for distillation,
    the tier weights times softmax - p_m for injection, and softmax -
    teacher for the capacity probe."""
    shard = make_shard(500)
    n = shard.sample_count
    params = init_params(Arch(10, 4, hidden), 4)
    other = init_params(Arch(10, 4, 8), 5)
    lr, lam, pi = 0.7, 0.6, np.array([0.5, 0.3, 0.2])
    z, hid = forward(params, shard.design)
    p = softmax(z).copy()
    p_other = softmax(logits(other, shard.design))
    w = _tier_sample_weights(shard, pi)[:, None]
    teacher = softmax(column_major(stream(11, "teacher").normal(0, 2, (n, 4))))
    cases = [
        (train_local(params, shard, 1, lr), (p - onehot(shard)) / n),
        (inject_knowledge(params, other, shard, pi, 1, lr), w * (p - p_other)),
        (
            distill_to_messenger(params, other, shard, lam, 1, lr),
            ((p - onehot(shard)) + lam * (p - p_other)) / n,
        ),
        (_distill_toward_teacher(params, shard.design, teacher, 1, lr)[0], (p - teacher) / n),
    ]
    for stepped, delta in cases:
        want = lr * backprop(params, shard.design, delta, hid)
        got = params.theta - stepped.theta
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


# -- training calls ----------------------------------------------------------


@pytest.mark.parametrize("hidden", [0, 24])
@pytest.mark.parametrize("n", [3, 600])
def test_train_local_bit_identical(hidden, n):
    shard = make_shard(n)
    params = init_params(Arch(10, 4, hidden), 5)
    snapshot = params.theta.copy()
    out = train_local(params, shard, 6, 0.5)
    assert np.array_equal(out.theta, reference_train_local(params, shard, 6, 0.5).theta)
    assert np.array_equal(params.theta, snapshot)


@pytest.mark.parametrize("client_hidden,messenger_hidden", [(0, 0), (24, 8), (12, 0)])
def test_inject_knowledge_bit_identical(client_hidden, messenger_hidden):
    shard = make_shard(600)
    client = init_params(Arch(10, 4, client_hidden), 6)
    mess = init_params(Arch(10, 4, messenger_hidden), 7)
    pi = np.array([0.5, 0.3, 0.2])
    expected = reference_inject_knowledge(client, mess, shard, pi, 4, 0.4).theta
    fwd = messenger_forward(mess, shard)
    assert np.array_equal(inject_knowledge(client, mess, shard, pi, 4, 0.4).theta, expected)
    assert np.array_equal(inject_knowledge(client, mess, shard, pi, 4, 0.4, fwd).theta, expected)


@pytest.mark.parametrize("client_hidden,messenger_hidden", [(0, 0), (24, 8), (12, 0)])
@pytest.mark.parametrize("steps", [0, 1, 5])
def test_distill_to_messenger_bit_identical(client_hidden, messenger_hidden, steps):
    shard = make_shard(600)
    client = init_params(Arch(10, 4, client_hidden), 8)
    mess = init_params(Arch(10, 4, messenger_hidden), 9)
    expected = reference_distill_to_messenger(mess, client, shard, 0.7, steps, 0.5).theta
    fwd = messenger_forward(mess, shard)
    probs = softmax(logits(client, shard.design))
    for args in ((), (fwd,), (None, probs), (fwd, probs)):
        out = distill_to_messenger(mess, client, shard, 0.7, steps, 0.5, *args)
        assert np.array_equal(out.theta, expected)


@pytest.mark.parametrize("hidden", [0, 8])
def test_distill_toward_teacher_bit_identical(hidden):
    shard = make_shard(120)
    params = init_params(Arch(10, 4, hidden), 10)
    teacher = softmax(column_major(stream(11, "teacher").normal(0, 2, (120, 4))))
    out, _ = _distill_toward_teacher(params, shard.design, teacher, 8, 0.8)
    expected = reference_distill_toward_teacher(params, shard.features, teacher, 8, 0.8)
    assert np.array_equal(out.theta, expected.theta)


@pytest.mark.parametrize("messenger_hidden", [0, 8])
def test_shared_inputs_are_never_written(messenger_hidden):
    """Inputs and a shared MessengerForward stay as they were; no output aliases them."""
    shard = make_shard(300)
    client = init_params(Arch(10, 4, 12), 12)
    mess = init_params(Arch(10, 4, messenger_hidden), 13)
    fwd = messenger_forward(mess, shard)
    probs = softmax(logits(client, shard.design))
    shared = [a for a in (*fwd, probs, client.theta, mess.theta, shard.design) if a is not None]
    snapshots = [a.copy() for a in shared]
    outputs = [
        train_local(client, shard, 3, 0.5),
        inject_knowledge(client, mess, shard, np.array([0.5, 0.3, 0.2]), 3, 0.4, fwd),
        distill_to_messenger(mess, client, shard, 0.7, 3, 0.5, fwd, probs),
    ]
    for array, snapshot in zip(shared, snapshots):
        assert np.array_equal(array, snapshot)
    for out in outputs:
        assert not any(np.shares_memory(out.theta, a) for a in shared)


@pytest.mark.parametrize("client_hidden,messenger_hidden", [(12, 0), (8, 8), (0, 0)])
def test_client_step_workspaces_bit_identical_and_unaliased(client_hidden, messenger_hidden):
    """One client step: train_local and inject_knowledge share a client-tower
    workspace, which here also takes the client's final logits and probs;
    the frozen messenger's forward and the distillation steps share a
    messenger workspace. Results equal the allocating path, the client's
    logits and probs survive distillation, and no output aliases a
    workspace buffer."""
    shard = make_shard(300)
    client = init_params(Arch(10, 4, client_hidden), 14)
    mess = init_params(Arch(10, 4, messenger_hidden), 15)
    pi = np.array([0.5, 0.3, 0.2])
    trained_ref = reference_train_local(client, shard, 3, 0.5)
    injected_ref = reference_inject_knowledge(trained_ref, mess, shard, pi, 3, 0.4)
    z_ref = reference_forward(injected_ref, shard.features)[0]
    variant_ref = reference_distill_to_messenger(mess, injected_ref, shard, 0.7, 3, 0.5)

    client_ws, messenger_ws = {}, {}
    trained = train_local(client, shard, 3, 0.5, client_ws)
    fwd = messenger_forward(mess, shard, messenger_ws)
    injected = inject_knowledge(trained, mess, shard, pi, 3, 0.4, fwd, client_ws)
    z, _ = forward(injected, shard.design, client_ws)
    probs = softmax(z, client_ws)
    assert z is client_ws["logits"] and probs is client_ws["probs"]
    variant = distill_to_messenger(mess, injected, shard, 0.7, 3, 0.5, fwd, probs, messenger_ws)

    assert np.array_equal(trained.theta, trained_ref.theta)
    assert np.array_equal(injected.theta, injected_ref.theta)
    assert np.array_equal(variant.theta, variant_ref.theta)
    assert np.array_equal(z, z_ref)
    assert np.array_equal(probs, reference_softmax(z_ref))
    client_bufs, messenger_bufs = (list(ws.values()) for ws in (client_ws, messenger_ws))
    for out in (trained, injected, variant):
        assert not any(np.shares_memory(out.theta, b) for b in client_bufs + messenger_bufs)
    assert not any(np.shares_memory(a, b) for a in client_bufs for b in messenger_bufs)


def test_client_probs_in_the_distillation_workspace_is_rejected():
    shard = make_shard(50)
    client = init_params(Arch(10, 4, 8), 16)
    mess = init_params(Arch(10, 4, 0), 17)
    ws = {}
    probs = softmax(logits(client, shard.design), ws)
    with pytest.raises(ValueError, match="client_probs"):
        distill_to_messenger(mess, client, shard, 0.7, 2, 0.5, None, probs, ws)
