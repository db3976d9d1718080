"""Workspace kernels and training calls against the old allocating expressions.

Each kernel and step loop writes its temporaries into a workspace that
one training call reuses on every step. The oracles below are the
expressions as they were before that change, each allocating fresh
arrays; every comparison is exact (bit for bit), because the golden run
digests depend on it.
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
    _ce_step,
    _label_index,
    _unpack,
    backprop,
    forward,
    init_params,
    logits,
    softmax,
    train_local,
)
from afflsim.rng import stream


# -- oracles: the allocating expressions -------------------------------------


def reference_softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def reference_forward(params, features):
    if params.arch.hidden == 0:
        w, b = _unpack(params.arch, params.theta)
        return features @ w + b, None
    w1, b1, w2, b2 = _unpack(params.arch, params.theta)
    hidden = np.tanh(features @ w1 + b1)
    return hidden @ w2 + b2, hidden


def reference_backprop(params, features, out_delta, hidden):
    grad = np.empty_like(params.theta)
    if params.arch.hidden == 0:
        gw, gb = _unpack(params.arch, grad)
        gw[:] = features.T @ out_delta
        gb[:] = out_delta.sum(axis=0)
        return grad
    _, _, w2, _ = _unpack(params.arch, params.theta)
    gw1, gb1, gw2, gb2 = _unpack(params.arch, grad)
    gw2[:] = hidden.T @ out_delta
    gb2[:] = out_delta.sum(axis=0)
    hid_delta = (out_delta @ w2.T) * (1.0 - hidden**2)
    gw1[:] = features.T @ hid_delta
    gb1[:] = hid_delta.sum(axis=0)
    return grad


def reference_ce_step(params, features, labels):
    n = features.shape[0]
    z, hidden = reference_forward(params, features)
    p = reference_softmax(z)
    idx = np.arange(n)
    loss = float(-np.mean(np.log(np.maximum(p[idx, labels], 1e-300))))
    delta = p
    delta[idx, labels] -= 1.0
    return loss, reference_backprop(params, features, delta / n, hidden)


def reference_train_local(params, shard, steps, lr):
    current = params.copy()
    for _ in range(steps):
        _, grad = reference_ce_step(current, shard.features, shard.labels)
        grad *= lr
        current.theta -= grad
    return current


def reference_inject_knowledge(client, messenger, shard, pi, steps, lr):
    w = _tier_sample_weights(shard, pi)
    p_m = reference_softmax(reference_forward(messenger, shard.features)[0])
    current = client.copy()
    for _ in range(steps):
        z, hidden = reference_forward(current, shard.features)
        delta = w[:, None] * (reference_softmax(z) - p_m)
        grad = reference_backprop(current, shard.features, delta, hidden)
        grad *= lr
        current.theta -= grad
    return current


def reference_distill_to_messenger(messenger, client, shard, lambda_kl, steps, lr):
    n = shard.sample_count
    p_c = reference_softmax(reference_forward(client, shard.features)[0])
    onehot = np.zeros((n, shard.num_classes))
    onehot[np.arange(n), shard.labels] = 1.0
    current = messenger.copy()
    for _ in range(steps):
        z, hidden = reference_forward(current, shard.features)
        p_m = reference_softmax(z)
        delta = ((p_m - onehot) + lambda_kl * (p_m - p_c)) / n
        grad = reference_backprop(current, shard.features, delta, hidden)
        grad *= lr
        current.theta -= grad
    return current


def reference_distill_toward_teacher(params, features, teacher_probs, steps, lr):
    current = params.copy()
    n = features.shape[0]
    for _ in range(steps):
        z, hidden = reference_forward(current, features)
        delta = (reference_softmax(z) - teacher_probs) / n
        grad = reference_backprop(current, features, delta, hidden)
        grad *= lr
        current.theta -= grad
    return current


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
        forward(other, shard.features, ws)
        for w in (None, ws):
            z, h = forward(params, shard.features, w)
            assert np.array_equal(z, z_ref)
            assert (h is None) if hidden == 0 else np.array_equal(h, h_ref)
    assert ws["logits"] is forward(params, shard.features, ws)[0]


@pytest.mark.parametrize("hidden", [0, 24])
@pytest.mark.parametrize("n", [1, 37, 12000])
def test_backprop_bit_identical_with_and_without_workspace(hidden, n):
    shard = make_shard(n)
    params = init_params(Arch(10, 4, hidden), 3)
    delta = stream(n, "delta").normal(0, 0.1, (n, 4))
    _, hid = reference_forward(params, shard.features)
    snapshots = (delta.copy(), None if hid is None else hid.copy(), params.theta.copy())
    expected = reference_backprop(params, shard.features, delta, hid)
    ws = {}
    for w in (None, ws, ws):
        grad = backprop(params, shard.features, delta, hid, w)
        assert np.array_equal(grad, expected)
    assert np.array_equal(delta, snapshots[0])
    if hid is not None:
        assert np.array_equal(hid, snapshots[1])
    assert np.array_equal(params.theta, snapshots[2])


@pytest.mark.parametrize("classes", range(2, 10))
@pytest.mark.parametrize("rows", [1, 2, 31, 1280, 12000])
def test_softmax_into_workspace_bit_identical(classes, rows):
    z = stream(rows, "softmax-ws", classes).normal(0.0, 4.0, (rows, classes))
    snapshot = z.copy()
    ws = {"probs": np.full((rows, classes), np.nan)}
    expected = reference_softmax(z)
    out = softmax(z, ws)
    assert out is ws["probs"]
    assert np.array_equal(out, expected)
    # a second input into the same buffers
    z2 = -z[::-1].copy()
    assert np.array_equal(softmax(z2, ws), reference_softmax(z2))
    assert np.array_equal(z, snapshot)


@pytest.mark.parametrize("classes", [2, 4, 9])
def test_softmax_one_dim_into_workspace(classes):
    z = stream(0, "softmax-ws-1d", classes).normal(0.0, 3.0, classes)
    out = softmax(z, {})
    assert out.shape == (classes,)
    assert np.array_equal(out, reference_softmax(z[None, :])[0])


@pytest.mark.parametrize("hidden", [0, 24])
def test_ce_step_bit_identical(hidden):
    shard = make_shard(500)
    params = init_params(Arch(10, 4, hidden), 4)
    loss_ref, grad_ref = reference_ce_step(params, shard.features, shard.labels)
    for w in (None, {}):
        loss, grad = _ce_step(params, shard.features, _label_index(shard.labels, 4), w)
        assert loss == loss_ref
        assert np.array_equal(grad, grad_ref)


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
    probs = softmax(logits(client, shard.features))
    for args in ((), (fwd,), (None, probs), (fwd, probs)):
        out = distill_to_messenger(mess, client, shard, 0.7, steps, 0.5, *args)
        assert np.array_equal(out.theta, expected)


@pytest.mark.parametrize("hidden", [0, 8])
def test_distill_toward_teacher_bit_identical(hidden):
    shard = make_shard(120)
    params = init_params(Arch(10, 4, hidden), 10)
    teacher = softmax(stream(11, "teacher").normal(0, 2, (120, 4)))
    out, _ = _distill_toward_teacher(params, shard.features, teacher, 8, 0.8)
    expected = reference_distill_toward_teacher(params, shard.features, teacher, 8, 0.8)
    assert np.array_equal(out.theta, expected.theta)


@pytest.mark.parametrize("messenger_hidden", [0, 8])
def test_shared_inputs_are_never_written(messenger_hidden):
    """Inputs and a shared MessengerForward stay as they were; no output aliases them."""
    shard = make_shard(300)
    client = init_params(Arch(10, 4, 12), 12)
    mess = init_params(Arch(10, 4, messenger_hidden), 13)
    fwd = messenger_forward(mess, shard)
    probs = softmax(logits(client, shard.features))
    shared = [a for a in (*fwd, probs, client.theta, mess.theta, shard.features) if a is not None]
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
    z, _ = forward(injected, shard.features, client_ws)
    probs = softmax(z, client_ws)
    assert z is client_ws["logits"] and probs is client_ws["probs"]
    variant = distill_to_messenger(mess, injected, shard, 0.7, 3, 0.5, fwd, probs, messenger_ws)

    assert np.array_equal(trained.theta, trained_ref.theta)
    assert np.array_equal(injected.theta, injected_ref.theta)
    assert np.array_equal(variant.theta, variant_ref.theta)
    assert np.array_equal(z, z_ref)
    assert np.array_equal(probs, reference_softmax(z_ref))
    client_bufs, messenger_bufs = list(client_ws.values()), list(messenger_ws.values())
    for out in (trained, injected, variant):
        assert not any(np.shares_memory(out.theta, b) for b in client_bufs + messenger_bufs)
    assert not any(np.shares_memory(a, b) for a in client_bufs for b in messenger_bufs)


def test_client_probs_in_the_distillation_workspace_is_rejected():
    shard = make_shard(50)
    client = init_params(Arch(10, 4, 8), 16)
    mess = init_params(Arch(10, 4, 0), 17)
    ws = {}
    probs = softmax(logits(client, shard.features), ws)
    with pytest.raises(ValueError, match="client_probs"):
        distill_to_messenger(mess, client, shard, 0.7, 2, 0.5, None, probs, ws)
