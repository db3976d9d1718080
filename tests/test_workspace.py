"""Workspace kernels and training calls against the allocating oracles.

forward and backprop write their temporaries into a workspace that one
training call makes for its steps and reuses on every step. Every
comparison with the oracles (tests/oracles.py) is exact (bit for bit),
because the golden run digests depend on it. The textbook deltas,
softmax - onehot, the KL term and the tier weights, are checked against
the training calls to 1e-12.
"""

import inspect

import numpy as np
import pytest

import oracles
from afflsim import messenger, models
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
    backprop,
    forward,
    init_params,
    logits,
    softmax,
    train_local,
)
from afflsim.rng import stream
from oracles import column_major, onehot


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
    z_ref, h_ref = oracles.forward(params, shard.features)
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
    _, hid = oracles.forward(params, shard.features)
    snapshots = (delta.copy(), None if hid is None else hid.copy(), params.theta.copy())
    expected = oracles.backprop(params, shard.features, delta, hid)
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
def test_softmax_into_a_new_array_bit_identical(classes, rows):
    """Each call writes a new array: a second call leaves the first's bits."""
    z = column_major(stream(rows, "softmax-ws", classes).normal(0.0, 4.0, (rows, classes)))
    snapshot = z.copy()
    expected = oracles.softmax(z)
    out = softmax(z)
    assert np.array_equal(out, expected)
    z2 = column_major(-z[::-1])
    out2 = softmax(z2)
    assert np.array_equal(out2, oracles.softmax(z2))
    assert np.array_equal(out, expected)
    assert not np.shares_memory(out, out2) and not np.shares_memory(out, z)
    assert np.array_equal(z, snapshot)


@pytest.mark.parametrize("classes", [2, 4, 9])
def test_softmax_one_dim_into_a_new_array(classes):
    z = stream(0, "softmax-ws-1d", classes).normal(0.0, 3.0, classes)
    out = softmax(z)
    expected = oracles.softmax(z[None, :])[0]
    assert out.shape == (classes,)
    assert np.array_equal(out, expected)
    out2 = softmax(-z)
    assert np.array_equal(out, expected) and not np.shares_memory(out, out2)


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
    assert np.array_equal(out.theta, oracles.train_local(params, shard, 6, 0.5).theta)
    assert np.array_equal(params.theta, snapshot)


@pytest.mark.parametrize("client_hidden,messenger_hidden", [(0, 0), (24, 8), (12, 0)])
def test_inject_knowledge_bit_identical(client_hidden, messenger_hidden):
    shard = make_shard(600)
    client = init_params(Arch(10, 4, client_hidden), 6)
    mess = init_params(Arch(10, 4, messenger_hidden), 7)
    pi = np.array([0.5, 0.3, 0.2])
    expected = oracles.inject(client, mess, shard, pi, 4, 0.4).theta
    fwd = messenger_forward(mess, shard)
    assert np.array_equal(inject_knowledge(client, mess, shard, pi, 4, 0.4).theta, expected)
    assert np.array_equal(inject_knowledge(client, mess, shard, pi, 4, 0.4, fwd).theta, expected)


@pytest.mark.parametrize("client_hidden,messenger_hidden", [(0, 0), (24, 8), (12, 0)])
@pytest.mark.parametrize("steps", [0, 1, 5])
def test_distill_to_messenger_bit_identical(client_hidden, messenger_hidden, steps):
    shard = make_shard(600)
    client = init_params(Arch(10, 4, client_hidden), 8)
    mess = init_params(Arch(10, 4, messenger_hidden), 9)
    expected = oracles.distill(mess, client, shard, 0.7, steps, 0.5).theta
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
    expected = oracles.distill_toward_teacher(params, shard.features, teacher, 8, 0.8)
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
def test_client_step_bit_identical_and_unaliased(client_hidden, messenger_hidden):
    """One client step, called as the harness calls it: train_local, the
    frozen messenger's forward, injection from it, the client's logits and
    probs, and distillation from both. Results equal the allocating path,
    the client's logits and probs survive distillation, and no two of the
    step's arrays share memory."""
    shard = make_shard(300)
    client = init_params(Arch(10, 4, client_hidden), 14)
    mess = init_params(Arch(10, 4, messenger_hidden), 15)
    pi = np.array([0.5, 0.3, 0.2])
    trained_ref = oracles.train_local(client, shard, 3, 0.5)
    injected_ref = oracles.inject(trained_ref, mess, shard, pi, 3, 0.4)
    z_ref = oracles.forward(injected_ref, shard.features)[0]
    variant_ref = oracles.distill(mess, injected_ref, shard, 0.7, 3, 0.5)

    trained = train_local(client, shard, 3, 0.5)
    fwd = messenger_forward(mess, shard)
    injected = inject_knowledge(trained, mess, shard, pi, 3, 0.4, fwd)
    z = logits(injected, shard.design)
    probs = softmax(z)
    variant = distill_to_messenger(mess, injected, shard, 0.7, 3, 0.5, fwd, probs)

    assert np.array_equal(trained.theta, trained_ref.theta)
    assert np.array_equal(injected.theta, injected_ref.theta)
    assert np.array_equal(variant.theta, variant_ref.theta)
    assert np.array_equal(z, z_ref)
    assert np.array_equal(probs, oracles.softmax(z_ref))
    arrays = [a for a in (trained.theta, injected.theta, variant.theta, *fwd, z, probs) if a is not None]
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1 :])


@pytest.mark.parametrize("messenger_hidden", [0, 8])
def test_messenger_forward_returns_new_arrays(messenger_hidden):
    """A second messenger forward, on a shard of another size, leaves the
    first's bits and shares no memory with it or with its inputs."""
    mess = init_params(Arch(10, 4, messenger_hidden), 17)
    large, small = make_shard(300), make_shard(50, seed=1)
    first = messenger_forward(mess, large)
    z_ref, h_ref = oracles.forward(mess, large.features)
    second = messenger_forward(mess, small)
    assert np.array_equal(first.logits, z_ref)
    assert np.array_equal(first.probs, oracles.softmax(z_ref))
    assert (first.hidden is None) == (h_ref is None)
    if h_ref is not None:
        assert np.array_equal(first.hidden, h_ref)
    assert np.array_equal(second.logits, oracles.forward(mess, small.features)[0])
    inputs = (mess.theta, large.design, small.design)
    arrays = [a for a in (*first, *second) if a is not None]
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in (*arrays[i + 1 :], *inputs))


def test_only_the_calls_that_loop_take_a_workspace():
    """forward and backprop take the workspace of the call that loops over
    them; softmax, the training calls and the messenger's forward make
    their own arrays and take none."""
    for fn in (models.forward, models.backprop, models.forward_stacked, models.stacked_accuracy):
        assert "ws" in inspect.signature(fn).parameters
    for fn in (
        models.softmax,
        models.train_local,
        models._descend,
        models.pooled_cross_entropy,
        messenger.messenger_forward,
        messenger.inject_knowledge,
        messenger.distill_to_messenger,
    ):
        assert "ws" not in inspect.signature(fn).parameters, fn.__name__
