"""Workspace kernels and training calls against the allocating oracles.

forward and backprop write their temporaries into a workspace that one
training call makes for its steps and reuses on every step. Every
comparison with the oracles (tests/oracles.py) is exact (bit for bit),
because the golden run digests depend on it. The textbook deltas,
softmax - onehot, the KL term and the tier weights, are checked against
the training calls to 1e-12.
"""

import inspect
import tracemalloc

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
    # the workspace's own hidden buffer takes tanh' in place, and the next
    # forward in that workspace writes it anew
    other = init_params(Arch(10, 4, hidden), 4)
    other_delta = column_major(stream(n, "delta", 2).normal(0, 0.1, (n, 4)))
    other_hid = oracles.forward(other, shard.features)[1]
    other_expected = oracles.backprop(other, shard.features, other_delta, other_hid)
    for p, d, want in ((params, delta, expected), (other, other_delta, other_expected)):
        _, owned = forward(p, shard.design, ws)
        assert owned is ws.get("hidden")
        assert np.array_equal(backprop(p, shard.design, d, owned, ws), want)
    assert np.array_equal(delta, snapshots[0])


@pytest.mark.parametrize("hidden", [8, 24])
@pytest.mark.parametrize("n", [37, 12000])
def test_backprop_leaves_tanh_grad_in_its_own_hidden_buffer(hidden, n):
    """Given its workspace's own hidden buffer, backprop leaves tanh' =
    1 - H*H in its units, keeps the ones column and makes no tanh_grad
    buffer. Given a copy of that buffer, in the same workspace, it takes
    tanh' in a tanh_grad buffer and leaves the copy as it was."""
    shard = make_shard(n)
    params = init_params(Arch(10, 4, hidden), 5)
    delta = column_major(stream(n, "delta", 3).normal(0, 0.1, (n, 4)))
    h_ref = oracles.forward(params, shard.features)[1]
    expected = oracles.backprop(params, shard.features, delta, h_ref)
    ws = {}
    _, owned = forward(params, shard.design, ws)
    caller = owned.copy(order="K")  # column-major, as forward makes it
    assert np.array_equal(backprop(params, shard.design, delta, owned, ws), expected)
    assert np.array_equal(owned[:, :hidden], 1.0 - h_ref[:, :hidden] * h_ref[:, :hidden])
    assert np.all(owned[:, -1] == 1.0)
    assert "tanh_grad" not in ws
    assert np.array_equal(backprop(params, shard.design, delta, caller, ws), expected)
    assert np.array_equal(caller, h_ref)
    assert ws["tanh_grad"].shape == (n, hidden)


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
    assert np.array_equal(inject_knowledge(client, mess, shard, pi, 4, 0.4).theta, expected)


@pytest.mark.parametrize("client_hidden,messenger_hidden", [(0, 0), (24, 8), (12, 0)])
@pytest.mark.parametrize("steps", [0, 1, 5])
def test_distill_to_messenger_bit_identical(client_hidden, messenger_hidden, steps):
    shard = make_shard(600)
    client = init_params(Arch(10, 4, client_hidden), 8)
    mess = init_params(Arch(10, 4, messenger_hidden), 9)
    expected = oracles.distill(mess, client, shard, 0.7, steps, 0.5).theta
    probs = softmax(logits(client, shard.design))
    for args in ((), (probs,)):
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
    """Inputs and shared client probabilities stay as they were; no output aliases them."""
    shard = make_shard(300)
    client = init_params(Arch(10, 4, 12), 12)
    mess = init_params(Arch(10, 4, messenger_hidden), 13)
    probs = softmax(logits(client, shard.design))
    shared = [probs, client.theta, mess.theta, shard.design]
    snapshots = [a.copy() for a in shared]
    outputs = [
        train_local(client, shard, 3, 0.5),
        inject_knowledge(client, mess, shard, np.array([0.5, 0.3, 0.2]), 3, 0.4),
        distill_to_messenger(mess, client, shard, 0.7, 3, 0.5, probs),
    ]
    for array, snapshot in zip(shared, snapshots):
        assert np.array_equal(array, snapshot)
    for out in outputs:
        assert not any(np.shares_memory(out.theta, a) for a in shared)


@pytest.mark.parametrize("client_hidden,messenger_hidden", [(12, 0), (8, 8), (0, 0)])
def test_client_step_bit_identical_and_unaliased(client_hidden, messenger_hidden):
    """One client step, called as the harness calls it: train_local,
    injection, the client's logits and probs, and distillation from the
    probs. Results equal the allocating path, the client's logits and
    probs survive distillation, and no two of the step's arrays share
    memory."""
    shard = make_shard(300)
    client = init_params(Arch(10, 4, client_hidden), 14)
    mess = init_params(Arch(10, 4, messenger_hidden), 15)
    pi = np.array([0.5, 0.3, 0.2])
    trained_ref = oracles.train_local(client, shard, 3, 0.5)
    injected_ref = oracles.inject(trained_ref, mess, shard, pi, 3, 0.4)
    z_ref = oracles.forward(injected_ref, shard.features)[0]
    variant_ref = oracles.distill(mess, injected_ref, shard, 0.7, 3, 0.5)

    trained = train_local(client, shard, 3, 0.5)
    injected = inject_knowledge(trained, mess, shard, pi, 3, 0.4)
    z = logits(injected, shard.design)
    probs = softmax(z)
    variant = distill_to_messenger(mess, injected, shard, 0.7, 3, 0.5, probs)

    assert np.array_equal(trained.theta, trained_ref.theta)
    assert np.array_equal(injected.theta, injected_ref.theta)
    assert np.array_equal(variant.theta, variant_ref.theta)
    assert np.array_equal(z, z_ref)
    assert np.array_equal(probs, oracles.softmax(z_ref))
    arrays = [trained.theta, injected.theta, variant.theta, z, probs]
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1 :])


@pytest.mark.parametrize("messenger_hidden", [0, 8])
def test_messenger_logits_and_probs_are_new_arrays(messenger_hidden):
    """Injection and distillation compute the messenger's logits and
    probabilities themselves with logits and softmax. A second call, on a
    shard of another size, leaves the first's bits and shares no memory
    with it or with its inputs."""
    mess = init_params(Arch(10, 4, messenger_hidden), 17)
    large, small = make_shard(300), make_shard(50, seed=1)
    z_large = logits(mess, large.design)
    p_large = softmax(z_large)
    z_ref = oracles.forward(mess, large.features)[0]
    z_small = logits(mess, small.design)
    p_small = softmax(z_small)
    assert np.array_equal(z_large, z_ref)
    assert np.array_equal(p_large, oracles.softmax(z_ref))
    assert np.array_equal(z_small, oracles.forward(mess, small.features)[0])
    assert np.array_equal(p_small, oracles.softmax(z_small))
    inputs = (mess.theta, large.design, small.design)
    arrays = [z_large, p_large, z_small, p_small]
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in (*arrays[i + 1 :], *inputs))


def test_client_step_memory_at_an_academic_shard():
    """One messenger client step at preset_default's academic size, as the
    harness runs it, holds at most 2.75 client hidden buffers ([H | 1],
    12,000 x 25 floats) of temporaries: train_local, injection, the
    client's logits, probs and score, then distillation from the probs.
    The shard and both models exist before tracing starts."""
    shard = make_shard(12000)
    client = init_params(Arch(10, 4, 24), 18)
    mess = init_params(Arch(10, 4, 8), 19)
    pi = np.array([0.5, 0.3, 0.2])
    tracemalloc.start()
    try:
        trained = train_local(client, shard, 5, 0.5)
        injected = inject_knowledge(trained, mess, shard, pi, 4, 0.4)
        z = logits(injected, shard.design)
        probs = softmax(z)
        models.score(z, probs, shard.labels)
        del z
        distill_to_messenger(mess, injected, shard, 0.7, 10, 0.5, probs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.75 * 12000 * 25 * 8, f"traced peak {peak / 1e6:.2f} MB"


def test_only_the_calls_that_loop_take_a_workspace():
    """forward and backprop take the workspace of the call that loops over
    them; softmax and the training calls make their own arrays and take
    none."""
    for fn in (models.forward, models.backprop, models.forward_stacked, models.stacked_accuracy):
        assert "ws" in inspect.signature(fn).parameters
    for fn in (
        models.softmax,
        models.train_local,
        models._descend,
        models.pooled_cross_entropy,
        messenger.inject_knowledge,
        messenger.distill_to_messenger,
    ):
        assert "ws" not in inspect.signature(fn).parameters, fn.__name__
