"""Invariants stated as property tests.

Shapley efficiency, convex fair weights, robust aggregates inside the
coordinate-wise range of their inputs, and clipped updates inside the clip
norm. The fast reductions in models (einsum column sums, flat-index label
gathers) and the column-wise and hoisted forms of the training steps on
narrow arrays equal the numpy expressions they replace bit for bit.

Examples are derandomized and few, so the suite stays deterministic and
fast.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from afflsim.fairness import (  # noqa: E402
    fair_weights,
    robust_aggregate,
    shapley_estimate,
)
from afflsim.federation import DatasetShard  # noqa: E402
from afflsim.messenger import (  # noqa: E402
    _tier_sample_weights,
    distill_to_messenger,
    inject_knowledge,
    messenger_forward,
)
from afflsim.models import (  # noqa: E402
    _COLUMN_MAX_CLASSES,
    _COLUMN_MIN_ROWS,
    Arch,
    ModelParams,
    _add_bias,
    _ce_step,
    _column_sums,
    _label_index,
    _per_row,
    _unpack,
    forward,
    score,
    softmax,
    train_local,
)
from afflsim.privacy import clip_update  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

unit = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def games(draw):
    """(client ids, value of each coalition keyed by its bitmask over the ids)."""
    ids = draw(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=8, unique=True))
    values = draw(st.lists(unit, min_size=2 ** len(ids), max_size=2 ** len(ids)))
    return ids, values


@PROPERTY
@given(games())
def test_exact_shapley_is_efficient(game):
    ids, table = game
    position = {i: j for j, i in enumerate(ids)}

    def value_fn(subsets):
        return [table[sum(1 << position[i] for i in s)] for s in subsets]

    phi = shapley_estimate(ids, value_fn, mode="exact")
    assert abs(phi.sum() - (table[-1] - table[0])) <= 1e-9


@PROPERTY
@given(
    st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=1, max_size=40).flatmap(
        lambda phi: st.tuples(
            st.just(phi),
            st.lists(st.integers(1, 10**6), min_size=len(phi), max_size=len(phi)),
        )
    ),
    st.floats(0.0, 1.0),
    st.floats(0.0, 2.0),
)
def test_fair_weights_are_convex(phi_counts, eps_smooth, delta_size):
    phi, counts = phi_counts
    if eps_smooth == 0 and max(phi) <= 0:
        with pytest.raises(ValueError, match="all raw weights are zero"):
            fair_weights(np.array(phi), np.array(counts), eps_smooth, delta_size)
        return
    w = fair_weights(np.array(phi), np.array(counts), eps_smooth, delta_size)
    assert w.shape == (len(phi),)
    assert np.all(w >= 0)
    assert abs(w.sum() - 1.0) <= 1e-9


finite = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def variant_stacks(draw):
    """(variants sharing one logistic architecture, their thetas as rows)."""
    arch = Arch(draw(st.integers(1, 3)), 2, 0)  # 4, 6 or 8 parameters
    n = draw(st.integers(1, 9))
    values = draw(st.lists(finite, min_size=n * arch.param_count, max_size=n * arch.param_count))
    stacked = np.array(values).reshape(n, arch.param_count)
    return [ModelParams(arch, row) for row in stacked], stacked


def assert_between(agg, low, high):
    tol = 1e-12 * np.maximum(1.0, np.maximum(np.abs(low), np.abs(high)))
    assert np.all(agg >= low - tol)
    assert np.all(agg <= high + tol)


@PROPERTY
@given(variant_stacks(), st.data())
def test_trimmed_mean_stays_between_the_kept_order_statistics(variants_stacked, data):
    variants, stacked = variants_stacked
    n = len(variants)
    f = data.draw(st.integers(0, (n - 1) // 2))
    weights = data.draw(
        st.none() | st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n).map(np.array)
    )
    agg = robust_aggregate(variants, "trimmed_mean", f, weights).theta
    ordered = np.sort(stacked, axis=0)
    # inside the range of the values that survive trimming, so inside the
    # coordinate-wise range of all inputs
    assert_between(agg, ordered[f], ordered[n - 1 - f])


@PROPERTY
@given(variant_stacks())
def test_coordinate_median_stays_between_the_middle_values(variants_stacked):
    variants, stacked = variants_stacked
    n = len(variants)
    agg = robust_aggregate(variants, "coordinate_median").theta
    ordered = np.sort(stacked, axis=0)
    assert_between(agg, ordered[(n - 1) // 2], ordered[n // 2])


@PROPERTY
@given(st.lists(finite, min_size=1, max_size=50).map(np.array), st.floats(1e-3, 1e3))
def test_clipped_update_stays_within_the_clip_norm(delta, clip_norm):
    clipped = clip_update(delta, clip_norm)
    assert np.linalg.norm(clipped) <= clip_norm * (1 + 1e-12)
    if np.linalg.norm(delta) <= clip_norm:
        assert np.array_equal(clipped, delta)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def scaled_normals(rng, shape, low_exp=-8, high_exp=8):
    """Normal draws, each scaled by its own power of ten in [low_exp, high_exp]."""
    return rng.standard_normal(shape) * 10.0 ** rng.integers(low_exp, high_exp + 1, shape)


# C order, F order, a contiguous row slice, a strided row slice and a
# column slice; only the first and third take the einsum path at width >= 2
LAYOUTS = ("C", "F", "row_slice", "row_step", "col_slice")


def laid_out(a: np.ndarray, layout: str, rng) -> np.ndarray:
    n, w = a.shape
    if layout == "C":
        return np.ascontiguousarray(a)
    if layout == "F":
        return np.asfortranarray(a)
    if layout == "row_slice":
        base = scaled_normals(rng, (n + 5, w))
        base[2 : 2 + n] = a
        return base[2 : 2 + n]
    if layout == "row_step":
        base = scaled_normals(rng, (2 * n, w))
        base[::2] = a
        return base[::2]
    base = scaled_normals(rng, (n, w + 3))
    base[:, 1 : 1 + w] = a
    return base[:, 1 : 1 + w]


@PROPERTY
@given(
    st.integers(1, 3000),
    st.integers(1, 32),
    st.sampled_from(LAYOUTS),
    st.integers(-8, 8),
    st.integers(0, 2**32 - 1),
)
def test_column_sums_equal_sum_over_rows_bit_for_bit(n, width, layout, exp, seed):
    rng = np.random.default_rng(seed)
    # one shared magnitude plus per-entry spread of up to 10^+-8 around it
    a = laid_out(scaled_normals(rng, (n, width)) * 10.0**exp, layout, rng)
    grad = np.full(width + 4, np.nan)
    out = _column_sums(a, grad[2 : 2 + width])
    assert np.shares_memory(out, grad)
    assert same_bits(out, a.sum(axis=0))
    assert np.isnan(grad[:2]).all() and np.isnan(grad[2 + width :]).all()


def broadcast_forward(params, features):
    """forward as written with row-vector bias broadcasts (z += b)."""
    arch = params.arch
    if arch.hidden == 0:
        w, b = _unpack(arch, params.theta)
        z = np.matmul(features, w)
        z += b
        return z, None
    w1, b1, w2, b2 = _unpack(arch, params.theta)
    hidden = np.matmul(features, w1)
    hidden += b1
    np.tanh(hidden, out=hidden)
    z = np.matmul(hidden, w2)
    z += b2
    return z, hidden


def broadcast_softmax(z):
    """softmax as written with the m[:, None] and s[:, None] broadcasts."""
    cols = z.shape[1]
    if cols >= _COLUMN_MAX_CLASSES:
        out = z - z.max(axis=1, keepdims=True)
        np.exp(out, out=out)
        out /= out.sum(axis=1, keepdims=True)
        return out
    m = np.maximum(z[:, 0], z[:, 1])
    for j in range(2, cols):
        np.maximum(m, z[:, j], out=m)
    out = z - m[:, None]
    np.exp(out, out=out)
    s = out[:, 0] + out[:, 1]
    for j in range(2, cols):
        s += out[:, j]
    out /= s[:, None]
    return out


def broadcast_backprop(params, features, delta, hidden):
    """backprop as written with copied matmul results and sum(axis=0)."""
    grad = np.empty(params.param_count)
    if params.arch.hidden == 0:
        gw, gb = _unpack(params.arch, grad)
        gw[:] = features.T @ delta
        gb[:] = delta.sum(axis=0)
        return grad
    w2 = _unpack(params.arch, params.theta)[2]
    gw1, gb1, gw2, gb2 = _unpack(params.arch, grad)
    gw2[:] = hidden.T @ delta
    gb2[:] = delta.sum(axis=0)
    hid_delta = np.matmul(delta, w2.T, out=np.empty(hidden.shape))
    hid_delta *= 1.0 - hidden * hidden
    gw1[:] = features.T @ hid_delta
    gb1[:] = hid_delta.sum(axis=0)
    return grad


def fancy_ce_step(params, features, labels):
    """_ce_step as written with fancy label indexing, np.mean and broadcasts."""
    n = features.shape[0]
    z, hidden = broadcast_forward(params, features)
    p = broadcast_softmax(z)
    idx = np.arange(n)
    loss = float(-np.mean(np.log(np.maximum(p[idx, labels], 1e-300))))
    delta = p
    delta[idx, labels] -= 1.0
    delta /= n
    return loss, broadcast_backprop(params, features, delta, hidden)


# row counts on both sides of each _COLUMN_MIN_ROWS bound, and below them all
ROWS = st.one_of(
    st.integers(1, 400),
    st.sampled_from(sorted({n + d for n in _COLUMN_MIN_ROWS.values() for d in (-1, 0, 1)})),
)


@st.composite
def classification_problems(draw):
    """(params, features, labels) with confident logits now and then."""
    hidden = draw(st.sampled_from([0, 1, 3, 8, 24]))
    # 2-9 classes: both sides of _COLUMN_MAX_CLASSES
    arch = Arch(draw(st.integers(1, 6)), draw(st.integers(2, 9)), hidden)
    n = draw(ROWS)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # up to 10^3 so that some label probabilities underflow to the 1e-300 floor
    theta = rng.standard_normal(arch.param_count) * 10.0 ** draw(st.integers(-2, 3))
    features = rng.standard_normal((n, arch.in_dim))
    labels = rng.integers(0, arch.num_classes, n)
    return ModelParams(arch, theta), features, labels


@PROPERTY
@given(classification_problems(), st.booleans())
def test_ce_step_equals_the_fancy_index_version(problem, with_ws):
    params, features, labels = problem
    at_label = _label_index(labels, params.arch.num_classes)
    loss, grad = _ce_step(params, features, at_label, {} if with_ws else None)
    want_loss, want_grad = fancy_ce_step(params, features, labels)
    assert same_bits(loss, want_loss)
    assert same_bits(grad, want_grad)


@PROPERTY
@given(classification_problems(), st.sampled_from(["C", "F", "col_slice", "row_step"]))
def test_flat_label_index_reads_and_writes_like_fancy_indexing(problem, layout):
    params, features, labels = problem
    z = forward(params, features)[0]
    rng = np.random.default_rng(len(labels))
    p = laid_out(softmax(z), layout, rng)
    n = len(labels)
    want = float(-np.mean(np.log(np.maximum(p[np.arange(n), labels], 1e-300))))
    loss, acc = score(z, p, labels)
    assert same_bits(loss, want)
    assert acc == float(np.mean(np.argmax(z, axis=1) == labels))
    # the update _ce_step applies, on a p that need not be contiguous
    expected = p.copy()
    expected[np.arange(n), labels] -= 1.0
    at_label = _label_index(labels, p.shape[1])
    picked = np.take(p, at_label)
    picked -= 1.0
    np.put(p, at_label, picked)
    assert same_bits(p, expected)


# -- narrow arrays: column-wise and hoisted forms -----------------------------

NARROW = settings(PROPERTY, max_examples=25)


@pytest.mark.parametrize("width", range(1, 10))
@pytest.mark.parametrize("rows", [1, 499, 500, 1499, 1500, 2999, 3000])
@pytest.mark.parametrize("layout", ["C", "col_slice"])
def test_bias_and_per_row_broadcasts_equal_numpys(width, rows, layout):
    rng = np.random.default_rng(rows * 10 + width)
    a = laid_out(scaled_normals(rng, (rows, width), -2, 3), layout, rng)
    b, v = rng.standard_normal(width), rng.random(rows) + 0.5
    for op in (np.subtract, np.multiply, np.divide):
        out = np.empty((rows, width))
        _per_row(op, a, v, out)
        assert same_bits(out, op(a, v[:, None]))
    want = a + b
    _add_bias(a, b)
    assert same_bits(a, want)


@NARROW
@given(classification_problems(), st.sampled_from(LAYOUTS), st.booleans())
def test_forward_equals_the_broadcast_version(problem, layout, with_ws):
    params, features, _ = problem
    rng = np.random.default_rng(features.shape[0])
    features = laid_out(features, layout, rng)
    z, hidden = forward(params, features, {} if with_ws else None)
    want_z, want_hidden = broadcast_forward(params, features)
    assert same_bits(z, want_z)
    assert hidden is None if want_hidden is None else same_bits(hidden, want_hidden)


@NARROW
@given(
    ROWS,
    st.integers(2, 9),
    st.sampled_from(["C", "F", "row_step", "col_slice"]),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_softmax_equals_the_broadcast_version(n, classes, layout, seed, with_ws):
    rng = np.random.default_rng(seed)
    z = laid_out(scaled_normals(rng, (n, classes), -2, 3), layout, rng)
    snapshot = z.copy()
    out = softmax(z, {} if with_ws else None)
    assert same_bits(out, broadcast_softmax(z))
    assert same_bits(z, snapshot)


@NARROW
@given(classification_problems(), st.integers(0, 3), st.booleans())
def test_train_local_equals_steps_of_the_fancy_index_version(problem, steps, with_ws):
    params, features, labels = problem
    shard = DatasetShard(features, labels, params.arch.num_classes)
    trained = train_local(params, shard, steps, 0.5, {} if with_ws else None)
    current = params.copy()
    for _ in range(steps):
        current.theta -= fancy_ce_step(current, features, labels)[1] * 0.5
    assert same_bits(trained.theta, current.theta)


@st.composite
def tiered_problems(draw):
    """(client, messenger, shard with difficulty tiers, curriculum weights pi)."""
    classes = draw(st.integers(2, 9))
    d = draw(st.integers(1, 6))
    n = draw(ROWS)
    num_tiers = draw(st.integers(1, min(4, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # random tiers, so some of them may be empty
    shard = DatasetShard(
        rng.standard_normal((n, d)), rng.integers(0, classes, n), classes
    ).with_tiers(rng.integers(0, num_tiers, n), num_tiers)
    client, messenger = (
        ModelParams(arch, rng.standard_normal(arch.param_count) * 10.0 ** draw(st.integers(-2, 2)))
        for arch in (
            Arch(d, classes, draw(st.sampled_from([0, 3, 8]))),
            Arch(d, classes, draw(st.sampled_from([0, 2, 12]))),
        )
    )
    return client, messenger, shard, rng.dirichlet(np.ones(num_tiers))


def broadcast_inject_knowledge(client, messenger, shard, pi, steps, lr):
    """inject_knowledge as written with delta *= w[:, None] at each step."""
    w = _tier_sample_weights(shard, pi)
    p_m = broadcast_softmax(broadcast_forward(messenger, shard.features)[0])
    current = client.copy()
    for _ in range(steps):
        z, hidden = broadcast_forward(current, shard.features)
        delta = broadcast_softmax(z)
        delta -= p_m
        delta *= w[:, None]
        grad = broadcast_backprop(current, shard.features, delta, hidden)
        grad *= lr
        current.theta -= grad
    return current


def broadcast_distill_to_messenger(messenger, client, shard, lambda_kl, steps, lr):
    """distill_to_messenger as written with np.isfinite over every logit."""
    n = shard.sample_count
    p_c = broadcast_softmax(broadcast_forward(client, shard.features)[0])
    onehot = np.zeros((n, shard.num_classes))
    onehot[np.arange(n), shard.labels] = 1.0
    current = messenger.copy()
    for _ in range(steps):
        z, hidden = broadcast_forward(current, shard.features)
        if not np.all(np.isfinite(z)):
            raise FloatingPointError("non-finite distillation loss")
        p_m = broadcast_softmax(z)
        delta = p_m - onehot
        kl_delta = p_m - p_c
        kl_delta *= lambda_kl
        delta += kl_delta
        delta /= n
        grad = broadcast_backprop(current, shard.features, delta, hidden)
        grad *= lr
        current.theta -= grad
    return current


@NARROW
@given(tiered_problems(), st.integers(0, 3), st.booleans())
def test_inject_knowledge_equals_the_broadcast_version(problem, steps, with_fwd):
    client, messenger, shard, pi = problem
    fwd = messenger_forward(messenger, shard) if with_fwd else None
    out = inject_knowledge(client, messenger, shard, pi, steps, 0.3, fwd, {})
    want = broadcast_inject_knowledge(client, messenger, shard, pi, steps, 0.3)
    assert same_bits(out.theta, want.theta)


@NARROW
@given(tiered_problems(), st.integers(0, 3), st.floats(0.0, 2.0), st.booleans())
def test_distill_to_messenger_equals_the_broadcast_version(problem, steps, lambda_kl, with_fwd):
    client, messenger, shard, _ = problem
    fwd = messenger_forward(messenger, shard) if with_fwd else None
    out = distill_to_messenger(messenger, client, shard, lambda_kl, steps, 0.3, fwd, None, {})
    want = broadcast_distill_to_messenger(messenger, client, shard, lambda_kl, steps, 0.3)
    assert same_bits(out.theta, want.theta)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e308, -1e308])
@NARROW
@given(tiered_problems(), st.data())
def test_distillation_rejects_non_finite_logits_as_before(value, problem, data):
    client, messenger, shard, _ = problem
    fwd = messenger_forward(messenger, shard)
    n, c = fwd.logits.shape
    fwd.logits[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, c - 1))] = value
    args = (messenger, client, shard, 0.5, 1, 0.3, fwd)
    if np.all(np.isfinite(fwd.logits)):  # the check as it was written
        distill_to_messenger(*args)
    else:
        with pytest.raises(FloatingPointError, match="non-finite distillation loss"):
            distill_to_messenger(*args)


def test_distillation_on_an_empty_shard_leaves_the_messenger_as_is():
    shard = DatasetShard(np.empty((0, 3)), np.empty(0, dtype=np.int64), 2)
    messenger = ModelParams(Arch(3, 2, 0), np.arange(8.0))
    client = ModelParams(Arch(3, 2, 4), np.ones(Arch(3, 2, 4).param_count))
    out = distill_to_messenger(messenger, client, shard, 0.5, 2, 0.1)
    assert same_bits(out.theta, messenger.theta)
