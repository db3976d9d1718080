"""Invariants stated as property tests.

Shapley efficiency, convex fair weights, robust aggregates inside the
coordinate-wise range of their inputs, clipped updates inside the clip
norm, and a config with one field set to any JSON value either parses or
is rejected with a ConfigError that names a field. The column-major kernels and training steps equal the allocating
oracles (tests/oracles.py) on the same inputs bit for bit, whatever the
layout of the features that with_ones_column extends into their design
matrix, and the flat-index label gathers equal fancy indexing.

Examples are derandomized and few, so the suite stays deterministic and
fast.
"""

import copy
import dataclasses
import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from afflsim import config  # noqa: E402
from afflsim.fairness import (  # noqa: E402
    fair_weights,
    robust_aggregate,
    shapley_estimate,
)
from afflsim.federation import DatasetShard  # noqa: E402
from afflsim.messenger import (  # noqa: E402
    distill_to_messenger,
    inject_knowledge,
)
from afflsim.models import (  # noqa: E402
    Arch,
    ModelParams,
    _label_index,
    backprop,
    forward,
    logits,
    score,
    softmax,
    train_local,
    with_ones_column,
)
from afflsim.privacy import clip_update  # noqa: E402
from afflsim.rng import stream  # noqa: E402

import oracles  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

unit = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def games(draw):
    """(client ids, value of each coalition keyed by its bitmask over the ids)."""
    ids = draw(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=8, unique=True))
    values = draw(st.lists(unit, min_size=2 ** len(ids), max_size=2 ** len(ids)))
    return ids, values


class TableGame:
    """A value_fn on membership rows: each row's value is drawn from a
    stream keyed by its bitmask; every call's matrix is recorded."""

    def __init__(self, n, seed):
        self.bits = 1 << np.arange(n)
        self.seed = seed
        self.calls = []

    def value(self, mask):
        return float(stream(self.seed, "table-game", int(mask)).uniform(-1.0, 1.0))

    def __call__(self, members):
        self.calls.append(members.copy())
        return [self.value(mask) for mask in members @ self.bits]


def masks(members):
    return (members @ (1 << np.arange(members.shape[1]))).tolist()


@PROPERTY
@given(games())
def test_exact_shapley_is_efficient(game):
    ids, table = game

    def value_fn(members):
        return [table[mask] for mask in masks(members)]

    phi = shapley_estimate(ids, value_fn, mode="exact")
    assert abs(phi.sum() - (table[-1] - table[0])) <= 1e-9


@PROPERTY
@given(st.integers(1, 24), st.integers(1, 12), st.integers(0, 2**16), st.integers(0, 2**16))
def test_monte_carlo_shapley_is_efficient_per_walk(n, perms, seed, table):
    """Each walk's marginals telescope to v(full) - v(empty), so their mean does."""
    game = TableGame(n, table)
    phi = shapley_estimate(list(range(n)), game, "monte_carlo", perms, seed)
    spread = game.value((1 << n) - 1) - game.value(0)
    assert abs(phi.sum() - spread) <= 1e-12 * max(1.0, abs(spread))


@PROPERTY
@given(
    st.integers(1, 9),
    st.sampled_from(["exact", "monte_carlo"]),
    st.integers(1, 12),
    st.integers(0, 2**16),
)
def test_value_fn_sees_each_distinct_coalition_once_empty_first(n, mode, perms, seed):
    game = TableGame(n, seed)
    shapley_estimate(list(range(10, 10 + n)), game, mode, perms, seed)
    (members,) = game.calls
    assert members.dtype == bool and members.shape[1] == n
    seen = masks(members)
    assert seen[0] == 0 and len(set(seen)) == len(seen)
    if mode == "exact":
        assert seen == list(range(1 << n))
    else:
        walks = [stream(seed, "shapley-perm", p).permutation(n) for p in range(perms)]
        prefixes = {sum(1 << int(j) for j in walk[:k]) for walk in walks for k in range(n + 1)}
        assert set(seen) == prefixes


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
# column slice
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


# short shards, and tall ones like rural and regional clients'
ROWS = st.one_of(st.integers(1, 400), st.sampled_from([499, 1500, 3001]))


@st.composite
def classification_problems(draw):
    """(params, features, labels) with confident logits now and then."""
    hidden = draw(st.sampled_from([0, 1, 3, 8, 24]))
    # 2-9 classes: from 8 up numpy sums a contiguous row pairwise
    arch = Arch(draw(st.integers(1, 6)), draw(st.integers(2, 9)), hidden)
    n = draw(ROWS)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # up to 10^3 so that some label probabilities underflow to the 1e-300 floor
    theta = rng.standard_normal(arch.param_count) * 10.0 ** draw(st.integers(-2, 3))
    features = rng.standard_normal((n, arch.in_dim))
    labels = rng.integers(0, arch.num_classes, n)
    return ModelParams(arch, theta), features, labels


@PROPERTY
@given(classification_problems(), st.sampled_from(["C", "F", "col_slice", "row_step"]))
def test_flat_label_index_reads_and_writes_like_fancy_indexing(problem, layout):
    params, features, labels = problem
    z = forward(params, with_ones_column(features))[0]
    rng = np.random.default_rng(len(labels))
    p = laid_out(softmax(z), layout, rng)
    n = len(labels)
    want = float(-np.mean(np.log(np.maximum(p[np.arange(n), labels], 1e-300))))
    loss, acc = score(z, p, labels)
    assert same_bits(loss, want)
    assert acc == float(np.mean(np.argmax(z, axis=1) == labels))
    # a read, update and write at the labels, on a p that need not be contiguous
    expected = p.copy()
    expected[np.arange(n), labels] -= 1.0
    at_label = _label_index(labels)
    picked = np.take(p.T, at_label)
    picked -= 1.0
    np.put(p.T, at_label, picked)
    assert same_bits(p, expected)


# -- training kernels on every input layout ----------------------------------

NARROW = settings(PROPERTY, max_examples=25)


# row counts on both sides of numpy's pairwise-summation unroll (8) and
# block (128), and of the blocking of the products that sum the bias terms
@pytest.mark.parametrize("width", range(1, 10))
@pytest.mark.parametrize("rows", [1, 8, 9, 128, 129, 499, 1500])
@pytest.mark.parametrize("layout", ["F", "C", "col_slice"])
def test_kernels_on_narrow_arrays_equal_the_allocating_versions(width, rows, layout):
    rng = np.random.default_rng(rows * 10 + width)
    # width is the class count of the softmax and the hidden width of the MLP
    z = laid_out(scaled_normals(rng, (rows, width), -2, 3), layout, rng)
    assert same_bits(softmax(z), oracles.softmax(z))
    features = laid_out(rng.standard_normal((rows, width)), layout, rng)
    for hidden in (0, width):
        arch = Arch(width, max(width, 2), hidden)
        params = ModelParams(arch, rng.standard_normal(arch.param_count))
        z, hid = forward(params, with_ones_column(features), {})
        want_z, want_hid = oracles.forward(params, features)
        assert same_bits(z, want_z)
        assert hid is None if want_hid is None else same_bits(hid, want_hid)
        delta = laid_out(scaled_normals(rng, z.shape, -2, 3), layout, rng)
        grad = backprop(params, with_ones_column(features), delta, hid, {})
        assert same_bits(grad, oracles.backprop(params, features, delta, want_hid))


@NARROW
@given(classification_problems(), st.sampled_from(LAYOUTS), st.booleans())
def test_forward_equals_the_allocating_version(problem, layout, with_ws):
    params, features, _ = problem
    rng = np.random.default_rng(features.shape[0])
    features = laid_out(features, layout, rng)
    z, hidden = forward(params, with_ones_column(features), {} if with_ws else None)
    want_z, want_hidden = oracles.forward(params, features)
    assert same_bits(z, want_z)
    assert hidden is None if want_hidden is None else same_bits(hidden, want_hidden)


@NARROW
@given(
    ROWS,
    st.integers(2, 9),
    st.sampled_from(["C", "F", "row_step", "col_slice"]),
    st.integers(0, 2**32 - 1),
)
def test_softmax_equals_the_allocating_version(n, classes, layout, seed):
    rng = np.random.default_rng(seed)
    z = laid_out(scaled_normals(rng, (n, classes), -2, 3), layout, rng)
    snapshot = z.copy()
    out = softmax(z)
    assert same_bits(out, oracles.softmax(z))
    assert same_bits(z, snapshot)


@NARROW
@given(classification_problems(), st.integers(0, 3))
def test_train_local_equals_steps_of_the_fancy_index_version(problem, steps):
    params, features, labels = problem
    shard = DatasetShard(features, labels, params.arch.num_classes)
    trained = train_local(params, shard, steps, 0.5)
    assert same_bits(trained.theta, oracles.train_local(params, shard, steps, 0.5).theta)


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


@NARROW
@given(tiered_problems(), st.integers(0, 3))
def test_inject_knowledge_equals_the_allocating_version(problem, steps):
    client, messenger, shard, pi = problem
    out = inject_knowledge(client, messenger, shard, pi, steps, 0.3)
    want = oracles.inject(client, messenger, shard, pi, steps, 0.3)
    assert same_bits(out.theta, want.theta)


@NARROW
@given(tiered_problems(), st.integers(0, 3), st.floats(0.0, 2.0))
def test_distill_to_messenger_equals_the_allocating_version(problem, steps, lambda_kl):
    client, messenger, shard, _ = problem
    out = distill_to_messenger(messenger, client, shard, lambda_kl, steps, 0.3)
    want = oracles.distill(messenger, client, shard, lambda_kl, steps, 0.3)
    assert same_bits(out.theta, want.theta)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e308, -1e308])
# BLAS may multiply an infinite weight by zero padding, which sets the invalid flag
@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
@NARROW
@given(tiered_problems(), st.data())
def test_distillation_rejects_non_finite_logits_as_before(value, problem, data):
    client, messenger, shard, _ = problem
    # the value as one class's output bias puts it into that class's logit on every row
    bias = messenger.layers[-1][-1]
    bias[data.draw(st.integers(0, bias.shape[0] - 1))] = value
    args = (messenger, client, shard, 0.5, 1, 0.3)
    if np.all(np.isfinite(logits(messenger, shard.design))):  # the check as it was written
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


PARSE_PRESETS = [
    config.preset_smoke(7), config.preset_default(7), config.preset_privacy(7),
    config.preset_multimodal(7), config.preset_robustness(7),
]
BLOCKS = {
    f.name: f.default_factory
    for f in dataclasses.fields(config.RunConfig)
    if dataclasses.is_dataclass(f.default_factory)
}
# what a message may name: a block field by its dotted path, any other
# top-level field by its name
FIELD_NAMES = [
    f"{block}.{f.name}" for block, cls in BLOCKS.items() for f in dataclasses.fields(cls)
] + [f.name for f in dataclasses.fields(config.RunConfig) if f.name not in BLOCKS]

json_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    st.integers(-(10**400), 10**400),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.one_of(st.integers(-3, 40), st.floats(), st.text(max_size=2)), max_size=4),
)


def names(message: str, name: str) -> bool:
    """Whether name stands in message whole, not inside a word or a longer path."""
    return re.search(rf"(?<![\w.]){re.escape(name)}(?!\.?\w)", message) is not None


@settings(PROPERTY, max_examples=300)
@given(
    st.sampled_from(PARSE_PRESETS),
    st.sampled_from(FIELD_NAMES + list(BLOCKS)),
    json_values,
)
def test_one_field_set_to_any_json_value_parses_or_is_rejected_naming_a_field(
    preset, path, value
):
    data = copy.deepcopy(preset)
    *block, key = path.split(".")
    (data.setdefault(block[0], {}) if block else data)[key] = value
    try:
        config.config_from_dict(data)
    except config.ConfigError as exc:
        message = str(exc)
        named = FIELD_NAMES + [path] * (path in BLOCKS)  # a block given a non-object
        assert message.startswith("unknown key") or any(names(message, n) for n in named), message
