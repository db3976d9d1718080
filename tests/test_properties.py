"""Invariants stated as property tests.

Shapley efficiency, convex fair weights, robust aggregates inside the
coordinate-wise range of their inputs, and clipped updates inside the clip
norm.

Examples are derandomized and few, so the suite stays deterministic and
fast.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from afflsim.fairness import (  # noqa: E402
    RobustAggConfig,
    fair_weights,
    robust_aggregate,
    shapley_estimate,
)
from afflsim.models import Arch, ModelParams  # noqa: E402
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
    w = fair_weights(np.array(phi), np.array(counts), eps_smooth, delta_size).w
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
    agg = robust_aggregate(variants, RobustAggConfig("trimmed_mean", f), weights=weights).theta
    ordered = np.sort(stacked, axis=0)
    # inside the range of the values that survive trimming, so inside the
    # coordinate-wise range of all inputs
    assert_between(agg, ordered[f], ordered[n - 1 - f])


@PROPERTY
@given(variant_stacks())
def test_coordinate_median_stays_between_the_middle_values(variants_stacked):
    variants, stacked = variants_stacked
    n = len(variants)
    agg = robust_aggregate(variants, RobustAggConfig("coordinate_median")).theta
    ordered = np.sort(stacked, axis=0)
    assert_between(agg, ordered[(n - 1) // 2], ordered[n // 2])


@PROPERTY
@given(st.lists(finite, min_size=1, max_size=50).map(np.array), st.floats(1e-3, 1e3))
def test_clipped_update_stays_within_the_clip_norm(delta, clip_norm):
    clipped = clip_update(delta, clip_norm)
    assert np.linalg.norm(clipped) <= clip_norm * (1 + 1e-12)
    if np.linalg.norm(delta) <= clip_norm:
        assert np.array_equal(clipped, delta)
