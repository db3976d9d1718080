"""Invariants stated as property tests: Shapley efficiency, convex fair weights.

Examples are derandomized and few, so the suite stays deterministic and
fast.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from afflsim.fairness import fair_weights, shapley_estimate  # noqa: E402

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
