"""Shapley valuation, fair weighting, robust aggregation, inequality measures.

Shapley values feed size-debiased aggregation weights; trimmed-mean or
coordinate-median consensus tolerates Byzantine variants; the fairness gap
and Gini coefficient monitor equity round over round.

A coalition is a row of a boolean membership matrix over cohort
positions. shapley_estimate builds every coalition its walks (or exact
mode) need as one such matrix and values it with one value_fn call.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .models import Arch, ModelParams
from .rng import stream

# Largest cohort exact Shapley enumerates (2^n coalitions).
EXACT_MAX_CLIENTS = 10


def shapley_estimate(
    cohort_ids: list[int],
    value_fn: Callable,
    mode: str = "exact",
    num_perms: int = 1000,
    seed: int = 0,
) -> np.ndarray:
    """Per-client Shapley values of a coalition value function.

    exact mode enumerates all 2^n coalitions (n <= EXACT_MAX_CLIENTS);
    monte_carlo averages marginal contributions over num_perms permutation
    walks drawn from counter-based streams, so estimates are identical at
    any parallelism. value_fn is called once, with a boolean (K, n)
    membership matrix: one row per coalition, column j true when
    cohort_ids[j] is a member. The rows are every coalition the estimate
    needs, each distinct one once, the empty one first. It must return K
    finite values in row order, so a caller can value them all in one
    batch (the harness averages a round's variants for a block of rows in
    one product and evaluates the block in one stacked forward).
    """
    n = len(cohort_ids)
    if n == 0:
        raise ValueError("empty cohort")
    if mode == "exact":
        if n > EXACT_MAX_CLIENTS:
            raise ValueError(f"exact mode supports at most {EXACT_MAX_CLIENTS} clients")
    elif mode != "monte_carlo":
        raise ValueError(f"unknown mode {mode!r}")
    elif num_perms < 1:
        raise ValueError("num_perms must be >= 1")

    positions = np.arange(n)
    if mode == "exact":
        # row `mask` holds the positions of mask's set bits
        members = (np.arange(1 << n)[:, None] >> positions & 1).astype(bool)
        v = _values(value_fn, members)
        fact = [math.factorial(k) for k in range(n + 1)]
        weight = np.array([fact[s] * fact[n - s - 1] / fact[n] for s in range(n)])
        # column j: the masks without bit j, ascending (a zero bit inserted at j)
        r = np.arange(1 << (n - 1))[:, None]
        low = (1 << positions) - 1
        without = (r & ~low) << 1 | r & low
        sizes = np.count_nonzero(members, axis=1)
        terms = weight[sizes[without]] * (v[without | 1 << positions] - v[without])
        return _sum_in_order(terms)

    walks = np.stack([stream(seed, "shapley-perm", p).permutation(n) for p in range(num_perms)])
    # step[p, j]: when walk p adds position j; its prefix k holds the positions added before k
    step = np.argsort(walks, axis=1)
    prefixes = (step[:, None, :] < np.arange(n + 1)[:, None]).reshape(-1, n)
    # distinct prefixes in first-seen order; walk 0's empty prefix is the first row
    _, first, inverse = np.unique(
        np.packbits(prefixes, axis=1), axis=0, return_index=True, return_inverse=True
    )
    seen = np.argsort(first)
    row_of = np.empty_like(seen)
    row_of[seen] = np.arange(len(seen))
    rows = row_of[inverse.reshape(-1)].reshape(num_perms, n + 1)
    v = _values(value_fn, prefixes[first[seen]])
    gains = v[rows[:, 1:]] - v[rows[:, :-1]]
    return _sum_in_order(np.take_along_axis(gains, step, axis=1)) / num_perms


def _values(value_fn: Callable, members: np.ndarray) -> np.ndarray:
    """value_fn's values of the membership rows, checked for count and finiteness."""
    values = np.asarray(value_fn(members), dtype=np.float64)
    if values.shape != (len(members),):
        raise ValueError(f"value_fn returned {values.size} values for {len(members)} coalitions")
    bad = ~np.isfinite(values)
    if bad.any():
        raise FloatingPointError(f"value_fn returned non-finite {values[bad][0]}")
    return values


def _sum_in_order(terms: np.ndarray) -> np.ndarray:
    """Column sums of terms, each added row after row onto 0.0, as a running total would be."""
    return 0.0 + np.add.accumulate(terms, axis=0)[-1]


def fair_weights(
    phi: np.ndarray,
    sample_counts: np.ndarray,
    eps_smooth: float,
    delta_size: float,
) -> np.ndarray:
    """Smoothed Shapley shares with a log-size debias factor, renormalized.

    raw_i = (phi_i + eps) / sum_j(phi_j + eps) * 1 / (1 + delta * ln|D_i|);
    negative phi is clamped to 0 before smoothing, and the raw weights are
    renormalized to sum to 1 so aggregation stays a convex combination.
    """
    phi = np.maximum(np.asarray(phi, dtype=np.float64), 0.0)
    counts = np.asarray(sample_counts, dtype=np.float64)
    if np.any(counts < 1):
        raise ValueError("sample counts must be >= 1")
    if eps_smooth < 0 or delta_size < 0:
        raise ValueError("eps_smooth and delta_size must be nonnegative")
    smoothed = phi + eps_smooth
    denom = smoothed.sum()
    if denom <= 0:
        raise ValueError("all raw weights are zero; nothing to aggregate")
    raw = (smoothed / denom) / (1.0 + delta_size * np.log(counts))
    total = raw.sum()
    if total <= 0:
        raise ValueError("all raw weights are zero; nothing to aggregate")
    w = raw / total
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("weights must sum to 1")
    return w


def _stack_variants(variants: list[ModelParams]) -> tuple[Arch, np.ndarray]:
    """(shared architecture, variant thetas as the rows of one matrix)."""
    if not variants:
        raise ValueError("no variants to aggregate")
    arch = variants[0].arch
    if any(v.arch != arch for v in variants):
        raise ValueError("variants must share one architecture")
    return arch, np.stack([v.theta for v in variants])


def aggregate_messengers(variants: list[ModelParams], weights: np.ndarray) -> ModelParams:
    """Coordinate-wise convex combination of same-architecture variants."""
    arch, stacked = _stack_variants(variants)
    w = np.asarray(weights, dtype=np.float64)
    if len(w) != len(stacked):
        raise ValueError("one weight per variant required")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("weights must sum to 1")
    return ModelParams(arch, w @ stacked)


def robust_aggregate(
    variants: list[ModelParams],
    method: str,
    f: int = 0,
    weights: np.ndarray | None = None,
) -> ModelParams:
    """Byzantine-robust coordinate-wise consensus.

    method is trimmed_mean or coordinate_median. trimmed_mean drops the f
    smallest and f largest values per coordinate, then averages the rest —
    weighted, if weights are given, with the surviving weights renormalized
    per coordinate. coordinate_median takes the per-coordinate median (mean
    of the middle two for even counts) and ignores f and weights.
    """
    if method not in ("trimmed_mean", "coordinate_median"):
        raise ValueError(f"unknown robust method {method!r}")
    if f < 0:
        raise ValueError("f must be nonnegative")
    arch, stacked = _stack_variants(variants)
    n = stacked.shape[0]
    if method == "coordinate_median":
        return ModelParams(arch, np.median(stacked, axis=0))
    if n <= 2 * f:
        raise ValueError(f"trimmed_mean needs cohort > 2f (got {n} <= {2 * f})")
    order = np.argsort(stacked, axis=0, kind="stable")
    keep = order[f : n - f, :]
    cols = np.arange(stacked.shape[1])
    kept_vals = stacked[keep, cols]
    if weights is None:
        return ModelParams(arch, kept_vals.mean(axis=0))
    w = np.asarray(weights, dtype=np.float64)
    kept_w = w[keep]
    sums = kept_w.sum(axis=0)
    if np.any(sums <= 0):
        raise ValueError("surviving weights sum to zero on some coordinate")
    return ModelParams(arch, (kept_vals * kept_w).sum(axis=0) / sums)


def fairness_gap(per_client_accuracy: np.ndarray) -> float:
    """Max minus min accuracy; 0 for a single client."""
    acc = np.asarray(per_client_accuracy, dtype=np.float64)
    if acc.size == 0:
        raise ValueError("need at least one accuracy")
    return float(acc.max() - acc.min())


def monitor_and_adjust(gap: float, theta_fair: float, lambda2: float) -> float:
    """Escalate the fairness penalty by 10% whenever the gap breaches theta."""
    if lambda2 <= 0:
        raise ValueError("lambda2 must be positive")
    return 1.1 * lambda2 if gap > theta_fair else lambda2


def gini(values: np.ndarray) -> float:
    """Mean absolute pairwise difference over twice the mean, in [0, 1]."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("need at least one value")
    if np.any(v < 0):
        raise ValueError("values must be nonnegative")
    mean = v.mean()
    if mean == 0:
        raise ValueError("all values are zero; Gini undefined")
    # O(n log n) via the sorted-rank identity; equals the pairwise formula
    srt = np.sort(v)
    n = v.size
    ranks = np.arange(1, n + 1)
    return float(np.sum((2 * ranks - n - 1) * srt) / (n * n * mean))
