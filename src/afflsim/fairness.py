"""Shapley valuation, fair weighting, robust aggregation, inequality measures.

Shapley values feed size-debiased aggregation weights; trimmed-mean or
coordinate-median consensus tolerates Byzantine variants; the fairness gap
and Gini coefficient monitor equity round over round.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .models import Arch, ModelParams
from .rng import stream

# Largest cohort exact Shapley enumerates (2^n coalitions).
EXACT_MAX_CLIENTS = 10


@dataclass(frozen=True)
class FairWeights:
    """Shapley estimates and the normalized aggregation weights they induce."""

    phi: np.ndarray
    w: np.ndarray
    eps_smooth: float
    delta_size: float

    def __post_init__(self):
        if np.any(self.w < 0):
            raise ValueError("weights must be nonnegative")
        if abs(self.w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")


@dataclass(frozen=True)
class RobustAggConfig:
    method: str = "trimmed_mean"  # trimmed_mean | coordinate_median
    f: int = 0

    def __post_init__(self):
        if self.method not in ("trimmed_mean", "coordinate_median"):
            raise ValueError(f"unknown robust method {self.method!r}")
        if self.f < 0:
            raise ValueError("f must be nonnegative")


def shapley_estimate(
    cohort_ids: list[int],
    value_fn: Callable,
    mode: str = "exact",
    num_perms: int = 1000,
    seed: int = 0,
) -> np.ndarray:
    """Per-client Shapley values of a coalition value function.

    exact mode enumerates all 2^n coalitions (n <= EXACT_MAX_CLIENTS);
    monte_carlo averages marginal contributions over num_perms permutations
    drawn from counter-based streams, so estimates are identical at any
    parallelism. Every coalition the estimate needs is collected first,
    each distinct one once, and value_fn is called once with the list of
    them: each a tuple of client ids in ascending order, the empty tuple
    included. It must return one finite value per coalition, in order, so
    a caller can value them all in one batch (the harness stacks a round's
    variants into one matrix and evaluates blocks of coalition means in one
    stacked forward).
    """
    ids = list(cohort_ids)
    n = len(ids)
    if n == 0:
        raise ValueError("empty cohort")
    if mode == "exact":
        if n > EXACT_MAX_CLIENTS:
            raise ValueError(f"exact mode supports at most {EXACT_MAX_CLIENTS} clients")
    elif mode != "monte_carlo":
        raise ValueError(f"unknown mode {mode!r}")
    elif num_perms < 1:
        raise ValueError("num_perms must be >= 1")

    # coalitions are keyed by a bitmask over cohort positions
    coalitions: list[tuple[int, ...]] = [()]
    phi = np.zeros(n)
    if mode == "exact":
        # coalition `mask` sits at index mask: the coalition without its
        # lowest position, plus that position's id
        for mask in range(1, 1 << n):
            low = mask & -mask
            members = list(coalitions[mask ^ low])
            bisect.insort(members, ids[low.bit_length() - 1])
            coalitions.append(tuple(members))
        v = _values(value_fn, coalitions)
        fact = [math.factorial(k) for k in range(n + 1)]
        for mask in range(1 << n):
            size = mask.bit_count()
            v_s = v[mask]
            weight = fact[size] * fact[n - size - 1] / fact[n]
            for j in range(n):
                if not mask >> j & 1:
                    phi[j] += weight * (v[mask | 1 << j] - v_s)
        return phi

    slot = {0: 0}
    walks = []
    for p in range(num_perms):
        order = stream(seed, "shapley-perm", p).permutation(n)
        mask = 0
        members: list[int] = []
        slots = [0]
        for j in order:
            mask |= 1 << int(j)
            bisect.insort(members, ids[j])
            if mask not in slot:
                slot[mask] = len(coalitions)
                coalitions.append(tuple(members))
            slots.append(slot[mask])
        walks.append((order, slots))
    v = _values(value_fn, coalitions)
    for order, slots in walks:
        v_prev = v[slots[0]]
        for j, s in zip(order, slots[1:]):
            v_new = v[s]
            phi[j] += v_new - v_prev
            v_prev = v_new
    return phi / num_perms


def _values(value_fn: Callable, coalitions: list[tuple[int, ...]]) -> list[float]:
    """value_fn's values of the coalitions, checked for count and finiteness."""
    values = [float(v) for v in value_fn(coalitions)]
    if len(values) != len(coalitions):
        raise ValueError(f"value_fn returned {len(values)} values for {len(coalitions)} coalitions")
    for v in values:
        if not math.isfinite(v):
            raise FloatingPointError(f"value_fn returned non-finite {v}")
    return values


def fair_weights(
    phi: np.ndarray,
    sample_counts: np.ndarray,
    eps_smooth: float,
    delta_size: float,
) -> FairWeights:
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
    return FairWeights(phi=phi, w=raw / total, eps_smooth=eps_smooth, delta_size=delta_size)


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
    config: RobustAggConfig,
    weights: np.ndarray | None = None,
) -> ModelParams:
    """Byzantine-robust coordinate-wise consensus.

    trimmed_mean drops the f smallest and f largest values per coordinate,
    then averages the rest — weighted, if weights are given, with the
    surviving weights renormalized per coordinate. coordinate_median takes
    the per-coordinate median (mean of the middle two for even counts) and
    ignores weights.
    """
    arch, stacked = _stack_variants(variants)
    n = stacked.shape[0]
    if config.method == "coordinate_median":
        return ModelParams(arch, np.median(stacked, axis=0))
    f = config.f
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
