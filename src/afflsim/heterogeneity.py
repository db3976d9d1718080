"""Network heterogeneity index.

Three bounded divergence components per client — statistical (label
distribution), architectural (model descriptor) and resource (compute and
network) — combine into a per-round scalar in [0, 1], weighted by the
protocol's het_alpha, het_beta and het_gamma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .federation import ClientProfile, DatasetShard

LN2 = float(np.log(2.0))


@dataclass(frozen=True)
class HeterogeneityReport:
    per_client: tuple[tuple[float, float, float], ...]
    h_t: float


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def stat_divergence(shard: DatasetShard, global_label_dist: np.ndarray) -> float:
    """Jensen-Shannon divergence of shard labels vs the global mix, / ln 2."""
    q = np.asarray(global_label_dist, dtype=np.float64)
    if abs(q.sum() - 1.0) > 1e-9:
        raise ValueError("global label distribution must sum to 1")
    p = shard.label_histogram()
    if p.shape != q.shape:
        raise ValueError("distribution lengths differ")
    m = 0.5 * (p + q)
    jsd = 0.5 * _kl(p, m) + 0.5 * _kl(q, m)
    return min(1.0, max(0.0, jsd / LN2))


def descriptor_divergences(vectors: np.ndarray) -> np.ndarray:
    """Every row's mean range-normalized L1 distance to the other rows.

    Coordinates are scaled by their range over all rows; coordinates with
    zero range carry no information and are left out. Row i's divergence is
    the mean, over its n-1 peers j in index order, of the mean of
    |x_i - x_j| / range over the informative coordinates. A single row, or
    a matrix without informative coordinates, gives zeros.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    n = len(vectors)
    ranges = vectors.max(axis=0) - vectors.min(axis=0)
    informative = ranges > 0
    if n < 2 or not informative.any():
        return np.zeros(n)
    x = vectors[:, informative]
    diffs = np.abs(x[:, None, :] - x[None, :, :])
    diffs /= ranges[informative]
    pairwise = diffs.mean(axis=2)
    peers = pairwise[~np.eye(n, dtype=bool)].reshape(n, n - 1)
    # Each contiguous row is summed in the same pairwise order as np.mean
    # of a 1-D list of its peer distances, so values match a per-pair loop
    # bit for bit (tests/test_heterogeneity.py checks this with ==).
    return peers.mean(axis=1)


def heterogeneity_index(
    components: list[tuple[float, float, float]], weights: tuple[float, float, float]
) -> HeterogeneityReport:
    """H_t = mean over clients of alpha*D_stat + beta*D_arch + gamma*D_res.

    weights is (alpha, beta, gamma), the protocol's het_alpha, het_beta and
    het_gamma, which config parsing checks.
    """
    if not components:
        raise ValueError("no per-client components")
    arr = np.asarray(components, dtype=np.float64)
    if arr.min() < -1e-12 or arr.max() > 1.0 + 1e-12:
        raise ValueError("divergence components must lie in [0, 1]")
    h_t = float(np.mean(arr @ np.array(weights, dtype=np.float64)))
    return HeterogeneityReport(
        per_client=tuple(tuple(float(v) for v in row) for row in arr), h_t=h_t
    )


def assess_cohort(
    shards: list[DatasetShard],
    cohort: list[ClientProfile],
    global_label_dist: np.ndarray,
    weights: tuple[float, float, float],
) -> HeterogeneityReport:
    """Full per-cohort assessment; components computed in client-id order.

    A client's (stat, arch, res) components are the JSD of its labels
    against the global mix, and its descriptor_divergences entry among the
    cohort's architecture descriptors and among their (log compute
    capacity, network delay) pairs. Each descriptor matrix is built once
    for the cohort and gives every client's divergence from one pairwise
    array.
    """
    if not cohort:
        raise ValueError("cohort must be non-empty")
    arch = descriptor_divergences(np.array([p.arch_descriptor for p in cohort], dtype=np.float64))
    res = descriptor_divergences(
        np.array([[np.log(p.compute_capacity), p.network_delay] for p in cohort])
    )
    components = [
        (stat_divergence(shard, global_label_dist), float(a), float(r))
        for shard, a, r in zip(shards, arch, res)
    ]
    return heterogeneity_index(components, weights)
