"""Clipped-Gaussian differential privacy and a membership-inference harness.

Client updates are L2-clipped and perturbed with i.i.d. Gaussian noise
whose std is noise_multiplier * clip_norm. Accounting uses the analytic
Gaussian mechanism per round with linear composition across rounds —
conservative and easy to audit. The loss-threshold membership-inference
attack measures how much a model leaks about its training members.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .federation import DatasetShard
from .models import ModelParams, logits, safe_log, softmax
from .rng import stream


@dataclass(frozen=True)
class PrivacyParams:
    clip_norm: float = 1.0
    noise_multiplier: float = 0.0
    delta: float = 1e-5
    enabled: bool = False

    def __post_init__(self):
        if self.clip_norm <= 0:
            raise ValueError("clip_norm must be positive")
        if self.noise_multiplier < 0:
            raise ValueError("noise_multiplier must be nonnegative")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")

    def check_delta(self, min_shard_size: int) -> None:
        """Warn when delta is not cryptographically small for the data."""
        if self.delta >= 1.0 / max(1, min_shard_size):
            warnings.warn(
                f"delta={self.delta} >= 1/min_shard_size={1.0 / min_shard_size:.2e}; "
                "guarantee is weak for the smallest shard",
                stacklevel=2,
            )


@dataclass(frozen=True)
class PrivacySpend:
    per_round_eps: float
    total_eps: float
    rounds_counted: int

    def __post_init__(self):
        if abs(self.total_eps - self.per_round_eps * self.rounds_counted) > 1e-9:
            raise ValueError("total must equal per-round epsilon times rounds")


def clip_update(delta_params: np.ndarray, clip_norm: float) -> np.ndarray:
    """Project onto the L2 ball of radius clip_norm.

    Finite entries whose squared norm overflows get their norm from v
    scaled by its largest magnitude, so they are clipped, not zeroed.
    """
    if clip_norm <= 0:
        raise ValueError("clip_norm must be positive")
    v = np.asarray(delta_params, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise ValueError("update contains non-finite values")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if math.isinf(norm):
        largest = float(np.max(np.abs(v)))
        norm = largest * float(np.linalg.norm(v / largest))
    if norm <= clip_norm:
        return v.copy()
    return v * (clip_norm / norm)


def privatize(delta_params: np.ndarray, params: PrivacyParams, seed: int) -> np.ndarray:
    """Clip, then add seeded Gaussian noise of std noise_multiplier*clip_norm."""
    if not params.enabled:
        raise ValueError("privatize called with privacy disabled")
    clipped = clip_update(delta_params, params.clip_norm)
    if params.noise_multiplier == 0:
        return clipped
    rng = stream(seed, "dp-noise")
    sigma = params.noise_multiplier * params.clip_norm
    return clipped + rng.normal(0.0, sigma, clipped.shape)


def account_privacy(rounds: int, params: PrivacyParams) -> PrivacySpend:
    """Linear composition of the analytic Gaussian mechanism's per-round eps."""
    if rounds < 0:
        raise ValueError("rounds must be nonnegative")
    if params.noise_multiplier <= 0:
        raise ValueError("noise_multiplier must be positive to account a finite epsilon")
    per_round = float(np.sqrt(2.0 * np.log(1.25 / params.delta)) / params.noise_multiplier)
    return PrivacySpend(
        per_round_eps=per_round, total_eps=per_round * rounds, rounds_counted=rounds
    )


def noise_multiplier_for_budget(total_eps: float, rounds: int, delta: float) -> float:
    """Smallest multiplier whose linear-composed spend stays within total_eps."""
    if total_eps <= 0 or rounds < 1:
        raise ValueError("need a positive budget over at least one round")
    return float(np.sqrt(2.0 * np.log(1.25 / delta)) * rounds / total_eps)


def _per_sample_losses(model: ModelParams, shard: DatasetShard) -> np.ndarray:
    p = softmax(logits(model, shard.design))
    return -safe_log(p[np.arange(shard.sample_count), shard.labels])


def mia_attack(
    model: ModelParams,
    member_shard: DatasetShard,
    nonmember_shard: DatasetShard,
    seed: int,
) -> float:
    """Loss-threshold membership inference; returns balanced accuracy.

    The threshold is fit on a calibration half of the queries (maximizing
    balanced accuracy there) and scored on the held-out half. A model that
    does not separate member and non-member losses scores ~0.5.
    """
    if member_shard.sample_count == 0 or nonmember_shard.sample_count == 0:
        raise ValueError("member and non-member shards must be non-empty")
    if member_shard.sample_count != nonmember_shard.sample_count:
        raise ValueError("query set must be balanced")
    loss_in = _per_sample_losses(model, member_shard)
    loss_out = _per_sample_losses(model, nonmember_shard)
    rng = stream(seed, "mia-split")
    n = loss_in.size
    perm = rng.permutation(n)
    half = n // 2
    cal_idx, hold_idx = perm[:half], perm[half:]

    def balanced_acc(threshold: float, idx: np.ndarray) -> float:
        tpr = np.mean(loss_in[idx] <= threshold)
        tnr = np.mean(loss_out[idx] > threshold)
        return 0.5 * (tpr + tnr)

    candidates = np.unique(np.concatenate([loss_in[cal_idx], loss_out[cal_idx]]))
    best = max(candidates, key=lambda t: balanced_acc(t, cal_idx))
    return float(balanced_acc(best, hold_idx))


def overfit_scenario(
    seed: int,
    params: PrivacyParams | None = None,
    n_queries: int = 96,
    feature_dim: int = 32,
    num_classes: int = 4,
    train_steps: int = 600,
) -> float:
    """MIA success on a deliberately overfit model, optionally privatized.

    A small hard task (weak class separation) is memorized by an MLP; the
    attack then separates member from non-member losses. With privacy
    params given, the trained delta is clipped and noised before the
    attack, which collapses the separation.
    """
    from .config import FederationBlock
    from .federation import gen_reference_shard
    from .models import Arch, init_params, train_local

    config = FederationBlock(
        academic=0,
        regional=0,
        rural=1,
        num_classes=num_classes,
        feature_dim=feature_dim,
        concentration=1e6,
        class_separation=0.6,
        feature_noise=1.0,
    )
    member = gen_reference_shard(config, seed, n_queries, purpose="mia-member")
    nonmember = gen_reference_shard(config, seed, n_queries, purpose="mia-nonmember")
    arch = Arch(feature_dim, num_classes, hidden=32)
    model = init_params(arch, seed)
    trained = train_local(model, member, steps=train_steps, lr=0.8)
    if params is not None and params.enabled:
        delta = privatize(trained.theta - model.theta, params, seed)
        trained = ModelParams(arch, model.theta + delta)
    return mia_attack(trained, member, nonmember, seed)
