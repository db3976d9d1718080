"""Adaptive knowledge messenger.

The messenger is a small shared model that moves knowledge between server
and clients by distillation. This module covers: capacity selection over a
fixed template grid (probe-based loss proxy + communication and fairness
penalties), function-preserving resizing between templates, softmax
curriculum weights, tier-weighted knowledge injection into clients, and
per-client distillation back into messenger variants. Multi-modal fusion
happens once, before the first round, in harness.init_state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .federation import DatasetShard
from .models import (
    Arch,
    ModelParams,
    _all_finite,
    _descend,
    _label_index,
    _layers,
    backprop,  # noqa: F401 -- unused here; perfbench's tracer checks that messenger holds it
    forward,
    logits,
    safe_log,
    softmax,
)
from .rng import stream

if TYPE_CHECKING:  # pragma: no cover
    from .config import ProtocolBlock


@dataclass(frozen=True)
class CapacityDecision:
    chosen_index: int
    # per template: (loss_proxy, comm_cost, fairness_penalty, total)
    composite_scores: tuple[tuple[float, float, float, float], ...]


@dataclass(frozen=True)
class CurriculumSchedule:
    """Softmax stage schedule: stage k has offset tau[k] and scale sigma[k]."""

    num_tiers: int
    tau: tuple[float, ...]
    sigma: tuple[float, ...]

    def __post_init__(self):
        if self.num_tiers < 1:
            raise ValueError("need at least one curriculum stage")
        if len(self.tau) != self.num_tiers or len(self.sigma) != self.num_tiers:
            raise ValueError("tau and sigma must have one entry per stage")
        if any(s <= 0 for s in self.sigma):
            raise ValueError("sigma entries must be positive")

    @classmethod
    def spread(cls, num_tiers: int, horizon: int) -> "CurriculumSchedule":
        """Offsets spread evenly over the horizon with shrinking sigmas.

        Sigmas must differ per stage: with equal sigmas the common t/sigma
        term cancels inside the softmax and the weights never move. Later
        stages get smaller sigmas, so weight flows easy -> hard over time.
        """
        tau = tuple(horizon * k / max(1, num_tiers) for k in range(num_tiers))
        sigma = tuple(max(1.0, horizon / (2.0 * (k + 1))) for k in range(num_tiers))
        return cls(num_tiers, tau, sigma)


def curriculum_weights(t: float, schedule: CurriculumSchedule) -> np.ndarray:
    """Stage weights softmax((t - tau_k) / sigma_k); sums to 1."""
    z = (t - np.asarray(schedule.tau)) / np.asarray(schedule.sigma)
    return softmax(z)


def resize_params(params: ModelParams, new_arch: Arch, seed: int) -> ModelParams:
    """Re-fit parameters to a new template, preserving the function.

    Same-depth resizes copy overlapping blocks; new hidden units get small
    seeded input-side weights and zero output rows, so the mapped function
    is unchanged at the moment of resize while the units stay trainable.
    Depth changes start from a fresh seeded init (no blocks overlap).
    """
    if new_arch == params.arch:
        return params.copy()
    rng = stream(seed, "resize", params.arch.descriptor, new_arch.descriptor)
    if new_arch.depth != params.arch.depth or new_arch.in_dim != params.arch.in_dim:
        from .models import init_params

        return init_params(new_arch, seed)
    theta = np.zeros(new_arch.param_count)
    # layers are [W; b]: a column is one unit's weights and bias
    old, new = params.layers, _layers(new_arch, theta)
    if new_arch.hidden == 0:
        c = min(old[0].shape[1], new[0].shape[1])
        new[0][:, :c] = old[0][:, :c]
        return ModelParams(new_arch, theta)
    h = min(params.arch.hidden, new_arch.hidden)
    new[0][:, :h] = old[0][:, :h]
    new[1][:h] = old[1][:h]
    new[1][-1] = old[1][-1]
    if new_arch.hidden > h:
        new[0][:, h:] = 0.01 * rng.normal(0.0, 1.0, new[0][:, h:].shape)
        # W2 rows for new units stay zero: output unchanged until trained
    return ModelParams(new_arch, theta)


def _distill_toward_teacher(
    params: ModelParams,
    design: np.ndarray,
    teacher_probs: np.ndarray,
    steps: int,
    lr: float,
) -> tuple[ModelParams, float]:
    """Train params to match fixed teacher probabilities; returns final KL.

    The step's scale is lr/n and its target lr * teacher_probs / n.
    """
    scale = lr / max(design.shape[0], 1)
    current = _descend(params, design, steps, scale, teacher_probs * scale)
    p = softmax(logits(current, design))
    kl = float(
        np.mean(np.sum(teacher_probs * (safe_log(teacher_probs) - safe_log(p)), axis=1))
    )
    # KL is nonnegative; clamp float dust so exact ties stay ties
    return current, max(kl, 0.0)


def select_capacity(
    templates: tuple[Arch, ...],
    protocol: ProtocolBlock,
    probe_shard: DatasetShard,
    teacher_logits: np.ndarray,
    client_loss_spread: float,
    prev: CapacityDecision | None,
    current: ModelParams,
    seed: int,
    lambda2: float,
) -> CapacityDecision:
    """Pick the messenger template minimizing probe loss + penalties.

    templates ascend in param count. Every call probes the whole grid; the
    caller decides on which rounds to call. Each template is probed by
    resizing the current messenger and distilling probe_steps toward the
    averaged-logit teacher; its score is probe KL + lambda1 * normalized
    param count + lambda2 * loss spread scaled down linearly as capacity
    grows. lambda2 is the run's current value, which fairness escalation
    raises. Ties go to the smaller index.

    prev, the decision in force before this call (None for none), does not
    enter the choice; the tracer in perfbench binds it by name to count
    capacity switches.
    """
    if probe_shard.sample_count == 0:
        raise ValueError("probe shard is empty")
    teacher_probs = softmax(np.asarray(teacher_logits, dtype=np.float64))
    max_pc = templates[-1].param_count
    scores = []
    for template in templates:
        candidate = resize_params(current, template, seed)
        _, kl = _distill_toward_teacher(
            candidate, probe_shard.design, teacher_probs, protocol.probe_steps, protocol.probe_lr
        )
        comm_cost = template.param_count / max_pc
        penalty_scale = 1.0 - template.param_count / max_pc
        fairness_penalty = client_loss_spread * penalty_scale
        total = kl + protocol.lambda1 * comm_cost + lambda2 * fairness_penalty
        scores.append((kl, comm_cost, fairness_penalty, total))
    totals = np.array([s[3] for s in scores])
    chosen = int(np.argmin(totals))  # argmin takes the first (smallest) index on ties
    return CapacityDecision(chosen_index=chosen, composite_scores=tuple(scores))


class MessengerForward(NamedTuple):
    """(logits, [H | 1] or None, softmax probabilities) of a model; see models.forward."""

    logits: np.ndarray
    hidden: np.ndarray | None
    probs: np.ndarray


def messenger_forward(messenger: ModelParams, shard: DatasetShard) -> MessengerForward:
    """A messenger's forward pass and softmax on a shard, as new arrays.

    The frozen messenger's forward is computed once per client and read
    by both injection and distillation; neither writes it.
    """
    z, hidden = forward(messenger, shard.design)
    return MessengerForward(z, hidden, softmax(z))


def _tier_sample_weights(shard: DatasetShard, pi: np.ndarray) -> np.ndarray:
    """Per-sample weights pi[tier]/|tier|; empty tiers contribute nothing."""
    if shard.difficulty_tiers is None:
        raise ValueError("shard needs difficulty tiers before injection")
    if shard.num_tiers != len(pi):
        raise ValueError(
            f"curriculum has {len(pi)} stages but shard has {shard.num_tiers} tiers"
        )
    tiers = shard.difficulty_tiers
    counts = np.bincount(tiers, minlength=len(pi)).astype(np.float64)
    occupied = counts > 0
    per_tier = np.zeros(len(pi))
    per_tier[occupied] = np.asarray(pi)[occupied] / counts[occupied]
    return per_tier[tiers]


def inject_knowledge(
    client: ModelParams,
    messenger: ModelParams,
    shard: DatasetShard,
    pi: np.ndarray,
    steps: int,
    lr: float,
    messenger_fwd: MessengerForward | None = None,
) -> ModelParams:
    """Gradient steps on the curriculum-weighted distillation loss.

    Only the client tower moves; the messenger is frozen. The step's scale
    is lr * w, w the per-sample tier weights, and its target lr * w * p_m,
    p_m the messenger's probabilities. messenger_fwd, if given, must be
    messenger_forward(messenger, shard); it is read, never written.
    """
    scale = lr * _tier_sample_weights(shard, pi)
    if messenger_fwd is None:
        messenger_fwd = messenger_forward(messenger, shard)
    target = messenger_fwd.probs * scale[:, None]
    return _descend(client, shard.design, steps, scale, target)


def distill_to_messenger(
    messenger: ModelParams,
    client: ModelParams,
    shard: DatasetShard,
    lambda_kl: float,
    steps: int,
    lr: float,
    messenger_fwd: MessengerForward | None = None,
    client_probs: np.ndarray | None = None,
) -> ModelParams:
    """Train a per-client messenger variant; the client tower is frozen.

    The loss is cross-entropy plus lambda_kl * KL(client || messenger),
    so the step's scale is lr * (1 + lambda_kl) / n and its target
    lr * (onehot + lambda_kl * p_c) / n, p_c the client's probabilities.

    messenger_fwd, if given, must be messenger_forward(messenger, shard);
    its logits and hidden units stand in for the first step's forward
    pass. client_probs, if given, must be
    softmax(logits(client, shard.design)). Neither is written.
    """
    n = shard.sample_count
    p_c = softmax(logits(client, shard.design)) if client_probs is None else client_probs
    per_row = lr / max(n, 1)
    target = p_c * lambda_kl  # column-major, as p_c
    at_label = _label_index(shard.labels)
    np.put(target.T, at_label, np.take(target.T, at_label) + 1.0)
    target *= per_row
    first = None if messenger_fwd is None else messenger_fwd[:2]
    return _descend(
        messenger, shard.design, steps, per_row * (1.0 + lambda_kl), target, first, _check_logits
    )


def _check_logits(z: np.ndarray, row_max: np.ndarray) -> None:
    if not _all_finite(z):
        raise FloatingPointError("non-finite distillation loss")
