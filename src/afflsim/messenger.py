"""Adaptive knowledge messenger.

The messenger is a small shared model that moves knowledge between server
and clients by distillation. This module covers: capacity selection over a
fixed template grid (probe-based loss proxy + communication and fairness
penalties), function-preserving resizing between templates, softmax
curriculum weights, tier-weighted knowledge injection into clients,
per-client distillation back into messenger variants, and linear-encoder
multi-modal fusion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .federation import DatasetShard
from .models import (
    Arch,
    ModelParams,
    Workspace,
    _buffer,
    _label_index,
    _unpack,
    backprop,
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
    if new_arch.hidden == 0:
        w_old, b_old = _unpack(params.arch, params.theta)
        w_new, b_new = _unpack(new_arch, theta)
        c = min(w_old.shape[1], w_new.shape[1])
        w_new[:, :c] = w_old[:, :c]
        b_new[:c] = b_old[:c]
        return ModelParams(new_arch, theta)
    w1o, b1o, w2o, b2o = _unpack(params.arch, params.theta)
    w1n, b1n, w2n, b2n = _unpack(new_arch, theta)
    h = min(params.arch.hidden, new_arch.hidden)
    w1n[:, :h] = w1o[:, :h]
    b1n[:h] = b1o[:h]
    w2n[:h, :] = w2o[:h, :]
    b2n[:] = b2o
    if new_arch.hidden > h:
        w1n[:, h:] = 0.01 * rng.normal(0.0, 1.0, w1n[:, h:].shape)
        b1n[h:] = 0.01 * rng.normal(0.0, 1.0, b1n[h:].shape)
        # w2 rows for new units stay zero: output unchanged until trained
    return ModelParams(new_arch, theta)


def _distill_toward_teacher(
    params: ModelParams,
    features: np.ndarray,
    teacher_probs: np.ndarray,
    steps: int,
    lr: float,
) -> tuple[ModelParams, float]:
    """Train params to match fixed teacher probabilities; returns final KL."""
    current = params.copy()
    n = features.shape[0]
    ws: Workspace = {}
    for _ in range(steps):
        z, hidden = forward(current, features, ws)
        delta = softmax(z, ws)
        delta -= teacher_probs
        delta /= n
        grad = backprop(current, features, delta, hidden, ws)
        grad *= lr
        current.theta -= grad
    p = softmax(logits(current, features))
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
            candidate, probe_shard.features, teacher_probs, protocol.probe_steps, protocol.probe_lr
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
    """(logits, hidden activations or None, softmax probabilities) of a model."""

    logits: np.ndarray
    hidden: np.ndarray | None
    probs: np.ndarray


def messenger_forward(
    messenger: ModelParams, shard: DatasetShard, ws: Workspace | None = None
) -> MessengerForward:
    """A messenger's forward pass and softmax on a shard.

    Without a workspace the arrays are new, so the result can be shared.
    The frozen messenger's forward is computed once per client, into the
    workspace of that client's distillation, which overwrites it only
    after its first step has used it.
    """
    z, hidden = forward(messenger, shard.features, ws)
    return MessengerForward(z, hidden, softmax(z, ws))


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
    ws: Workspace | None = None,
) -> ModelParams:
    """Gradient steps on the curriculum-weighted distillation loss.

    Only the client tower moves; the messenger is frozen. messenger_fwd,
    if given, must be messenger_forward(messenger, shard) and must not
    live in ws. ws, if given, is the client-tower workspace the steps use;
    train_local on the same shard can share it.
    """
    w = _tier_sample_weights(shard, pi)
    if messenger_fwd is None:
        messenger_fwd = messenger_forward(messenger, shard)
    p_m = messenger_fwd.probs
    current = client.copy()
    ws = {} if ws is None else ws
    for _ in range(steps):
        z, hidden = forward(current, shard.features, ws)
        delta = softmax(z, ws)
        delta -= p_m
        delta *= w[:, None]
        grad = backprop(current, shard.features, delta, hidden, ws)
        grad *= lr
        current.theta -= grad
    return current


def distill_to_messenger(
    messenger: ModelParams,
    client: ModelParams,
    shard: DatasetShard,
    lambda_kl: float,
    steps: int,
    lr: float,
    messenger_fwd: MessengerForward | None = None,
    client_probs: np.ndarray | None = None,
    ws: Workspace | None = None,
) -> ModelParams:
    """Train a per-client messenger variant; the client tower is frozen.

    messenger_fwd, if given, must be messenger_forward(messenger, shard);
    it stands in for the first step's forward pass. client_probs, if
    given, must be softmax(logits(client, shard.features)). Neither is
    written. ws, if given, is the messenger workspace the steps use.
    messenger_fwd may live in it, as the first step reads it before any
    step writes a forward into ws; client_probs may not.
    """
    n = shard.sample_count
    p_c = softmax(logits(client, shard.features)) if client_probs is None else client_probs
    ws = {} if ws is None else ws
    if any(np.may_share_memory(p_c, buf) for buf in ws.values()):
        raise ValueError("client_probs lives in the workspace distillation overwrites")
    onehot = np.zeros((shard.num_classes, n)).T  # column-major, as the kernels' arrays
    np.put(onehot.T, _label_index(shard.labels), 1.0)
    current = messenger.copy()
    for step in range(steps):
        if step == 0 and messenger_fwd is not None:
            z, hidden, p_m = messenger_fwd
        else:
            z, hidden, p_m = messenger_forward(current, shard, ws)
        # max and min propagate NaN, so both are finite exactly when every
        # logit is; initial=0.0 lets an empty shard pass, as before
        if not (math.isfinite(z.max(initial=0.0)) and math.isfinite(z.min(initial=0.0))):
            raise FloatingPointError("non-finite distillation loss")
        # ((p_m - onehot) + lambda_kl * (p_m - p_c)) / n
        delta = np.subtract(p_m, onehot, out=_buffer(ws, "delta", onehot.shape))
        kl_delta = np.subtract(p_m, p_c, out=_buffer(ws, "kl_delta", onehot.shape))
        kl_delta *= lambda_kl
        delta += kl_delta
        delta /= n
        grad = backprop(current, shard.features, delta, hidden, ws)
        grad *= lr
        current.theta -= grad
    return current


@dataclass(frozen=True)
class FusionConfig:
    """Pre-softmax modality weights plus one linear encoder per modality."""

    modality_ids: tuple[int, ...]
    raw_weights: tuple[float, ...]
    encoders: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.modality_ids:
            raise ValueError("fusion needs at least one modality")
        if len({e.shape[1] for e in self.encoders}) != 1:
            raise ValueError("all encoders must map into the same fused dimension")
        if not (len(self.modality_ids) == len(self.raw_weights) == len(self.encoders)):
            raise ValueError("modality ids, weights and encoders must align")

    def normalized_weights(self, present: tuple[int, ...]) -> dict[int, float]:
        """Softmax weights, renormalized over the present modalities."""
        raw = {m: w for m, w in zip(self.modality_ids, self.raw_weights)}
        z = np.array([raw[m] for m in present])
        w = softmax(z)
        return {m: float(v) for m, v in zip(present, w)}


def fuse_modalities(inputs: dict[int, np.ndarray], fusion: FusionConfig) -> np.ndarray:
    """Weighted sum of encoded modalities, weights renormalized over present ones."""
    present = tuple(m for m in fusion.modality_ids if m in inputs)
    if not present:
        raise ValueError("no configured modality present in inputs")
    weights = fusion.normalized_weights(present)
    encoder = {m: e for m, e in zip(fusion.modality_ids, fusion.encoders)}
    fused = None
    for m in present:
        x = np.asarray(inputs[m], dtype=np.float64)
        e = encoder[m]
        if x.shape[-1] != e.shape[0]:
            raise ValueError(
                f"modality {m} input width {x.shape[-1]} != encoder rows {e.shape[0]}"
            )
        term = weights[m] * (x @ e)
        fused = term if fused is None else fused + term
    return fused
