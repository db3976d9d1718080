"""Small differentiable classifiers with analytic gradients.

Two families cover every protocol mechanism without an external ML stack:
multinomial logistic regression (depth 1) and a one-hidden-layer tanh MLP
(depth 2). Parameters live in one flat float64 vector so models can be
clipped, noised, averaged and trimmed coordinate-wise.

All training is full batch, so a (params, shard, steps, lr) call is a pure
deterministic function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .rng import stream

if TYPE_CHECKING:  # pragma: no cover
    from .federation import DatasetShard


@dataclass(frozen=True)
class Arch:
    """Classifier architecture. hidden == 0 means logistic regression."""

    in_dim: int
    num_classes: int
    hidden: int = 0

    def __post_init__(self):
        if self.in_dim < 1 or self.num_classes < 2 or self.hidden < 0:
            raise ValueError(f"invalid architecture {self}")

    @property
    def depth(self) -> int:
        return 1 if self.hidden == 0 else 2

    @property
    def param_count(self) -> int:
        if self.hidden == 0:
            return (self.in_dim + 1) * self.num_classes
        return (self.in_dim + 1) * self.hidden + (self.hidden + 1) * self.num_classes

    @property
    def descriptor(self) -> tuple[int, int, int]:
        """(depth, hidden width, param count) triple used by divergence metrics."""
        return (self.depth, self.hidden, self.param_count)


@dataclass
class ModelParams:
    """Flat parameter vector plus its architecture descriptor."""

    arch: Arch
    theta: np.ndarray

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        if self.theta.shape != (self.arch.param_count,):
            raise ValueError(
                f"theta has length {self.theta.shape}, arch needs {self.arch.param_count}"
            )

    @property
    def param_count(self) -> int:
        return self.arch.param_count

    def copy(self) -> "ModelParams":
        return ModelParams(self.arch, self.theta.copy())


def init_params(arch: Arch, seed: int) -> ModelParams:
    """Seeded Gaussian init scaled by fan-in; deterministic per (arch, seed)."""
    rng = stream(seed, "init", arch.descriptor)
    theta = rng.normal(0.0, 1.0, arch.param_count)
    if arch.hidden == 0:
        theta *= 0.01
    else:
        w1, b1, w2, b2 = _unpack(arch, theta)
        w1 *= 1.0 / np.sqrt(arch.in_dim)
        b1 *= 0.01
        w2 *= 1.0 / np.sqrt(arch.hidden)
        b2 *= 0.01
    return ModelParams(arch, theta)


def _unpack(arch: Arch, theta: np.ndarray):
    """Views into the flat vector: (W, b) or (W1, b1, W2, b2)."""
    d, c, h = arch.in_dim, arch.num_classes, arch.hidden
    if h == 0:
        w = theta[: d * c].reshape(d, c)
        b = theta[d * c :]
        return w, b
    n1 = d * h
    w1 = theta[:n1].reshape(d, h)
    b1 = theta[n1 : n1 + h]
    n2 = n1 + h
    w2 = theta[n2 : n2 + h * c].reshape(h, c)
    b2 = theta[n2 + h * c :]
    return w1, b1, w2, b2


# Below this many classes numpy's row sum adds left to right, which a
# running column sum reproduces bit for bit; from 8 up it sums pairwise.
_COLUMN_MAX_CLASSES = 8


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax (1-D input treated as a single row).

    2-D inputs with few classes reduce column by column: a row-wise max
    or sum over a short axis is several times slower than a few
    elementwise passes over whole columns, and gives the same bits.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim == 2 and 2 <= z.shape[1] < _COLUMN_MAX_CLASSES:
        cols = z.shape[1]
        m = np.maximum(z[:, 0], z[:, 1])
        for j in range(2, cols):
            np.maximum(m, z[:, j], out=m)
        e = z - m[:, None]
        np.exp(e, out=e)
        s = e[:, 0] + e[:, 1]
        for j in range(2, cols):
            s += e[:, j]
        e /= s[:, None]
        return e
    one_dim = z.ndim == 1
    if one_dim:
        z = z[None, :]
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    return p[0] if one_dim else p


def forward(params: ModelParams, features: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """(logits, hidden activations or None); hidden feeds backprop."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != params.arch.in_dim:
        raise ValueError(
            f"features shape {features.shape} incompatible with in_dim {params.arch.in_dim}"
        )
    if params.arch.hidden == 0:
        w, b = _unpack(params.arch, params.theta)
        return features @ w + b, None
    w1, b1, w2, b2 = _unpack(params.arch, params.theta)
    hidden = np.tanh(features @ w1 + b1)
    return hidden @ w2 + b2, hidden


def logits(params: ModelParams, features: np.ndarray) -> np.ndarray:
    return forward(params, features)[0]


def backprop(
    params: ModelParams,
    features: np.ndarray,
    out_delta: np.ndarray,
    hidden: np.ndarray | None = None,
) -> np.ndarray:
    """Gradient of any loss w.r.t. theta given dLoss/dlogits (n x C).

    Shared by cross-entropy and distillation losses: they differ only in
    the output delta. Pass the hidden activations from forward() to skip
    recomputing them.
    """
    grad = np.empty_like(params.theta)
    if params.arch.hidden == 0:
        w, b = _unpack(params.arch, params.theta)
        gw, gb = _unpack(params.arch, grad)
        gw[:] = features.T @ out_delta
        gb[:] = out_delta.sum(axis=0)
        return grad
    w1, b1, w2, b2 = _unpack(params.arch, params.theta)
    gw1, gb1, gw2, gb2 = _unpack(params.arch, grad)
    if hidden is None:
        hidden = np.tanh(features @ w1 + b1)
    gw2[:] = hidden.T @ out_delta
    gb2[:] = out_delta.sum(axis=0)
    hid_delta = (out_delta @ w2.T) * (1.0 - hidden**2)
    gw1[:] = features.T @ hid_delta
    gb1[:] = hid_delta.sum(axis=0)
    return grad


def ce_loss_and_grad(
    params: ModelParams, features: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient w.r.t. theta."""
    n = features.shape[0]
    z, hidden = forward(params, features)
    p = softmax(z)
    idx = np.arange(n)
    loss = float(-np.mean(np.log(np.maximum(p[idx, labels], 1e-300))))
    delta = p
    delta[idx, labels] -= 1.0
    return loss, backprop(params, features, delta / n, hidden)


def train_local(params: ModelParams, shard, steps: int, lr: float) -> ModelParams:
    """Full-batch cross-entropy gradient descent; input params untouched."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if lr <= 0:
        raise ValueError("lr must be positive")
    current = params.copy()
    for _ in range(steps):
        loss, grad = ce_loss_and_grad(current, shard.features, shard.labels)
        if not np.isfinite(loss):
            raise FloatingPointError(f"non-finite training loss {loss}")
        grad *= lr
        current.theta -= grad
    return current


def accuracy(z: np.ndarray, labels: np.ndarray) -> float:
    """Share of rows whose argmax logit is the label."""
    return float(np.mean(np.argmax(z, axis=1) == labels))


def evaluate(params: ModelParams, shard) -> tuple[float, float]:
    """(mean cross-entropy, argmax accuracy) on a shard."""
    if shard.features.shape[0] == 0:
        raise ValueError("cannot evaluate on an empty shard")
    z = logits(params, shard.features)
    p = softmax(z)
    n = shard.features.shape[0]
    loss = float(-np.mean(np.log(np.maximum(p[np.arange(n), shard.labels], 1e-300))))
    return loss, accuracy(z, shard.labels)


def assign_difficulty_tiers(shard, warmup: ModelParams, num_tiers: int):
    """Split samples into confidence quantiles under a warm-up model.

    Samples are ranked by the warm-up model's probability on the true
    class (ties broken by sample index) and cut into num_tiers groups of
    near-equal size; tier 0 holds the most confident samples.
    """
    n = shard.features.shape[0]
    if num_tiers < 1:
        raise ValueError("num_tiers must be >= 1")
    if num_tiers > n:
        raise ValueError(f"num_tiers {num_tiers} exceeds sample count {n}")
    p = softmax(logits(warmup, shard.features))
    conf = p[np.arange(n), shard.labels]
    # stable sort on -conf keeps index order among ties
    order = np.argsort(-conf, kind="stable")
    tiers = np.empty(n, dtype=np.int64)
    for t, chunk in enumerate(np.array_split(order, num_tiers)):
        tiers[chunk] = t
    return shard.with_tiers(tiers, num_tiers)
