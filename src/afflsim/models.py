"""Small differentiable classifiers with analytic gradients.

Two families cover every protocol mechanism without an external ML stack:
multinomial logistic regression (depth 1) and a one-hidden-layer tanh MLP
(depth 2). Parameters live in one flat float64 vector so models can be
clipped, noised, averaged and trimmed coordinate-wise.

All training is full batch, so a (params, shard, steps, lr) call is a pure
deterministic function of its inputs.

forward, backprop and the stacked kernels take an optional workspace, a
dict of named scratch arrays that belongs to the one call looping over
them: _descend makes one for a training call's steps and drops it on
return, so a step's shard-sized temporaries are allocated once per call
instead of once per step (the harness's Shapley value_fn keeps one for
its blocks). Arrays a kernel returns then live in the workspace and are
overwritten by the next step, and backprop overwrites the units of the
workspace's own hidden buffer with tanh'. Without a workspace each
kernel takes fresh arrays from np.empty and writes none of its inputs,
and every other function returns new arrays.

Activations are column-major, and every layer is one product. The
kernels take a shard's design matrix, its column-major [X | 1] array
(with_ones_column, which federation.DatasetShard calls once), and every
(n, width) array a kernel allocates, hidden units, logits, probabilities
and deltas, is the transpose of a C-contiguous (width, n) array, so that
a feature, hidden unit or class is one contiguous column of a tall array
only 2-24 columns wide:

- theta holds each layer as a row-major [W; b] matrix, the weight rows
  over the bias row (ModelParams.layers), so a layer's forward is one
  product with its ones-extended input, np.matmul(Wb.T, X1.T, out=Z.T),
  and its weight-and-bias gradient is one product X1.T @ delta: the bias
  terms are summed inside BLAS;
- an MLP's hidden buffer [H | 1] carries its own ones column, and is
  what forward returns and backprop takes;
- softmax reduces across the classes with np.maximum.reduce and
  np.add.reduce(axis=1), which add the columns left to right;
- the probability of each row's label is at the flat indices
  labels * n + rows of p.T, read and written through np.take and np.put.

Every training loss takes the same step (_descend): its logit delta,
already times the learning rate, is softmax(z) * scale - target. The
training call fixes scale (a scalar, or one value per row) and the
(n, C) target once; cross-entropy has scale lr/n and target lr*onehot/n,
and the messenger's losses are in messenger. The softmax's division by
the row sum and the scale become one n-vector divide, the exponentials
are multiplied by it and the target subtracted, all in the logits
buffer, and a step ends with theta -= grad. A training call binds what
no step changes once (the design check, the row max and sum vectors
and their column views); each step calls forward and backprop, whose
own per-call work is a dict lookup per buffer in the call's workspace
and, for the gradient, layer views kept on the model being trained.
"""

from __future__ import annotations

import math
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
        # contiguous, so that the layer views share theta's memory
        self.theta = np.ascontiguousarray(self.theta, dtype=np.float64)
        if self.theta.shape != (self.arch.param_count,):
            raise ValueError(
                f"theta has length {self.theta.shape}, arch needs {self.arch.param_count}"
            )

    @property
    def param_count(self) -> int:
        return self.arch.param_count

    @property
    def layers(self) -> tuple[np.ndarray, ...]:
        """Each layer's [W; b] as a view of theta (see _layers).

        Built once per theta array: training updates theta in place, so
        the views stay valid from step to step.
        """
        return self._views("_layers", self.theta)

    def _views(self, slot: str, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        """_layers(self.arch, flat), kept in slot until it is asked for another array.

        backprop keeps its gradient buffer's views in a second slot, so a
        training call's steps reuse one set of views of each.
        """
        cached = self.__dict__.get(slot)
        if cached is None or cached[0] is not flat:
            cached = self.__dict__[slot] = (flat, _layers(self.arch, flat))
        return cached[1]

    def copy(self) -> "ModelParams":
        return ModelParams(self.arch, self.theta.copy())


def init_params(arch: Arch, seed: int) -> ModelParams:
    """Seeded Gaussian init scaled by fan-in; deterministic per (arch, seed)."""
    rng = stream(seed, "init", arch.descriptor)
    theta = rng.normal(0.0, 1.0, arch.param_count)
    if arch.hidden == 0:
        theta *= 0.01
    else:
        for layer, fan_in in zip(_layers(arch, theta), (arch.in_dim, arch.hidden)):
            layer[:-1] *= 1.0 / np.sqrt(fan_in)
            layer[-1] *= 0.01
    return ModelParams(arch, theta)


def _layers(arch: Arch, theta: np.ndarray) -> tuple[np.ndarray, ...]:
    """Views of a flat theta, or of each row of a (k, P) stack, as every layer's [W; b].

    A layer's [W; b] is (fan-in + 1, fan-out), row-major: the weight rows,
    then the bias row. A stack gives (k, fan-in + 1, fan-out) views.
    """
    lead = theta.shape[:-1]
    d, c, h = arch.in_dim, arch.num_classes, arch.hidden
    if h == 0:
        return (theta.reshape(*lead, d + 1, c),)
    split = (d + 1) * h
    return (
        theta[..., :split].reshape(*lead, d + 1, h),
        theta[..., split:].reshape(*lead, h + 1, c),
    )


Workspace = dict[str, np.ndarray]


def _buffer(
    ws: Workspace | None, name: str, shape: tuple[int, ...], ones: bool = False
) -> np.ndarray:
    """Uninitialized column-major float64 scratch of this shape.

    The first axis is the contiguous one: the array is the transpose of a
    C-contiguous array of the reversed shape. ws[name] is reused when it
    has this shape. With ones, the last column (index -1 of axis 1) is set
    to 1 when the array is allocated; a reused one keeps it, as no kernel
    writes there.
    """
    if ws is not None:
        buf = ws.get(name)
        if buf is not None and buf.shape == shape:
            return buf
    buf = np.empty(shape[::-1]).T
    if ones:
        buf[:, -1] = 1.0
    if ws is not None:
        ws[name] = buf
    return buf


def with_ones_column(features: np.ndarray) -> np.ndarray:
    """A new column-major [X | 1] of 2-D features X: the design matrix every kernel takes."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"features shape {x.shape} is not (rows, columns)")
    design = _buffer(None, "design", (x.shape[0], x.shape[1] + 1), ones=True)
    design[:, :-1] = x
    return design


def _checked(arch: Arch, design: np.ndarray) -> np.ndarray:
    """design, if it is an (n, in_dim + 1) [X | 1] for arch."""
    if design.ndim != 2 or design.shape[1] != arch.in_dim + 1:
        raise ValueError(f"design shape {design.shape} is not [X | 1] for in_dim {arch.in_dim}")
    return design


def _label_index(labels: np.ndarray) -> np.ndarray:
    """Flat indices of p[i, labels[i]] in p.T, for an (len(labels), C) array p.

    p.T is C-contiguous for a column-major p, so np.take and np.put on it
    need no copy.
    """
    n = labels.shape[0]
    return labels * n + np.arange(n)


def _mean(a: np.ndarray) -> np.float64:
    """np.mean of a float64 vector, bit for bit: the same sum and division."""
    return np.add.reduce(a) / a.shape[0]


def safe_log(p: np.ndarray) -> np.ndarray:
    """np.log of probabilities floored at 1e-300, so that 0 gives a finite log."""
    return np.log(np.maximum(p, 1e-300))


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax (1-D input treated as a single row).

    The max and the sum run across the classes, column after column, and
    the output is new and column-major.
    """
    z = np.asarray(z, dtype=np.float64)
    rows = z[None, :] if z.ndim == 1 else z
    out = _buffer(None, "probs", rows.shape)
    m = np.maximum.reduce(rows, axis=1)
    np.subtract(rows, m[:, None], out=out)
    np.exp(out, out=out)
    out /= np.add.reduce(out, axis=1)[:, None]
    return out[0] if z.ndim == 1 else out


def forward(
    params: ModelParams, design: np.ndarray, ws: Workspace | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """(logits, hidden or None) on a design matrix [X | 1]; hidden feeds backprop.

    hidden is an MLP's [H | 1]: its tanh units and a trailing ones column.
    """
    arch = params.arch
    x = _checked(arch, design)
    z = _buffer(ws, "logits", (x.shape[0], arch.num_classes))
    if arch.hidden == 0:
        np.matmul(params.layers[0].T, x.T, out=z.T)
        return z, None
    w1, w2 = params.layers
    hidden = _buffer(ws, "hidden", (x.shape[0], arch.hidden + 1), ones=True)
    units = hidden[:, : arch.hidden]
    np.matmul(w1.T, x.T, out=units.T)
    np.tanh(units, out=units)
    np.matmul(w2.T, hidden.T, out=z.T)
    return z, hidden


def logits(params: ModelParams, design: np.ndarray) -> np.ndarray:
    return forward(params, design)[0]


def forward_stacked(
    arch: Arch, thetas: np.ndarray, design: np.ndarray, ws: Workspace | None = None
) -> np.ndarray:
    """Class-major logits (k, C, n) of k models of one architecture.

    The models' thetas are the rows of (k, P).

    One np.matmul per layer over the whole stack. A stacked matmul runs
    the same 2-D product per slice, so slice i equals
    logits(ModelParams(arch, thetas[i]), design).T bit for bit.
    """
    k = thetas.shape[0]
    x = _checked(arch, design)
    n = x.shape[0]
    # a column-major (n, width, k) buffer is a C-contiguous (k, width, n) one
    z = _buffer(ws, "stacked_logits", (n, arch.num_classes, k)).T
    layers = _layers(arch, thetas)
    if arch.hidden == 0:
        np.matmul(layers[0].transpose(0, 2, 1), x.T, out=z)
        return z
    w1, w2 = layers
    hidden = _buffer(ws, "stacked_hidden", (n, arch.hidden + 1, k), ones=True).T
    units = hidden[:, : arch.hidden]
    np.matmul(w1.transpose(0, 2, 1), x.T, out=units)
    np.tanh(units, out=units)
    np.matmul(w2.transpose(0, 2, 1), hidden, out=z)
    return z


def backprop(
    params: ModelParams,
    design: np.ndarray,
    out_delta: np.ndarray,
    hidden: np.ndarray | None,
    ws: Workspace | None = None,
) -> np.ndarray:
    """Gradient of any loss w.r.t. theta given dLoss/dlogits (n x C).

    Shared by every training loss: they differ only in the output delta.
    hidden is forward()'s [H | 1] for these params and design (None for
    logistic models). Each layer's weight-and-bias gradient is one
    product of its [input | 1] with its delta. out_delta is read, never
    written. So is hidden, unless it is ws's own "hidden" buffer, which
    forward(params, design, ws) returned: its units are then overwritten
    with tanh' = 1 - H**2, and the next forward in ws writes them anew.
    """
    arch = params.arch
    x = _checked(arch, design)
    grad = _buffer(ws, "grad", params.theta.shape)
    layers = params._views("_grad_layers", grad)
    if arch.hidden == 0:
        np.matmul(x.T, out_delta, out=layers[0])
        return grad
    h = arch.hidden
    g1, g2 = layers
    np.matmul(hidden.T, out_delta, out=g2)
    hid_delta = _buffer(ws, "hid_delta", (x.shape[0], h))
    np.matmul(params.layers[1][:h], out_delta.T, out=hid_delta.T)
    # tanh' = 1 - hidden**2, in the workspace's own hidden units once g2 has read them
    units = hidden[:, :h]
    owned = ws is not None and ws.get("hidden") is hidden
    sq = units if owned else _buffer(ws, "tanh_grad", hid_delta.shape)
    np.multiply(units, units, out=sq)
    np.subtract(1.0, sq, out=sq)
    hid_delta *= sq
    np.matmul(x.T, hid_delta, out=g1)
    return grad


def _descend(
    params: ModelParams,
    design: np.ndarray,
    steps: int,
    scale: float | np.ndarray,
    target: np.ndarray,
    check=None,
) -> ModelParams:
    """steps of full-batch gradient descent on a copy of params, returned.

    Each step applies theta -= backprop of the logit delta, already times
    the learning rate, softmax(z) * scale - target: scale is a scalar or
    an n-vector, one value per row, and target is (n, C). check(z,
    row_max), if given, sees each step's logits and their row maxes
    before the exponentials.

    The steps share one workspace for forward and backprop, made here
    and dropped on return: the delta is computed in the logits buffer,
    and backprop takes tanh' in the hidden buffer. What is constant
    across steps is bound once per call: the design check, and the row
    max and sum vectors with their column views. Each step still calls
    forward and backprop through this module, so a wrapper installed on
    them sees every step.
    """
    current = params.copy()
    theta = current.theta
    x = _checked(current.arch, design)
    ws: Workspace = {}
    n = x.shape[0]
    m, s = np.empty(n), np.empty(n)
    m_col, s_col = m[:, None], s[:, None]
    for _ in range(steps):
        z, hidden = forward(current, x, ws)
        np.maximum.reduce(z, axis=1, out=m)
        if check is not None:
            check(z, m)
        np.subtract(z, m_col, out=z)
        np.exp(z, out=z)
        np.add.reduce(z, axis=1, out=s)
        np.divide(scale, s, out=s)
        np.multiply(z, s_col, out=z)
        z -= target
        theta -= backprop(current, x, z, hidden, ws)
    return current


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of a is finite (max and min propagate NaN); an empty a is."""
    return math.isfinite(np.maximum.reduce(a, axis=None, initial=0.0)) and math.isfinite(
        np.minimum.reduce(a, axis=None, initial=0.0)
    )


def _check_label_probs(z: np.ndarray, row_max: np.ndarray) -> None:
    # a row's softmax is all NaN exactly when its max is not finite (z - max is NaN there)
    if not _all_finite(row_max):
        raise FloatingPointError("non-finite training loss: a label probability is NaN")


def train_local(params: ModelParams, shard, steps: int, lr: float) -> ModelParams:
    """Full-batch cross-entropy gradient descent; input params untouched."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if lr <= 0:
        raise ValueError("lr must be positive")
    n = shard.labels.shape[0]
    scale = lr / max(n, 1)
    target = np.zeros((params.arch.num_classes, n)).T
    np.put(target.T, _label_index(shard.labels), scale)
    return _descend(params, shard.design, steps, scale, target, check=_check_label_probs)


def _argmax_is_label(z: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """np.argmax(z, axis=-2) == labels for class-major logits z, (..., C, n).

    Compares whole class rows instead of arg-maxing over an axis only C
    long. As in np.argmax, the first maximum wins and the first NaN counts
    as the maximum. The updates are boolean algebra and np.maximum, since
    masked copies are several times slower.
    """
    best = z[..., 0, :].copy()
    hit = np.empty(best.shape, dtype=bool)
    hit[...] = labels == 0
    move = np.empty(best.shape, dtype=bool)
    for c in range(1, z.shape[-2]):
        zc = z[..., c, :]
        # move where zc > best or zc is NaN, but never off a NaN
        np.less_equal(zc, best, out=move)
        np.logical_not(move, out=move)
        move &= best == best
        # hit becomes labels == c where the argmax moves
        flip = hit ^ (labels == c)
        flip &= move
        hit ^= flip
        # np.maximum propagates NaN, so a NaN best stays NaN
        np.maximum(best, zc, out=best)
    return hit


def accuracy(z: np.ndarray, labels: np.ndarray) -> float:
    """Share of rows whose argmax logit is the label."""
    return float(np.mean(_argmax_is_label(z.T, labels)))


def stacked_accuracy(
    arch: Arch, thetas: np.ndarray, shard, ws: Workspace | None = None
) -> np.ndarray:
    """accuracy() on a shard of each of the k models whose thetas are the rows of (k, P)."""
    z = forward_stacked(arch, thetas, shard.design, ws)
    return np.mean(_argmax_is_label(z, shard.labels), axis=-1)


def cross_entropy(p: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy of the probabilities p at the labels."""
    return float(-_mean(safe_log(np.take(p.T, _label_index(labels)))))


def pooled_cross_entropy(params: ModelParams, shards: list[DatasetShard]) -> float:
    """Mean cross-entropy over every row of every shard, one shard at a time.

    The value of cross_entropy(softmax(logits(params, X1)), y) for X1 and y
    the shards' rows stacked in order, without stacking them: each shard
    in turn gets a fresh forward and softmax, so only one shard's
    activations are held at a time. The label probabilities go into one
    vector, each shard's at its row offset, that is reduced once, so the
    mean is the same pairwise sum over the same values. Only the matmuls
    may differ in the last bits from one product over the stacked rows,
    since BLAS picks its kernel by matrix size.
    """
    offsets = np.cumsum([0, *(s.labels.shape[0] for s in shards)])
    picked = np.empty(offsets[-1])
    for i, shard in enumerate(shards):
        p = softmax(logits(params, shard.design))
        np.take(p.T, _label_index(shard.labels), out=picked[offsets[i] : offsets[i + 1]])
    return float(-_mean(safe_log(picked)))


def score(z: np.ndarray, p: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """(mean cross-entropy, argmax accuracy) of logits z, given p = softmax(z)."""
    return cross_entropy(p, labels), accuracy(z, labels)


def evaluate(params: ModelParams, shard) -> tuple[float, float]:
    """(mean cross-entropy, argmax accuracy) on a shard."""
    if shard.sample_count == 0:
        raise ValueError("cannot evaluate on an empty shard")
    z = logits(params, shard.design)
    return score(z, softmax(z), shard.labels)


def assign_difficulty_tiers(shard, warmup: ModelParams, num_tiers: int):
    """Split samples into confidence quantiles under a warm-up model.

    Samples are ranked by the warm-up model's probability on the true
    class (ties broken by sample index) and cut into num_tiers groups of
    near-equal size; tier 0 holds the most confident samples.
    """
    n = shard.sample_count
    if num_tiers < 1:
        raise ValueError("num_tiers must be >= 1")
    if num_tiers > n:
        raise ValueError(f"num_tiers {num_tiers} exceeds sample count {n}")
    p = softmax(logits(warmup, shard.design))
    conf = np.take(p.T, _label_index(shard.labels))
    # stable sort on -conf keeps index order among ties
    order = np.argsort(-conf, kind="stable")
    tiers = np.empty(n, dtype=np.int64)
    for t, chunk in enumerate(np.array_split(order, num_tiers)):
        tiers[chunk] = t
    return shard.with_tiers(tiers, num_tiers)
