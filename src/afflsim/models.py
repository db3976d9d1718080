"""Small differentiable classifiers with analytic gradients.

Two families cover every protocol mechanism without an external ML stack:
multinomial logistic regression (depth 1) and a one-hidden-layer tanh MLP
(depth 2). Parameters live in one flat float64 vector so models can be
clipped, noised, averaged and trimmed coordinate-wise.

All training is full batch, so a (params, shard, steps, lr) call is a pure
deterministic function of its inputs.

The kernels take an optional workspace, a dict of named scratch arrays.
A training call passes one to every step (its caller's, or one it creates
and drops on return), so the shard-sized temporaries of a step are
allocated once per call, or once per sequence of calls on one shard,
instead of once per step. Arrays a kernel returns then live in the
workspace and are overwritten by the next step; without a workspace each
kernel takes fresh arrays from np.empty.

Activations are column-major. Shard features are stored that way (see
federation.DatasetShard), and every (n, width) array a kernel allocates,
hidden units, logits, probabilities and deltas, is the transpose of a
C-contiguous (width, n) array, so that a feature, hidden unit or class is
one contiguous column of a tall array only 2-24 columns wide:

- products run on the (width, n) views, np.matmul(W.T, X.T, out=Z.T);
- bias adds and per-row operations (row max, row sum, sample weights)
  broadcast down contiguous columns;
- softmax reduces across the classes with np.maximum.reduce and
  np.add.reduce(axis=1), which add the columns left to right;
- bias gradients are np.add.reduce(delta, axis=0), a pairwise sum down
  each column;
- the probability of each row's label is read and written at the flat
  indices labels * n + rows of p.T, through np.take and np.put.

The kernels accept inputs of any layout and stay correct on them; only
the bits of a sum or product may then differ in the last place.
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


def _unpack_stacked(arch: Arch, thetas: np.ndarray):
    """_unpack of every row of a (k, P) stack: views with a leading k axis.

    The layout is _unpack's own, read off its views of the positions
    0..P-1, so _unpack, which every kernel call runs, keeps its plain
    1-D slicing.
    """
    k = thetas.shape[0]
    return tuple(
        thetas[:, v.flat[0] : v.flat[0] + v.size].reshape(k, *v.shape)
        for v in _unpack(arch, np.arange(arch.param_count))
    )


Workspace = dict[str, np.ndarray]


def _buffer(ws: Workspace | None, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """Uninitialized column-major float64 scratch of this shape.

    The first axis is the contiguous one: the array is the transpose of a
    C-contiguous array of the reversed shape. ws[name] is reused when its
    other axes match and it has at least shape[0] rows; a shorter request
    gets its leading rows, whose columns are still contiguous.
    """
    if ws is not None:
        buf = ws.get(name)
        if buf is not None and buf.shape[1:] == shape[1:] and buf.shape[0] >= shape[0]:
            return buf if buf.shape[0] == shape[0] else buf[: shape[0]]
    buf = np.empty(shape[::-1]).T
    if ws is not None:
        ws[name] = buf
    return buf


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


def softmax(z: np.ndarray, ws: Workspace | None = None) -> np.ndarray:
    """Row-wise stable softmax (1-D input treated as a single row).

    The max and the sum run across the classes, column after column, and
    the output is column-major.
    """
    z = np.asarray(z, dtype=np.float64)
    rows = z[None, :] if z.ndim == 1 else z
    out = _buffer(ws, "probs", rows.shape)
    m = np.maximum.reduce(rows, axis=1, out=_buffer(ws, "row_max", rows.shape[:1]))
    np.subtract(rows, m[:, None], out=out)
    np.exp(out, out=out)
    s = np.add.reduce(out, axis=1, out=_buffer(ws, "row_sum", rows.shape[:1]))
    out /= s[:, None]
    return out[0] if z.ndim == 1 else out


def forward(
    params: ModelParams, features: np.ndarray, ws: Workspace | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """(logits, hidden activations or None); hidden feeds backprop."""
    features = np.asarray(features, dtype=np.float64)
    arch = params.arch
    if features.ndim != 2 or features.shape[1] != arch.in_dim:
        raise ValueError(
            f"features shape {features.shape} incompatible with in_dim {arch.in_dim}"
        )
    n = features.shape[0]
    z = _buffer(ws, "logits", (n, arch.num_classes))
    if arch.hidden == 0:
        w, b = _unpack(arch, params.theta)
        np.matmul(w.T, features.T, out=z.T)
        z += b
        return z, None
    w1, b1, w2, b2 = _unpack(arch, params.theta)
    hidden = _buffer(ws, "hidden", (n, arch.hidden))
    np.matmul(w1.T, features.T, out=hidden.T)
    hidden += b1
    np.tanh(hidden, out=hidden)
    np.matmul(w2.T, hidden.T, out=z.T)
    z += b2
    return z, hidden


def logits(params: ModelParams, features: np.ndarray) -> np.ndarray:
    return forward(params, features)[0]


def forward_stacked(
    arch: Arch, thetas: np.ndarray, features: np.ndarray, ws: Workspace | None = None
) -> np.ndarray:
    """Class-major logits (k, C, n) of k models of one architecture.

    The models' thetas are the rows of (k, P).

    One np.matmul per layer over the whole stack. A stacked matmul runs
    the same 2-D product per slice, so slice i equals
    logits(ModelParams(arch, thetas[i]), features).T bit for bit.
    """
    k, n = thetas.shape[0], features.shape[0]
    # a column-major (n, width, k) buffer is a C-contiguous (k, width, n) one
    z = _buffer(ws, "stacked_logits", (n, arch.num_classes, k)).T
    if arch.hidden == 0:
        w, b = _unpack_stacked(arch, thetas)
        np.matmul(w.transpose(0, 2, 1), features.T, out=z)
        z += b[:, :, None]
        return z
    w1, b1, w2, b2 = _unpack_stacked(arch, thetas)
    hidden = _buffer(ws, "stacked_hidden", (n, arch.hidden, k)).T
    np.matmul(w1.transpose(0, 2, 1), features.T, out=hidden)
    hidden += b1[:, :, None]
    np.tanh(hidden, out=hidden)
    np.matmul(w2.transpose(0, 2, 1), hidden, out=z)
    z += b2[:, :, None]
    return z


def backprop(
    params: ModelParams,
    features: np.ndarray,
    out_delta: np.ndarray,
    hidden: np.ndarray | None,
    ws: Workspace | None = None,
) -> np.ndarray:
    """Gradient of any loss w.r.t. theta given dLoss/dlogits (n x C).

    Shared by cross-entropy and distillation losses: they differ only in
    the output delta. hidden is forward()'s hidden activations for these
    params and features (None for logistic models). Reads out_delta and
    hidden, never writes them.
    """
    grad = _buffer(ws, "grad", params.theta.shape)
    if params.arch.hidden == 0:
        gw, gb = _unpack(params.arch, grad)
        np.matmul(features.T, out_delta, out=gw)
        np.add.reduce(out_delta, axis=0, out=gb)
        return grad
    _, _, w2, _ = _unpack(params.arch, params.theta)
    gw1, gb1, gw2, gb2 = _unpack(params.arch, grad)
    np.matmul(hidden.T, out_delta, out=gw2)
    np.add.reduce(out_delta, axis=0, out=gb2)
    hid_delta = _buffer(ws, "hid_delta", hidden.shape)
    np.matmul(w2, out_delta.T, out=hid_delta.T)
    # tanh' = 1 - hidden**2
    sq = np.multiply(hidden, hidden, out=_buffer(ws, "tanh_grad", hidden.shape))
    np.subtract(1.0, sq, out=sq)
    hid_delta *= sq
    np.matmul(features.T, hid_delta, out=gw1)
    np.add.reduce(hid_delta, axis=0, out=gb1)
    return grad


def _ce_step(
    params: ModelParams, features: np.ndarray, at_label: np.ndarray, ws: Workspace | None
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient w.r.t. theta.

    at_label is the labels' flat index, _label_index(labels).
    """
    n = features.shape[0]
    z, hidden = forward(params, features, ws)
    p = softmax(z, ws)
    picked = np.take(p.T, at_label)
    loss = float(-_mean(safe_log(picked)))
    picked -= 1.0
    np.put(p.T, at_label, picked)
    delta = p
    delta /= n
    return loss, backprop(params, features, delta, hidden, ws)


def train_local(
    params: ModelParams, shard, steps: int, lr: float, ws: Workspace | None = None
) -> ModelParams:
    """Full-batch cross-entropy gradient descent; input params untouched.

    ws, if given, is the workspace the steps use (one is made otherwise).
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if lr <= 0:
        raise ValueError("lr must be positive")
    current = params.copy()
    ws = {} if ws is None else ws
    at_label = _label_index(shard.labels)
    for _ in range(steps):
        loss, grad = _ce_step(current, shard.features, at_label, ws)
        if not math.isfinite(loss):
            raise FloatingPointError(f"non-finite training loss {loss}")
        grad *= lr
        current.theta -= grad
    return current


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
    z = forward_stacked(arch, thetas, shard.features, ws)
    return np.mean(_argmax_is_label(z, shard.labels), axis=-1)


def cross_entropy(p: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy of the probabilities p at the labels."""
    return float(-_mean(safe_log(np.take(p.T, _label_index(labels)))))


def pooled_cross_entropy(params: ModelParams, shards: list[DatasetShard]) -> float:
    """Mean cross-entropy over every row of every shard, one shard at a time.

    The value of cross_entropy(softmax(logits(params, X)), y) for X and y
    the shards' rows stacked in order, without stacking them: each shard's
    forward and softmax write into one workspace, so only one shard's
    activations are held at a time. The largest shard runs first, which
    sizes the workspace once; the others run on row-prefix views of its
    buffers. The label probabilities go into one vector, each shard's at
    its row offset, that is reduced once, so the mean is the same pairwise
    sum over the same values. Only the matmuls may differ in the last bits
    from one product over the stacked rows, since BLAS picks its kernel by
    matrix size.
    """
    sizes = [s.labels.shape[0] for s in shards]
    offsets = np.cumsum([0, *sizes])
    picked = np.empty(offsets[-1])
    ws: Workspace = {}
    for i in sorted(range(len(shards)), key=lambda i: -sizes[i]):
        shard = shards[i]
        p = softmax(forward(params, shard.features, ws)[0], ws)
        np.take(p.T, _label_index(shard.labels), out=picked[offsets[i] : offsets[i + 1]])
    return float(-_mean(safe_log(picked)))


def score(z: np.ndarray, p: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """(mean cross-entropy, argmax accuracy) of logits z, given p = softmax(z)."""
    return cross_entropy(p, labels), accuracy(z, labels)


def evaluate(params: ModelParams, shard) -> tuple[float, float]:
    """(mean cross-entropy, argmax accuracy) on a shard."""
    if shard.features.shape[0] == 0:
        raise ValueError("cannot evaluate on an empty shard")
    z = logits(params, shard.features)
    return score(z, softmax(z), shard.labels)


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
    conf = np.take(p.T, _label_index(shard.labels))
    # stable sort on -conf keeps index order among ties
    order = np.argsort(-conf, kind="stable")
    tiers = np.empty(n, dtype=np.int64)
    for t, chunk in enumerate(np.array_split(order, num_tiers)):
        tiers[chunk] = t
    return shard.with_tiers(tiers, num_tiers)
