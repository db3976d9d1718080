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

Two shard-sized operations avoid numpy's slow paths on skinny arrays
(thousands of rows, 2-24 columns) without changing a bit:

- Column sums (backprop's bias gradients) go through
  np.einsum("ij->j"), several times faster than a.sum(axis=0) there.
  For a C-contiguous array at least 2 columns wide both add row after
  row in the same order, so they agree bit for bit. A 1-D reduction
  (one column) sums pairwise and einsum uses its own accumulator, and a
  non-C-contiguous input can take that path too, so those fall back to
  a.sum(axis=0).
- The probability of each row's label is read and updated at flat
  indices rows * C + label, through np.take and np.put, instead of by
  2-D fancy indexing p[np.arange(n), labels]. np.put writes through
  to p even if p is not contiguous.

A numpy call that broadcasts a row vector (a bias) or a per-row column
(a row max, row sum or sample weight) over an (n, C) array runs its
inner loop over the C columns of each row. On narrow, tall arrays, such
as the (870, 2) logits of a rural shard, one call per column is faster.
_COLUMN_MIN_ROWS holds the measured crossover: the widths 2, 3 and 4
and the row count from which the column form wins; every other shape
broadcasts. Either form applies the same single float operation to the
same operands, so the bits do not depend on which one runs. train_local
builds the flat label index once per call rather than once per step,
and means over a shard are np.add.reduce(x) / n, which is what np.mean
computes for a float64 vector, without its wrapper. BENCH_narrow.json
has the interleaved pairs.
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
    """Uninitialized float64 scratch: ws[name] if it has this shape, else new."""
    if ws is None:
        return np.empty(shape)
    buf = ws.get(name)
    if buf is None or buf.shape != shape:
        buf = ws[name] = np.empty(shape)
    return buf


def _column_sums(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a.sum(axis=0) written into out, bit for bit (see the module docstring)."""
    if a.flags.c_contiguous and a.shape[1] >= 2:
        return np.einsum("ij->j", a, out=out)
    out[:] = a.sum(axis=0)
    return out


def _label_index(labels: np.ndarray, classes: int) -> np.ndarray:
    """Flat C-order indices of p[i, labels[i]] in an (len(labels), classes) array p."""
    return np.arange(labels.shape[0]) * classes + labels


def _mean(a: np.ndarray) -> np.float64:
    """np.mean of a float64 vector, bit for bit: the same sum and division."""
    return np.add.reduce(a) / a.shape[0]


def safe_log(p: np.ndarray) -> np.ndarray:
    """np.log of probabilities floored at 1e-300, so that 0 gives a finite log."""
    return np.log(np.maximum(p, 1e-300))


# Below this many classes numpy's row sum adds left to right, which a
# running column sum reproduces bit for bit; from 8 up it sums pairwise.
_COLUMN_MAX_CLASSES = 8

# Width -> row count from which a broadcast over an (n, width) array is
# slower than one numpy call per column (timed on one core for widths
# 2-8 and 200-12000 rows; README "Performance" has the table). Wider
# arrays gained at most 7% by column anywhere in that range.
_COLUMN_MIN_ROWS = {2: 500, 3: 1500, 4: 3000}


def _by_columns(a: np.ndarray) -> bool:
    """Whether a broadcast over the 2-D array a goes one column at a time."""
    n, c = a.shape
    return c in _COLUMN_MIN_ROWS and n >= _COLUMN_MIN_ROWS[c]


def _add_bias(z: np.ndarray, b: np.ndarray) -> None:
    """z += b for a 2-D z and one b per column."""
    if _by_columns(z):
        for j in range(z.shape[1]):
            np.add(z[:, j], b[j], out=z[:, j])
    else:
        z += b


def _per_row(op: np.ufunc, a: np.ndarray, v: np.ndarray, out: np.ndarray) -> None:
    """out = op(a, v[:, None]) for a 2-D a and one v per row."""
    if _by_columns(a):
        for j in range(a.shape[1]):
            op(a[:, j], v, out=out[:, j])
    else:
        op(a, v[:, None], out=out)


def softmax(z: np.ndarray, ws: Workspace | None = None) -> np.ndarray:
    """Row-wise stable softmax (1-D input treated as a single row).

    2-D inputs with few classes reduce column by column: a row-wise max
    or sum over a short axis is several times slower than a few
    elementwise passes over whole columns, and gives the same bits.
    """
    z = np.asarray(z, dtype=np.float64)
    out = _buffer(ws, "probs", z.shape)
    if z.ndim == 2 and 2 <= z.shape[1] < _COLUMN_MAX_CLASSES:
        cols = z.shape[1]
        m = np.maximum(z[:, 0], z[:, 1], out=_buffer(ws, "row_max", z.shape[:1]))
        for j in range(2, cols):
            np.maximum(m, z[:, j], out=m)
        _per_row(np.subtract, z, m, out)
        np.exp(out, out=out)
        s = np.add(out[:, 0], out[:, 1], out=_buffer(ws, "row_sum", z.shape[:1]))
        for j in range(2, cols):
            s += out[:, j]
        _per_row(np.divide, out, s, out)
        return out
    rows, rows_out = (z[None, :], out[None, :]) if z.ndim == 1 else (z, out)
    np.subtract(rows, rows.max(axis=1, keepdims=True), out=rows_out)
    np.exp(rows_out, out=rows_out)
    rows_out /= rows_out.sum(axis=1, keepdims=True)
    return out


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
        np.matmul(features, w, out=z)
        _add_bias(z, b)
        return z, None
    w1, b1, w2, b2 = _unpack(arch, params.theta)
    hidden = _buffer(ws, "hidden", (n, arch.hidden))
    np.matmul(features, w1, out=hidden)
    _add_bias(hidden, b1)
    np.tanh(hidden, out=hidden)
    np.matmul(hidden, w2, out=z)
    _add_bias(z, b2)
    return z, hidden


def logits(params: ModelParams, features: np.ndarray) -> np.ndarray:
    return forward(params, features)[0]


def forward_stacked(
    arch: Arch, thetas: np.ndarray, features: np.ndarray, ws: Workspace | None = None
) -> np.ndarray:
    """Logits (k, n, C) of k models of one architecture, their thetas the rows of (k, P).

    One np.matmul per layer over the whole stack. A stacked matmul runs
    the same 2-D product per slice, so slice i equals
    logits(ModelParams(arch, thetas[i]), features) bit for bit.
    """
    k, n = thetas.shape[0], features.shape[0]
    z = _buffer(ws, "stacked_logits", (k, n, arch.num_classes))
    if arch.hidden == 0:
        w, b = _unpack_stacked(arch, thetas)
        np.matmul(features, w, out=z)
        z += b[:, None, :]
        return z
    w1, b1, w2, b2 = _unpack_stacked(arch, thetas)
    hidden = _buffer(ws, "stacked_hidden", (k, n, arch.hidden))
    np.matmul(features, w1, out=hidden)
    hidden += b1[:, None, :]
    np.tanh(hidden, out=hidden)
    np.matmul(hidden, w2, out=z)
    z += b2[:, None, :]
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
        _column_sums(out_delta, gb)
        return grad
    _, _, w2, _ = _unpack(params.arch, params.theta)
    gw1, gb1, gw2, gb2 = _unpack(params.arch, grad)
    np.matmul(hidden.T, out_delta, out=gw2)
    _column_sums(out_delta, gb2)
    hid_delta = np.matmul(out_delta, w2.T, out=_buffer(ws, "hid_delta", hidden.shape))
    # tanh' = 1 - hidden**2
    sq = np.multiply(hidden, hidden, out=_buffer(ws, "tanh_grad", hidden.shape))
    np.subtract(1.0, sq, out=sq)
    hid_delta *= sq
    np.matmul(features.T, hid_delta, out=gw1)
    _column_sums(hid_delta, gb1)
    return grad


def _ce_step(
    params: ModelParams, features: np.ndarray, at_label: np.ndarray, ws: Workspace | None
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient w.r.t. theta.

    at_label is the labels' flat index, _label_index(labels, C).
    """
    n = features.shape[0]
    z, hidden = forward(params, features, ws)
    p = softmax(z, ws)
    picked = np.take(p, at_label)
    loss = float(-_mean(safe_log(picked)))
    picked -= 1.0
    np.put(p, at_label, picked)
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
    at_label = _label_index(shard.labels, current.arch.num_classes)
    for _ in range(steps):
        loss, grad = _ce_step(current, shard.features, at_label, ws)
        if not math.isfinite(loss):
            raise FloatingPointError(f"non-finite training loss {loss}")
        grad *= lr
        current.theta -= grad
    return current


def accuracy(z: np.ndarray, labels: np.ndarray) -> float:
    """Share of rows whose argmax logit is the label."""
    return float(np.mean(np.argmax(z, axis=1) == labels))


def stacked_accuracy(
    arch: Arch, thetas: np.ndarray, shard, ws: Workspace | None = None
) -> np.ndarray:
    """accuracy() on a shard of each of the k models whose thetas are the rows of (k, P)."""
    z = forward_stacked(arch, thetas, shard.features, ws)
    return np.mean(np.argmax(z, axis=-1) == shard.labels, axis=-1)


def cross_entropy(p: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy of the probabilities p at the labels."""
    return float(-_mean(safe_log(np.take(p, _label_index(labels, p.shape[1])))))


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
    conf = np.take(p, _label_index(shard.labels, p.shape[1]))
    # stable sort on -conf keeps index order among ties
    order = np.argsort(-conf, kind="stable")
    tiers = np.empty(n, dtype=np.int64)
    for t, chunk in enumerate(np.array_split(order, num_tiers)):
        tiers[chunk] = t
    return shard.with_tiers(tiers, num_tiers)
