"""The kernels and training calls of afflsim.models and afflsim.messenger
as allocating numpy expressions: one oracle per formula.

Each oracle takes plain (n, d) features, extends them to a column-major
[X | 1] itself and allocates every result. Products run on the (width, n)
transposes, with every layer's bias riding in its [W; b] against a ones
column, and softmax on the transposes, as the kernels order them, so the
kernels must equal these bit for bit: the golden run digests depend on
it. Every training step's logit delta, already times the learning rate,
is softmax(z) * scale - target.
"""

import numpy as np

from afflsim.messenger import _tier_sample_weights
from afflsim.models import _layers


def column_major(a):
    return np.asfortranarray(a)


def ones_extended(features):
    """[features | 1], column-major, as with_ones_column builds it from any layout."""
    return column_major(np.column_stack([features, np.ones(features.shape[0])]))


def onehot(shard):
    out = np.zeros((shard.sample_count, shard.num_classes))
    out[np.arange(shard.sample_count), shard.labels] = 1.0
    return out


def softmax(z):
    """Softmax of the rows of z, on a C-contiguous (C, n) transpose, reduced down axis 0."""
    e = np.exp(np.ascontiguousarray(z.T) - z.T.max(axis=0))
    return (e / e.sum(axis=0)).T


def forward(params, features):
    """(logits, [H | 1] or None)."""
    x = ones_extended(features)
    if params.arch.hidden == 0:
        (wb,) = _layers(params.arch, params.theta)
        return (wb.T @ x.T).T, None
    w1, w2 = _layers(params.arch, params.theta)
    hidden_t = np.vstack([np.tanh(w1.T @ x.T), np.ones(x.shape[0])])
    return (w2.T @ hidden_t).T, hidden_t.T


def backprop(params, features, out_delta, hidden):
    """Gradient given dLoss/dlogits, with copied product results."""
    x = ones_extended(features)
    grad = np.empty(params.param_count)
    layers = _layers(params.arch, grad)
    if params.arch.hidden == 0:
        layers[0][:] = x.T @ out_delta
        return grad
    h = params.arch.hidden
    w2 = _layers(params.arch, params.theta)[1][:h]
    layers[1][:] = hidden.T @ out_delta
    hid_delta = (w2 @ out_delta.T).T
    hid_delta *= 1.0 - hidden[:, :h] * hidden[:, :h]
    layers[0][:] = x.T @ hid_delta
    return grad


def step(params, features, scale, target):
    """One step's gradient, times the learning rate: delta = softmax(z) * scale - target."""
    z, hidden = forward(params, features)
    e = np.exp(np.ascontiguousarray(z.T) - z.T.max(axis=0))
    delta = (e * (scale / e.sum(axis=0)) - target.T).T
    return backprop(params, features, delta, hidden)


def descend(params, features, steps, scale, target, check=None):
    """steps of theta -= step(...) on a copy; check(z), if given, sees each step's logits."""
    current = params.copy()
    for _ in range(steps):
        if check is not None:
            check(forward(current, features)[0])
        current.theta -= step(current, features, scale, target)
    return current


def train_local(params, shard, steps, lr):
    """Cross-entropy: scale lr/n, target lr * onehot / n."""
    scale = lr / shard.sample_count
    return descend(params, shard.features, steps, scale, onehot(shard) * scale)


def inject(client, messenger, shard, pi, steps, lr):
    """Injection: scale lr * w and target lr * w * p_m, w the tier weights."""
    scale = lr * _tier_sample_weights(shard, pi)
    p_m = softmax(forward(messenger, shard.features)[0])
    return descend(client, shard.features, steps, scale, p_m * scale[:, None])


def _check_finite_logits(z):
    if not np.all(np.isfinite(z)):
        raise FloatingPointError("non-finite distillation loss")


def distill(messenger, client, shard, lambda_kl, steps, lr):
    """Distillation: scale lr * (1 + lambda_kl) / n, target lr * (onehot + lambda_kl * p_c) / n.

    Every step first checks every logit with np.isfinite.
    """
    per_row = lr / max(shard.sample_count, 1)
    p_c = softmax(forward(client, shard.features)[0])
    target = (p_c * lambda_kl + onehot(shard)) * per_row
    return descend(
        messenger, shard.features, steps, per_row * (1.0 + lambda_kl), target,
        _check_finite_logits,
    )


def distill_toward_teacher(params, features, teacher_probs, steps, lr):
    """The capacity probe: scale lr/n, target lr * teacher_probs / n."""
    scale = lr / features.shape[0]
    return descend(params, features, steps, scale, teacher_probs * scale)
