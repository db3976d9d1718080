"""Outside-in tracer for afflsim's layer modules.

The tracer wraps every public function of each layer module and installs
the wrapper in every module namespace that holds the original, so that a
call made through ``from .models import forward`` in another module is
traced too. ``uninstall`` puts every original back. Nothing inside the
program is changed.

Per wrapped function it keeps the call count, the inclusive time
(``total_s``) and the self time (``self_s``): the call's duration minus the
durations of the wrapped calls made directly inside it. Calls must be
serial (one thread), which holds when ``AFFLSIM_THREADS`` is unset.

A few hooks add counts where the work happens: flop and byte counts of the
model kernels, computed from array shapes; softmax rows; Shapley coalitions
evaluated, counted by wrapping the ``value_fn`` argument; capacity switches;
and DP updates that were clipped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = (
    "config",
    "rng",
    "federation",
    "heterogeneity",
    "models",
    "messenger",
    "fairness",
    "privacy",
    "harness",
)

# Per-layer metrics of one traced run, name -> unit. ``trace.overhead_frac``
# needs an untraced run as well, so run.py adds it.
LAYER_UNITS = {
    "models.forward.calls": "count",
    "models.forward.self_s": "s",
    "models.forward.gflop": "GFLOP",
    "models.forward.mb": "MB",
    "models.backprop.calls": "count",
    "models.backprop.self_s": "s",
    "models.backprop.gflop": "GFLOP",
    "models.backprop.mb": "MB",
    "models.softmax.calls": "count",
    "models.softmax.self_s": "s",
    "models.softmax.mrows": "Mrows",
    "models.train_local.total_s": "s",
    "models.assign_difficulty_tiers.total_s": "s",
    "models.evaluate.calls": "count",
    "models.evaluate.total_s": "s",
    "messenger.distill_to_messenger.total_s": "s",
    "messenger.inject_knowledge.total_s": "s",
    "messenger.select_capacity.calls": "count",
    "messenger.select_capacity.total_s": "s",
    "messenger.capacity.switch_ratio": "ratio",
    "fairness.shapley_estimate.total_s": "s",
    "fairness.shapley_estimate.self_s": "s",
    "fairness.shapley.coalitions": "count",
    "fairness.shapley.hit_ratio": "ratio",
    "fairness.aggregate_messengers.calls": "count",
    "fairness.aggregate_messengers.total_s": "s",
    "heterogeneity.assess_cohort.calls": "count",
    "heterogeneity.assess_cohort.total_s": "s",
    "federation.gen_federation.total_s": "s",
    "federation.gen_reference_shard.total_s": "s",
    "privacy.privatize.calls": "count",
    "privacy.privatize.total_s": "s",
    "privacy.clip_frac": "ratio",
    "rng.stream.calls": "count",
    "rng.stream.total_s": "s",
    "harness.run_round.self_s": "s",
    "harness.init_state.self_s": "s",
}

_STATS = ("calls", "total_s", "self_s")


def afflsim_modules() -> tuple[dict, list]:
    """(layer name -> module, every loaded afflsim module namespace)."""
    layers = {name: importlib.import_module(f"afflsim.{name}") for name in LAYERS}
    namespaces = [
        m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "afflsim"
    ]
    return layers, namespaces


def _bind(fn, args, kwargs) -> inspect.BoundArguments:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound


# --- hooks: computed work, counted from the arguments ---------------------


def _forward_work(tracer, fn, args, kwargs):
    arch, n = args[0].arch, len(args[1])
    d, h, c = arch.in_dim, arch.hidden, arch.num_classes
    if h == 0:
        flop = 2 * n * d * c + n * c
        elems = n * d + arch.param_count + n * c
    else:
        # X @ W1, bias + tanh, H @ W2, bias
        flop = 2 * n * d * h + 2 * n * h + 2 * n * h * c + n * c
        elems = n * d + arch.param_count + n * h + n * c
    tracer.counts["models.forward.flop"] += flop
    tracer.counts["models.forward.bytes"] += 8 * elems
    return args, kwargs


def _backprop_work(tracer, fn, args, kwargs):
    arch, n = args[0].arch, len(args[1])
    d, h, c = arch.in_dim, arch.hidden, arch.num_classes
    if h == 0:
        flop = 2 * n * d * c + n * c
        elems = n * d + n * c + 2 * arch.param_count
    else:
        # H^T @ delta, bias grad, delta @ W2^T, tanh', X^T @ hid_delta, bias grad
        flop = 2 * n * h * c + n * c + 2 * n * c * h + 3 * n * h + 2 * n * d * h + n * h
        elems = n * d + n * c + 2 * n * h + 2 * arch.param_count
        if (args[3] if len(args) > 3 else kwargs.get("hidden")) is None:
            flop += 2 * n * d * h + 2 * n * h
    tracer.counts["models.backprop.flop"] += flop
    tracer.counts["models.backprop.bytes"] += 8 * elems
    return args, kwargs


def _softmax_rows(tracer, fn, args, kwargs):
    shape = np.shape(args[0])
    tracer.counts["models.softmax.rows"] += shape[0] if len(shape) == 2 else 1
    return args, kwargs


def _shapley_coalitions(tracer, fn, args, kwargs):
    bound = _bind(fn, args, kwargs)
    value_fn = bound.arguments["value_fn"]

    def counted(subset):
        tracer.counts["fairness.shapley.coalitions"] += 1
        return value_fn(subset)

    bound.arguments["value_fn"] = counted
    if bound.arguments["mode"] == "monte_carlo":
        n = len(bound.arguments["cohort_ids"])
        tracer.counts["fairness.shapley.lookups"] += bound.arguments["num_perms"] * (n + 1)
    return bound.args, bound.kwargs


def _dp_clipped(tracer, fn, args, kwargs):
    delta, params = args[0], args[1]
    tracer.counts["privacy.clipped"] += float(np.linalg.norm(delta)) > params.clip_norm
    return args, kwargs


def _capacity_switch(tracer, fn, args, kwargs, result):
    prev = _bind(fn, args, kwargs).arguments["prev"]
    if prev is not None and result.chosen_index != prev.chosen_index:
        tracer.counts["messenger.capacity.switches"] += 1


_PRE_HOOKS = {
    "models.forward": _forward_work,
    "models.backprop": _backprop_work,
    "models.softmax": _softmax_rows,
    "fairness.shapley_estimate": _shapley_coalitions,
    "privacy.privatize": _dp_clipped,
}
_POST_HOOKS = {"messenger.select_capacity": _capacity_switch}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, qualname: str, fn):
        pre, post = _PRE_HOOKS.get(qualname), _POST_HOOKS.get(qualname)
        stat = self.stats[qualname]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(self, fn, args, kwargs)
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - children[0]
                if stack:
                    stack[-1][0] += duration
            if post is not None:
                post(self, fn, args, kwargs, result)
            return result

        return wrapper

    def install(self, layers: dict, namespaces: list) -> None:
        """Wrap each public function of each layer in every namespace holding it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer, module in layers.items():
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        for namespace in {id(m): m for m in list(layers.values()) + namespaces}.values():
            for name, obj in list(vars(namespace).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(namespace, name, wrapper)
                    self._patched.append((namespace, name, obj))

    def uninstall(self) -> None:
        for namespace, name, original in reversed(self._patched):
            setattr(namespace, name, original)
        self._patched.clear()

    def stat(self, qualname: str, which: str) -> float:
        return self.stats[qualname][_STATS.index(which)] if qualname in self.stats else 0

    def layer_metrics(self) -> dict[str, float]:
        """Every LAYER_UNITS metric of the calls traced so far."""
        c = self.counts
        out = {}
        for name in LAYER_UNITS:
            qualname, which = name.rsplit(".", 1)
            if which in _STATS:
                out[name] = self.stat(qualname, which)
        for kernel in ("forward", "backprop"):
            out[f"models.{kernel}.gflop"] = c[f"models.{kernel}.flop"] / 1e9
            out[f"models.{kernel}.mb"] = c[f"models.{kernel}.bytes"] / 1e6
        out["models.softmax.mrows"] = c["models.softmax.rows"] / 1e6
        select_calls = self.stat("messenger.select_capacity", "calls")
        out["messenger.capacity.switch_ratio"] = (
            c["messenger.capacity.switches"] / select_calls if select_calls else 0.0
        )
        out["fairness.shapley.coalitions"] = c["fairness.shapley.coalitions"]
        lookups = c["fairness.shapley.lookups"]
        out["fairness.shapley.hit_ratio"] = (
            1.0 - c["fairness.shapley.coalitions"] / lookups if lookups else 0.0
        )
        dp_calls = self.stat("privacy.privatize", "calls")
        out["privacy.clip_frac"] = c["privacy.clipped"] / dp_calls if dp_calls else 0.0
        return out
