"""Run configuration: strict schema, defaults, digest, scenario presets.

Configs are JSON files mirroring the block structure below. Parsing is
strict — any unknown key is rejected with its full path — and every
default is materialized before the digest is computed, so a digest pins
the complete effective configuration. Each field declares its kind and
range beside its default (rule), and every block holds its fields to them
when it is built, from JSON or directly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import operator
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .fairness import EXACT_MAX_CLIENTS, LAMBDA2_ESCALATION
from .federation import SAMPLE_RANGES
from .models import Arch

SCHEMA_VERSION = 1

ALGORITHMS = ("affl", "fedavg", "static_messenger", "uniform_weight_affl")

# Ceiling of protocol.local_lr, inject_lr, distill_lr, probe_lr and lambda_kl.
# A distillation step is lr * (1 + lambda_kl) times a bounded gradient, and
# the presets' products and DP norms overflow once that factor nears 1e154.
# With all five at 1e76 together and adapt_interval 1, so that the capacity
# probe runs each round, the nine preset configs listed under
# MAX_FEATURE_SCALE run (seeds 7-12, 2 rounds); at 1e78 the smoke and
# default presets overflow in a matmul (seed 7). probe_lr alone overflows
# the capacity probe from 1e160, and its NaN scores then choose the capacity.
MAX_STEP_FACTOR = 1e76

# Ceiling of federation.class_separation and feature_noise, which scale the
# features. With both at 1e150 nine preset configs run (default, default
# fedavg, smoke, convex, privacy, multimodal, scale 10, robustness and its
# plain-mean arm; seeds 7-12, 2 rounds); convex and privacy still run at
# 1e153. At 1e154 privacy overflows in a subtract (both fields, or
# feature_noise alone), and at 1e155 convex and privacy overflow in a
# matmul (both fields; seed 7).
MAX_FEATURE_SCALE = 1e150

# Largest magnitude of an integer field: the integers a double holds exactly,
# the interoperable range of I-JSON (RFC 7493). Past it, 10**30 feature
# columns and 10**400 clients failed to parse with errors that named no field.
MAX_INT = 2**53 - 1
_INT_RANGE = "[-(2**53 - 1), 2**53 - 1]"


class ConfigError(ValueError):
    """Raised for unknown keys, bad values, or unreadable config files."""


def rule(default, kind, *, null: bool = False, **bounds):
    """A dataclass field with its default and the rule _check_fields holds it
    to. kind is int, float, bool, str (a nonempty string), a tuple of the
    strings allowed, or [int] or [float] for a list of those; null lets the
    field be None; bounds are any of gt, ge, lt and le, on the value or on
    each entry of a list."""
    return field(default=default, metadata={"kind": kind, "null": null, **bounds})


def _is_real(value) -> bool:
    """A finite int or float, not a bool: JSON reads NaN, Infinity and 1e400
    as floats, and an int past the float range has no float value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


# what a value of each scalar kind must be, and how a message names it
_KINDS = {
    int: (lambda v: type(v) is int, "an integer"),
    float: (_is_real, "a finite number"),
    bool: (lambda v: type(v) is bool, "true or false"),
    str: (lambda v: isinstance(v, str) and v != "", "a nonempty string"),
}
_BOUNDS = {
    "gt": (operator.gt, "greater than"),
    "ge": (operator.ge, "at least"),
    "lt": (operator.lt, "less than"),
    "le": (operator.le, "at most"),
}


def _check_fields(obj, block: str) -> None:
    """Hold each field of obj declared with rule to its rule, naming the field
    by its dotted path: block is obj's key in the config ("" for the root).
    An integer of an int kind, list entries included, lies within MAX_INT."""
    for f in dataclasses.fields(obj):
        value, spec = getattr(obj, f.name), f.metadata
        if "kind" not in spec or (value is None and spec["null"]):
            continue
        path = f"{block}.{f.name}" if block else f.name
        or_null = " or null" if spec["null"] else ""
        kind, entries, name = spec["kind"], (value,), path
        if isinstance(kind, list):
            if not isinstance(value, tuple):
                raise ConfigError(
                    f"{path} must be a list{or_null} (a tuple in Python), got {value!r}"
                )
            kind, entries, name, or_null = kind[0], value, f"each entry of {path}", ""
        is_kind, noun = _KINDS.get(kind) or (kind.__contains__, f"one of {kind}")
        for v in entries:
            if not is_kind(v):
                raise ConfigError(f"{name} must be {noun}{or_null}, got {v!r}")
            if kind is int and abs(v) > MAX_INT:
                raise ConfigError(f"{name} must lie in {_INT_RANGE}, got {v!r}")
            for op, (holds, words) in _BOUNDS.items():
                if op in spec and not holds(v, spec[op]):
                    raise ConfigError(f"{name} must be {words} {spec[op]:g}, got {v!r}")


@dataclass(frozen=True)
class FederationBlock:
    academic: int = rule(2, int, ge=0)
    regional: int = rule(4, int, ge=0)
    rural: int = rule(6, int, ge=0)
    num_classes: int = rule(4, int, ge=2)
    feature_dim: int = rule(20, int)
    concentration: float = rule(0.5, float, gt=0)
    num_modalities: int = rule(1, int, ge=1)
    modalities_by_class: dict | None = None
    class_separation: float = rule(2.0, float, ge=0, le=MAX_FEATURE_SCALE)
    feature_noise: float = rule(1.0, float, ge=0, le=MAX_FEATURE_SCALE)
    radial_pairs: int = rule(0, int, ge=0)
    radial_scale: float = rule(2.4, float, gt=1)
    academic_hidden: int = rule(32, int, ge=0)
    regional_hidden: int = rule(16, int, ge=0)
    rural_hidden: int = rule(8, int, ge=0)

    def __post_init__(self):
        _check_fields(self, "federation")
        if self.feature_dim < self.num_modalities:
            raise ConfigError("federation.feature_dim must be at least num_modalities")
        if 2 * self.radial_pairs > self.num_classes:
            raise ConfigError("federation.radial_pairs must lie in [0, num_classes / 2]")
        if sum(self.counts().values()) < 1:
            raise ConfigError("federation.academic + regional + rural must be at least 1")
        by_class = self.modalities_by_class
        if by_class is not None and not (
            isinstance(by_class, dict) and set(by_class) <= set(SAMPLE_RANGES)
        ):
            raise ConfigError(
                "federation.modalities_by_class must be null or an object keyed by "
                f"academic/regional/rural, got {by_class!r}"
            )
        for cls, held in (by_class or {}).items():
            if held is not None and not (
                isinstance(held, (list, tuple))
                and held
                and all(type(m) is int and 0 <= m < self.num_modalities for m in held)
                and len(set(held)) == len(held)
            ):
                raise ConfigError(
                    f"federation.modalities_by_class.{cls} must be null or a nonempty list of "
                    f"distinct modality ids in [0, {self.num_modalities}), got {held!r}"
                )

    def counts(self) -> dict:
        return {"academic": self.academic, "regional": self.regional, "rural": self.rural}

    def modality_blocks(self) -> tuple[tuple[int, tuple[int, int]], ...]:
        """Contiguous, near-equal feature column blocks, one per modality."""
        edges = np.linspace(0, self.feature_dim, self.num_modalities + 1).astype(int)
        return tuple((m, (int(edges[m]), int(edges[m + 1]))) for m in range(self.num_modalities))

    def class_modalities(self, institution_class: str) -> tuple[int, ...]:
        """The modalities an institution class holds; null means all of them."""
        held = (self.modalities_by_class or {}).get(institution_class)
        return tuple(range(self.num_modalities)) if held is None else tuple(held)


@dataclass(frozen=True)
class ProtocolBlock:
    algorithm: str = rule("affl", ALGORITHMS)
    # messenger template grid: hidden widths, ascending (0 = logistic regression)
    grid_hidden: tuple = rule((6, 12, 24), [int], ge=0)
    initial_capacity_index: int = rule(0, int)
    adapt_interval: int = rule(3, int, ge=1)
    probe_steps: int = rule(12, int, ge=0)
    probe_lr: float = rule(0.5, float, gt=0, le=MAX_STEP_FACTOR)
    lambda1: float = rule(0.05, float, ge=0)
    lambda2: float = rule(0.1, float, gt=0)
    lambda_kl: float = rule(1.0, float, ge=0, le=MAX_STEP_FACTOR)
    theta_fair: float = rule(0.1, float, ge=0)
    curriculum_tiers: int = rule(3, int, ge=1)
    curriculum_tau: tuple | None = rule(None, [float], null=True)
    curriculum_sigma: tuple | None = rule(None, [float], null=True, gt=0)
    sample_rate: float = rule(1.0, float, gt=0, le=1)
    load_aware_sampling: bool = rule(False, bool)
    dropout_rate: float = rule(0.0, float, ge=0, lt=1)
    warmup_steps: int = rule(10, int, ge=0)
    local_steps: int = rule(6, int, ge=0)
    inject_steps: int = rule(4, int, ge=0)
    distill_steps: int = rule(12, int, ge=0)
    local_lr: float = rule(0.3, float, gt=0, le=MAX_STEP_FACTOR)
    inject_lr: float = rule(0.3, float, gt=0, le=MAX_STEP_FACTOR)
    distill_lr: float = rule(0.5, float, gt=0, le=MAX_STEP_FACTOR)
    shapley_mode: str = rule("monte_carlo", ("monte_carlo", "exact"))
    shapley_perms: int = rule(60, int, ge=1)
    eps_smooth: float = rule(0.01, float, ge=0)
    delta_size: float = rule(0.2, float, ge=0)
    robust_method: str | None = rule(None, ("trimmed_mean", "coordinate_median"), null=True)
    robust_f: int | str = "auto"  # auto = floor((cohort-1)/3)
    fedavg_hidden: int = rule(16, int, ge=0)
    active_modalities: tuple | None = rule(None, [int], null=True)
    fused_dim: int | None = rule(None, int, null=True, ge=1)
    fusion_weights: tuple | None = rule(None, [float], null=True)  # pre-softmax, one per modality
    het_alpha: float = rule(1.0 / 3.0, float, ge=0)
    het_beta: float = rule(1.0 / 3.0, float, ge=0)
    het_gamma: float = rule(1.0 / 3.0, float, ge=0)

    def __post_init__(self):
        _check_fields(self, "protocol")
        robust_f = self.robust_f
        if robust_f != "auto" and not (type(robust_f) is int and 0 <= robust_f <= MAX_INT):
            raise ConfigError(
                f"protocol.robust_f must be 'auto' or an integer in [0, {MAX_INT}], "
                f"got {robust_f!r}"
            )
        het_sum = self.het_alpha + self.het_beta + self.het_gamma
        if abs(het_sum - 1.0) > 1e-9:
            raise ConfigError(
                "protocol.het_alpha + protocol.het_beta + protocol.het_gamma must sum to 1, "
                f"got {het_sum}"
            )
        widths = self.grid_hidden
        if not widths or any(b <= a for a, b in zip(widths, widths[1:])):
            raise ConfigError(
                f"protocol.grid_hidden must be strictly ascending hidden widths, got {widths}"
            )
        if not 0 <= self.initial_capacity_index < len(widths):
            raise ConfigError(
                f"protocol.initial_capacity_index must index protocol.grid_hidden {widths}"
            )
        tau, sigma = self.curriculum_tau, self.curriculum_sigma
        if (tau is None) != (sigma is None):
            raise ConfigError(
                "protocol.curriculum_tau and protocol.curriculum_sigma must be both null "
                "or both set"
            )
        if tau is not None and not len(tau) == len(sigma) == self.curriculum_tiers:
            raise ConfigError(
                "protocol.curriculum_tau and protocol.curriculum_sigma must have one entry "
                f"per curriculum tier ({self.curriculum_tiers})"
            )


@dataclass(frozen=True)
class PrivacyParams:
    clip_norm: float = rule(1.0, float, gt=0)
    noise_multiplier: float = rule(0.0, float, ge=0)
    delta: float = rule(1e-5, float, gt=0, lt=1)
    enabled: bool = rule(False, bool)

    def __post_init__(self):
        # the epsilon account_privacy reports; privacy imports this module
        from .privacy import _gaussian_eps

        _check_fields(self, "privacy")
        if math.isinf(_gaussian_eps(1.0, self.delta)):
            raise ConfigError(f"privacy.delta {self.delta!r} gives an infinite epsilon")
        nm = self.noise_multiplier
        if nm > 0 and math.isinf(_gaussian_eps(nm, self.delta)):
            raise ConfigError(f"privacy.noise_multiplier {nm!r} gives an infinite epsilon")

    def check_delta(self, min_shard_size: int) -> None:
        """Warn when delta is not cryptographically small for the data."""
        if self.delta >= 1.0 / max(1, min_shard_size):
            warnings.warn(
                f"delta={self.delta} >= 1/min_shard_size={1.0 / min_shard_size:.2e}; "
                "guarantee is weak for the smallest shard",
                stacklevel=2,
            )


@dataclass(frozen=True)
class AttackBlock:
    kind: str | None = rule(None, ("sign_flip", "large_norm", "label_flip"), null=True)
    attacker_fraction: float = rule(0.0, float, ge=0, lt=0.5)
    scale: float = rule(10.0, float)

    def __post_init__(self):
        _check_fields(self, "attack")


@dataclass(frozen=True)
class MetricsBlock:
    cei_alpha: float = rule(0.5, float, ge=0)
    cei_beta: float = rule(0.5, float, ge=0)
    put_lambda: float = rule(0.1, float, ge=0)
    clinical_w1: float = rule(0.5, float, ge=0)
    clinical_w2: float = rule(0.3, float, ge=0)
    clinical_w3: float = rule(0.2, float, ge=0)
    physician_acceptance: float = rule(0.75, float, ge=0, le=1)
    regulatory_compliance: float = rule(0.8, float, ge=0, le=1)

    def __post_init__(self):
        _check_fields(self, "metrics")
        w_sum = self.clinical_w1 + self.clinical_w2 + self.clinical_w3
        if abs(w_sum - 1.0) > 1e-9:
            raise ConfigError(
                "metrics.clinical_w1 + metrics.clinical_w2 + metrics.clinical_w3 must sum "
                f"to 1, got {w_sum}"
            )


@dataclass(frozen=True)
class RunConfig:
    federation: FederationBlock = field(default_factory=FederationBlock)
    protocol: ProtocolBlock = field(default_factory=ProtocolBlock)
    privacy: PrivacyParams = field(default_factory=PrivacyParams)
    attack: AttackBlock = field(default_factory=AttackBlock)
    metrics: MetricsBlock = field(default_factory=MetricsBlock)
    seed: int = rule(0, int)
    max_rounds: int = rule(25, int, ge=0)
    target_accuracy: float | None = rule(None, float, null=True, gt=0, le=1)
    validation_samples: int = rule(400, int, ge=1)
    probe_samples: int = rule(120, int, ge=1)
    energy_coefficient: float = rule(3e-4, float, ge=0)
    output_dir: str = rule("runs", str)

    def __post_init__(self):
        _check_fields(self, "")
        p, fed = self.protocol, self.federation
        counts = fed.counts()
        clients = sum(counts.values())
        rate = p.sample_rate
        if rate * clients < 1:
            raise ConfigError(
                f"protocol.sample_rate {rate} of {clients} clients "
                "samples fewer than one client per round"
            )
        # ceil(rate * N) is the largest cohort either sampler can return
        largest_cohort = math.ceil(rate * clients)
        if p.shapley_mode == "exact" and largest_cohort > EXACT_MAX_CLIENTS:
            raise ConfigError(
                f"protocol.shapley_mode 'exact' supports cohorts of at most "
                f"{EXACT_MAX_CLIENTS} clients, but sample_rate {rate} "
                f"of {clients} clients allows {largest_cohort}"
            )
        if p.robust_method == "trimmed_mean" and p.robust_f != "auto":
            # dropout can leave a single live client; without it the smallest
            # cohort is what the sampler returns: round(rate * N) uniform,
            # floor(rate * N) load-aware
            if p.dropout_rate > 0:
                smallest_cohort = 1
            elif p.load_aware_sampling:
                smallest_cohort = math.floor(rate * clients)
            else:
                smallest_cohort = int(round(rate * clients))
            if smallest_cohort <= 2 * p.robust_f:
                raise ConfigError(
                    f"protocol.robust_f {p.robust_f} trims 2f >= {smallest_cohort} clients, "
                    "the smallest cohort a round can have; 'auto' fits f to each cohort"
                )
        smallest_shard = min(SAMPLE_RANGES[cls][0] for cls, n in counts.items() if n > 0)
        if p.curriculum_tiers > smallest_shard:
            raise ConfigError(
                f"protocol.curriculum_tiers {p.curriculum_tiers} exceeds the smallest "
                f"shard a configured institution class can get ({smallest_shard} samples)"
            )
        if p.curriculum_tau is not None:
            # round t weighs the tiers by softmax(z), z_k = (t - tau_k) / sigma_k,
            # linear in t, so its extremes over a run are at the first and last round
            for t in (1, self.max_rounds):
                z = [(t - tau) / sigma for tau, sigma in zip(p.curriculum_tau, p.curriculum_sigma)]
                if not (all(map(math.isfinite, z)) and math.isfinite(max(z) - min(z))):
                    raise ConfigError(
                        "protocol.curriculum_tau / curriculum_sigma give round "
                        f"{t} the non-finite curriculum logits {z}"
                    )
        # fairness escalation can multiply lambda2 by LAMBDA2_ESCALATION each round
        log_lambda2 = math.log(p.lambda2) + self.max_rounds * math.log(LAMBDA2_ESCALATION)
        if log_lambda2 > math.log(sys.float_info.max):
            raise ConfigError(
                f"protocol.lambda2 {p.lambda2!r} can escalate past the float range "
                f"in max_rounds {self.max_rounds} rounds"
            )
        modalities = range(fed.num_modalities)
        if p.fusion_weights is not None and len(p.fusion_weights) != len(modalities):
            raise ConfigError(
                f"protocol.fusion_weights needs one entry per modality ({len(modalities)})"
            )
        if p.active_modalities is not None:
            if not p.active_modalities or any(m not in modalities for m in p.active_modalities):
                raise ConfigError(
                    f"protocol.active_modalities must be a nonempty subset of {list(modalities)}"
                )
            for cls, n in counts.items():
                if n > 0 and not set(fed.class_modalities(cls)) & set(p.active_modalities):
                    raise ConfigError(
                        f"protocol.active_modalities leaves {cls} clients no modality"
                    )
        in_dim = self.input_width()
        params = [Arch(in_dim, fed.num_classes, h).param_count for h in p.grid_hidden]
        if any(b <= a for a, b in zip(params, params[1:])):
            raise ConfigError(
                f"protocol.grid_hidden {p.grid_hidden} gives templates of {params} parameters "
                f"at input width {in_dim}; they must be strictly ascending"
            )

    def input_width(self) -> int:
        """The models' input width: fused_dim if set, else the widest modality block."""
        if self.protocol.fused_dim is not None:
            return self.protocol.fused_dim
        return max(stop - start for _, (start, stop) in self.federation.modality_blocks())

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["schema_version"] = SCHEMA_VERSION
        return out

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, default=_jsonable)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _jsonable(obj):
    if isinstance(obj, tuple):
        return list(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def _field_value(f: dataclasses.Field, value, path: str):
    """The value for field f at the dotted path: a block, built by _build, or
    a JSON list as a tuple. Each block's __post_init__ checks the values."""
    if dataclasses.is_dataclass(f.default_factory):
        return _build(f.default_factory, value, path)
    return tuple(value) if isinstance(value, list) else value


def _build(cls, data, path: str):
    """An instance of the dataclass cls from the JSON object data found at the
    dotted path ("" for the config root). Unknown keys are checked here, the
    values by cls.__post_init__."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config root'} must be an object")
    prefix = f"{path}." if path else ""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for key in data:
        if key not in fields:
            raise ConfigError(f"unknown key {prefix}{key}")
    kwargs = {key: _field_value(fields[key], value, prefix + key) for key, value in data.items()}
    return cls(**kwargs)


def config_from_dict(data: dict) -> RunConfig:
    """Build a fully validated RunConfig; unknown keys are errors."""
    return _build(RunConfig, data, "")


def load_config(path: str) -> RunConfig:
    """Read and validate a JSON config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


# ---------------------------------------------------------------------------
# Scenario presets. "default" is the 12-institution feasibility scenario
# (2 academic / 4 regional / 6 rural).
# ---------------------------------------------------------------------------


def preset_default(seed: int = 7, algorithm: str = "affl") -> dict:
    """12-institution scenario: skewed labels plus one radial class pair.

    The pair shares a mean and differs only in spread, so it is nearly
    separable by radius yet impossible for the smallest messenger — which
    is what makes capacity adaptation worth its bytes.
    """
    return {
        "federation": {
            "academic": 2,
            "regional": 4,
            "rural": 6,
            "num_classes": 4,
            "feature_dim": 10,
            "concentration": 0.3,
            "class_separation": 2.2,
            "radial_pairs": 1,
            "radial_scale": 5.0,
            "academic_hidden": 24,
            "regional_hidden": 12,
            "rural_hidden": 12,
        },
        "protocol": {
            "algorithm": algorithm,
            "grid_hidden": (2, 8, 18),
            "adapt_interval": 3,
            "probe_steps": 60,
            "probe_lr": 0.8,
            "lambda1": 0.01,
            "warmup_steps": 2,
            "local_steps": 5,
            "local_lr": 0.5,
            "inject_steps": 4,
            "inject_lr": 0.4,
            "distill_steps": 10,
            "distill_lr": 0.5,
            "shapley_perms": 30,
        },
        "seed": seed,
        "max_rounds": 30,
        "target_accuracy": 0.68,
    }


def preset_smoke(seed: int = 7) -> dict:
    return {
        "federation": {
            "academic": 0,
            "regional": 0,
            "rural": 4,
            "num_classes": 3,
            "feature_dim": 10,
            "concentration": 1.0,
            "class_separation": 2.5,
        },
        "protocol": {
            "algorithm": "affl",
            "grid_hidden": (4, 8),
            "shapley_perms": 20,
            "local_steps": 4,
            "inject_steps": 2,
            "distill_steps": 6,
        },
        "seed": seed,
        "max_rounds": 6,
        "target_accuracy": None,
        "validation_samples": 200,
        "probe_samples": 60,
    }


def preset_convex(seed: int = 7) -> dict:
    """All-logistic, near-IID scenario for convergence-trend fits.

    Distillation is deliberately gentle so the pooled-objective curve is
    still decaying across the whole horizon instead of hitting its floor
    in the first rounds.
    """
    return {
        "federation": {
            "academic": 1,
            "regional": 3,
            "rural": 4,
            "num_classes": 3,
            "feature_dim": 12,
            "concentration": 20.0,
            "class_separation": 1.6,
            "academic_hidden": 0,
            "regional_hidden": 0,
            "rural_hidden": 0,
        },
        "protocol": {
            "algorithm": "affl",
            "grid_hidden": (0,),
            "adapt_interval": 1000,
            "curriculum_tiers": 2,
            "shapley_perms": 30,
            "lambda_kl": 0.3,
            "local_steps": 4,
            "distill_steps": 4,
            "distill_lr": 0.3,
        },
        "seed": seed,
        "max_rounds": 20,
        "target_accuracy": None,
        "validation_samples": 600,
    }


def preset_privacy(seed: int = 7, enabled: bool = True) -> dict:
    """25-institution, low-dimensional, well-separated task for DP runs."""
    from .privacy import noise_multiplier_for_budget

    rounds = 25
    nm = noise_multiplier_for_budget(2.3, rounds, 1e-5) if enabled else 0.0
    return {
        "federation": {
            "academic": 0,
            "regional": 0,
            "rural": 25,
            "num_classes": 2,
            "feature_dim": 4,
            "concentration": 20.0,
            "class_separation": 5.0,
            "rural_hidden": 0,
        },
        "protocol": {
            "algorithm": "affl",
            "grid_hidden": (0,),
            "adapt_interval": 1000,
            "curriculum_tiers": 2,
            "shapley_perms": 20,
            "local_steps": 6,
            "distill_steps": 15,
        },
        "privacy": {
            "enabled": enabled,
            "clip_norm": 0.5,
            "noise_multiplier": nm,
            "delta": 1e-5,
        },
        "seed": seed,
        "max_rounds": rounds,
        "target_accuracy": None,
        "validation_samples": 500,
    }


def preset_multimodal(seed: int = 7, active_modalities: tuple | None = None) -> dict:
    """Three-modality task whose class signal is split across modalities."""
    return {
        "federation": {
            "academic": 0,
            "regional": 2,
            "rural": 4,
            "num_classes": 6,
            "feature_dim": 24,
            "concentration": 2.0,
            "num_modalities": 3,
            "class_separation": 2.4,
        },
        "protocol": {
            "algorithm": "affl",
            "grid_hidden": (8, 16),
            "shapley_perms": 20,
            "active_modalities": active_modalities,
            "fused_dim": 16,
        },
        "seed": seed,
        "max_rounds": 15,
        "target_accuracy": None,
        "validation_samples": 500,
    }


def preset_scale(n_clients: int, seed: int = 7, algorithm: str = "affl") -> dict:
    """Rural-only federation of n_clients for communication scaling sweeps."""
    return {
        "federation": {
            "academic": 0,
            "regional": 0,
            "rural": n_clients,
            "num_classes": 3,
            "feature_dim": 12,
            "concentration": 1.0,
            "class_separation": 2.5,
        },
        "protocol": {
            "algorithm": algorithm,
            "grid_hidden": (8,),
            "shapley_perms": 10,
            "local_steps": 2,
            "inject_steps": 1,
            "distill_steps": 3,
        },
        "seed": seed,
        "max_rounds": 3,
        "target_accuracy": None,
        "validation_samples": 150,
        "probe_samples": 60,
    }


def preset_robustness(
    seed: int = 7, attack: bool = True, robust: bool = True, algorithm: str = "affl"
) -> dict:
    """Default scenario with redundant class coverage for attack experiments.

    Higher concentration keeps honest clients collectively informed, so the
    attacked-vs-clean delta measures aggregator robustness rather than the
    loss of data only attackers held.
    """
    cfg = preset_default(seed, algorithm)
    cfg["federation"]["concentration"] = 1.5
    cfg["protocol"]["robust_method"] = "trimmed_mean" if robust else None
    cfg["protocol"]["robust_f"] = "auto"
    cfg["attack"] = {
        "kind": "sign_flip" if attack else None,
        "attacker_fraction": 0.33 if attack else 0.0,
    }
    cfg["max_rounds"] = 24
    cfg["target_accuracy"] = None
    return cfg

