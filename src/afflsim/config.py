"""Run configuration: strict schema, defaults, digest, scenario presets.

Configs are JSON files mirroring the block structure below. Parsing is
strict — any unknown key is rejected with its full path — and every
default is materialized before the digest is computed, so a digest pins
the complete effective configuration.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .fairness import EXACT_MAX_CLIENTS
from .federation import SAMPLE_RANGES
from .messenger import CurriculumSchedule
from .models import Arch
from .privacy import PrivacyParams

SCHEMA_VERSION = 1

ALGORITHMS = ("affl", "fedavg", "static_messenger", "uniform_weight_affl")

# Ceiling of protocol.local_lr, inject_lr, distill_lr and lambda_kl. A
# distillation step is lr * (1 + lambda_kl) times a bounded gradient, and
# the presets' products and DP norms overflow once that factor nears 1e154.
# With all four at 1e76 together every preset runs (seeds 7-12); at 1e78
# the smoke and default presets overflow in a matmul (seed 7).
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


@dataclass(frozen=True)
class FederationBlock:
    academic: int = 2
    regional: int = 4
    rural: int = 6
    num_classes: int = 4
    feature_dim: int = 20
    concentration: float = 0.5
    num_modalities: int = 1
    modalities_by_class: dict | None = None
    class_separation: float = 2.0
    feature_noise: float = 1.0
    radial_pairs: int = 0
    radial_scale: float = 2.4
    academic_hidden: int = 32
    regional_hidden: int = 16
    rural_hidden: int = 8

    def __post_init__(self):
        for name in (*self.counts(), "academic_hidden", "regional_hidden", "rural_hidden"):
            if getattr(self, name) < 0:
                raise ConfigError(f"federation.{name} must be >= 0")
        if self.num_classes < 2:
            raise ConfigError("federation.num_classes must be >= 2")
        if not self.concentration > 0:
            raise ConfigError("federation.concentration must be positive")
        if self.num_modalities < 1:
            raise ConfigError("federation.num_modalities must be >= 1")
        if self.feature_dim < self.num_modalities:
            raise ConfigError("federation.feature_dim must be at least num_modalities")
        if not 0 <= 2 * self.radial_pairs <= self.num_classes:
            raise ConfigError("federation.radial_pairs must lie in [0, num_classes / 2]")
        if not self.radial_scale > 1:
            raise ConfigError("federation.radial_scale must exceed 1")
        for name in ("class_separation", "feature_noise"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"federation.{name} must be nonnegative")
            if getattr(self, name) > MAX_FEATURE_SCALE:
                raise ConfigError(
                    f"federation.{name} must be at most {MAX_FEATURE_SCALE:g}, "
                    f"got {getattr(self, name)!r}"
                )
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
    algorithm: str = "affl"
    # messenger template grid: hidden widths, ascending (0 = logistic regression)
    grid_hidden: tuple = (6, 12, 24)
    initial_capacity_index: int = 0
    adapt_interval: int = 3
    probe_steps: int = 12
    probe_lr: float = 0.5
    lambda1: float = 0.05
    lambda2: float = 0.1
    lambda_kl: float = 1.0
    theta_fair: float = 0.1
    curriculum_tiers: int = 3
    curriculum_tau: tuple | None = None
    curriculum_sigma: tuple | None = None
    sample_rate: float = 1.0
    load_aware_sampling: bool = False
    dropout_rate: float = 0.0
    warmup_steps: int = 10
    local_steps: int = 6
    inject_steps: int = 4
    distill_steps: int = 12
    local_lr: float = 0.3
    inject_lr: float = 0.3
    distill_lr: float = 0.5
    shapley_mode: str = "monte_carlo"  # monte_carlo | exact
    shapley_perms: int = 60
    eps_smooth: float = 0.01
    delta_size: float = 0.2
    robust_method: str | None = None  # trimmed_mean | coordinate_median | null
    robust_f: int | str = "auto"  # auto = floor((cohort-1)/3)
    fedavg_hidden: int = 16
    active_modalities: tuple | None = None
    fused_dim: int | None = None
    fusion_weights: tuple | None = None  # pre-softmax, one per modality
    het_alpha: float = 1.0 / 3.0
    het_beta: float = 1.0 / 3.0
    het_gamma: float = 1.0 / 3.0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown protocol.algorithm {self.algorithm!r}")
        if self.shapley_mode not in ("monte_carlo", "exact"):
            raise ConfigError(f"unknown protocol.shapley_mode {self.shapley_mode!r}")
        if self.robust_method not in (None, "trimmed_mean", "coordinate_median"):
            raise ConfigError(f"unknown protocol.robust_method {self.robust_method!r}")
        if not 0 < self.sample_rate <= 1:
            raise ConfigError("protocol.sample_rate must lie in (0, 1]")
        if not 0 <= self.dropout_rate < 1:
            raise ConfigError("protocol.dropout_rate must lie in [0, 1)")
        if self.robust_f != "auto" and (type(self.robust_f) is not int or self.robust_f < 0):
            raise ConfigError(
                f"protocol.robust_f must be a nonnegative integer or 'auto', got {self.robust_f!r}"
            )
        for name in ("shapley_perms", "adapt_interval", "curriculum_tiers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"protocol.{name} must be >= 1")
        for name in ("warmup_steps", "local_steps", "inject_steps", "distill_steps",
                     "probe_steps", "fedavg_hidden"):
            if getattr(self, name) < 0:
                raise ConfigError(f"protocol.{name} must be >= 0")
        for name in ("local_lr", "inject_lr", "distill_lr", "probe_lr", "lambda2"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"protocol.{name} must be positive")
        for name in ("lambda1", "lambda_kl", "theta_fair", "eps_smooth", "delta_size",
                     "het_alpha", "het_beta", "het_gamma"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"protocol.{name} must be nonnegative")
        for name in ("local_lr", "inject_lr", "distill_lr", "lambda_kl"):
            if getattr(self, name) > MAX_STEP_FACTOR:
                raise ConfigError(
                    f"protocol.{name} must be at most {MAX_STEP_FACTOR:g}, "
                    f"got {getattr(self, name)!r}"
                )
        het_sum = self.het_alpha + self.het_beta + self.het_gamma
        if abs(het_sum - 1.0) > 1e-9:
            raise ConfigError(
                "protocol.het_alpha + protocol.het_beta + protocol.het_gamma must sum to 1, "
                f"got {het_sum}"
            )
        if self.fused_dim is not None and (type(self.fused_dim) is not int or self.fused_dim < 1):
            raise ConfigError(
                f"protocol.fused_dim must be a positive integer or null, got {self.fused_dim!r}"
            )
        widths = self.grid_hidden
        if not widths or widths[0] < 0 or any(b <= a for a, b in zip(widths, widths[1:])):
            raise ConfigError(
                "protocol.grid_hidden must be nonnegative hidden widths in strictly "
                f"ascending order, got {widths}"
            )
        if not 0 <= self.initial_capacity_index < len(widths):
            raise ConfigError(
                f"protocol.initial_capacity_index must index protocol.grid_hidden {widths}"
            )
        if (self.curriculum_tau is None) != (self.curriculum_sigma is None):
            raise ConfigError(
                "protocol.curriculum_tau and protocol.curriculum_sigma must be both null "
                "or both set"
            )
        if self.curriculum_tau is not None:
            try:
                CurriculumSchedule(
                    self.curriculum_tiers, self.curriculum_tau, self.curriculum_sigma
                )
            except ValueError as exc:
                raise ConfigError(f"protocol.curriculum_tau / curriculum_sigma: {exc}") from exc


@dataclass(frozen=True)
class AttackBlock:
    kind: str | None = None  # sign_flip | large_norm | label_flip | null
    attacker_fraction: float = 0.0
    scale: float = 10.0

    def __post_init__(self):
        if self.kind not in (None, "sign_flip", "large_norm", "label_flip"):
            raise ConfigError(f"unknown attack.kind {self.kind!r}")
        if not 0 <= self.attacker_fraction < 0.5:
            raise ConfigError("attack.attacker_fraction must lie in [0, 0.5)")


@dataclass(frozen=True)
class MetricsBlock:
    cei_alpha: float = 0.5
    cei_beta: float = 0.5
    put_lambda: float = 0.1
    clinical_w1: float = 0.5
    clinical_w2: float = 0.3
    clinical_w3: float = 0.2
    physician_acceptance: float = 0.75
    regulatory_compliance: float = 0.8

    def __post_init__(self):
        for name in ("cei_alpha", "cei_beta", "put_lambda", "clinical_w1", "clinical_w2",
                     "clinical_w3"):
            if getattr(self, name) < 0:
                raise ConfigError(f"metrics.{name} must be nonnegative")
        w_sum = self.clinical_w1 + self.clinical_w2 + self.clinical_w3
        if abs(w_sum - 1.0) > 1e-9:
            raise ConfigError(
                "metrics.clinical_w1 + metrics.clinical_w2 + metrics.clinical_w3 must sum "
                f"to 1, got {w_sum}"
            )
        for name in ("physician_acceptance", "regulatory_compliance"):
            if not 0 <= getattr(self, name) <= 1:
                raise ConfigError(f"metrics.{name} must lie in [0, 1]")


@dataclass(frozen=True)
class RunConfig:
    federation: FederationBlock = field(default_factory=FederationBlock)
    protocol: ProtocolBlock = field(default_factory=ProtocolBlock)
    privacy: PrivacyParams = field(default_factory=PrivacyParams)
    attack: AttackBlock = field(default_factory=AttackBlock)
    metrics: MetricsBlock = field(default_factory=MetricsBlock)
    seed: int = 0
    max_rounds: int = 25
    target_accuracy: float | None = None
    validation_samples: int = 400
    probe_samples: int = 120
    energy_coefficient: float = 3e-4
    output_dir: str = "runs"

    def __post_init__(self):
        if self.max_rounds < 0:
            raise ConfigError("max_rounds must be nonnegative")
        target = self.target_accuracy
        if target is not None and not (type(target) in (int, float) and 0 < target <= 1):
            raise ConfigError(f"target_accuracy must be null or lie in (0, 1], got {target!r}")
        for name in ("validation_samples", "probe_samples"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not self.energy_coefficient >= 0:
            raise ConfigError("energy_coefficient must be nonnegative")
        if not (isinstance(self.output_dir, str) and self.output_dir):
            raise ConfigError(f"output_dir must be a nonempty string, got {self.output_dir!r}")
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


# list-valued fields and the type of their entries
_TUPLE_FIELDS = {
    "grid_hidden": int,
    "active_modalities": int,
    "curriculum_tau": float,
    "curriculum_sigma": float,
    "fusion_weights": float,
}


_SCALAR_NOUNS = {int: "an integer", bool: "true or false", float: "a finite number"}


def _is_real(value) -> bool:
    """A finite int or float, not a bool: JSON reads NaN, Infinity and 1e400
    as floats, and an int past the float range has no float value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _field_value(f: dataclasses.Field, value, path: str):
    """value, checked for field f at the dotted path. A block field is built
    by _build. A list field takes a list of ints, or of finite real numbers
    (_is_real). A field whose default is an int or a bool takes only that
    type, and one whose default is a float any finite int or float. Every
    integer outside a float field, list entries included, lies within MAX_INT."""
    if dataclasses.is_dataclass(f.default_factory):
        return _build(f.default_factory, value, path)
    if f.name in _TUPLE_FIELDS:
        kind = _TUPLE_FIELDS[f.name]
        value = tuple(value) if isinstance(value, list) else value
        if value is not None and not (
            isinstance(value, tuple)
            and all(type(v) is int if kind is int else _is_real(v) for v in value)
        ):
            noun = "integers" if kind is int else "real numbers"
            raise ConfigError(f"{path} must be a list of {noun}, got {value!r}")
        if kind is int and value is not None and any(abs(v) > MAX_INT for v in value):
            raise ConfigError(f"{path} entries must lie in {_INT_RANGE}, got {value!r}")
        return value
    kind = type(f.default)
    if kind in _SCALAR_NOUNS and not (_is_real(value) if kind is float else type(value) is kind):
        raise ConfigError(f"{path} must be {_SCALAR_NOUNS[kind]}, got {value!r}")
    if kind is not float and type(value) is int and abs(value) > MAX_INT:
        raise ConfigError(f"{path} must lie in {_INT_RANGE}, got {value!r}")
    return value


def _build(cls, data, path: str):
    """An instance of the dataclass cls from the JSON object data found at the
    dotted path ("" for the config root). Unknown keys and field types are
    checked here, value ranges by cls.__post_init__."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config root'} must be an object")
    prefix = f"{path}." if path else ""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for key in data:
        if key not in fields:
            raise ConfigError(f"unknown key {prefix}{key}")
    kwargs = {key: _field_value(fields[key], value, prefix + key) for key, value in data.items()}
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        # PrivacyParams, defined outside this module, names a field without its block
        raise ConfigError(f"{prefix}{exc}") from exc


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

