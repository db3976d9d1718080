"""Synthetic federation generation.

Builds institution profiles and non-IID data shards for three institution
classes (academic, regional, rural) whose sample-count ranges, modality
coverage and compute budgets differ by construction. Label skew follows
per-client Dirichlet class priors; features are class-conditional
Gaussians, optionally laid out in per-modality column blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .models import Arch
from .rng import stream

if TYPE_CHECKING:  # pragma: no cover
    from .config import FederationBlock

SAMPLE_RANGES = {
    "academic": (10_000, 12_000),
    "regional": (3_000, 7_000),
    "rural": (500, 2_000),
}

# (capacity low/high, delay low/high) per institution class; capacities
# intentionally span orders of magnitude.
RESOURCE_RANGES = {
    "academic": ((50.0, 100.0), (1.0, 1.2)),
    "regional": ((10.0, 30.0), (1.2, 2.0)),
    "rural": ((1.0, 5.0), (2.0, 4.0)),
}

HONEST = "honest"


@dataclass
class DatasetShard:
    """One institution's data: features, labels, modality layout, tiers.

    features are stored column-major, the layout of every model kernel's
    activations (see models), converted once here; a copy that is already
    column-major is kept as it is.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    modality_blocks: tuple[tuple[int, tuple[int, int]], ...] = ()
    difficulty_tiers: np.ndarray | None = None
    num_tiers: int = 0

    def __post_init__(self):
        self.features = np.asfortranarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels disagree on sample count")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("label ids must lie in [0, num_classes)")
        if not self.modality_blocks:
            self.modality_blocks = ((0, (0, self.features.shape[1])),)
        _check_blocks(self.modality_blocks, self.features.shape[1])
        if self.difficulty_tiers is not None:
            tiers = np.asarray(self.difficulty_tiers, dtype=np.int64)
            if tiers.shape != self.labels.shape:
                raise ValueError("difficulty tiers must cover every sample")
            if tiers.size and (tiers.min() < 0 or tiers.max() >= self.num_tiers):
                raise ValueError("tier ids must lie in [0, num_tiers)")
            self.difficulty_tiers = tiers

    @property
    def sample_count(self) -> int:
        return self.features.shape[0]

    def label_histogram(self) -> np.ndarray:
        """Empirical label distribution (sums to 1)."""
        if self.sample_count == 0:
            raise ValueError("empty shard has no label distribution")
        counts = np.bincount(self.labels, minlength=self.num_classes)
        return counts / counts.sum()

    def with_tiers(self, tiers: np.ndarray, num_tiers: int) -> "DatasetShard":
        return replace(self, difficulty_tiers=tiers, num_tiers=num_tiers)

    def with_features(self, features: np.ndarray) -> "DatasetShard":
        blocks = ((0, (0, features.shape[1])),)
        return replace(self, features=features, modality_blocks=blocks)

    def with_labels(self, labels: np.ndarray) -> "DatasetShard":
        return replace(self, labels=labels)

    def modality_columns(self, modality: int) -> slice:
        for mid, (start, stop) in self.modality_blocks:
            if mid == modality:
                return slice(start, stop)
        raise KeyError(f"modality {modality} not present in shard")


def _check_blocks(blocks, width: int) -> None:
    covered = np.zeros(width, dtype=bool)
    for _, (start, stop) in blocks:
        if start < 0 or stop > width or start >= stop:
            raise ValueError(f"bad modality column range ({start}, {stop})")
        if covered[start:stop].any():
            raise ValueError("modality column ranges overlap")
        covered[start:stop] = True
    if not covered.all():
        raise ValueError("modality column ranges must cover all columns")


@dataclass(frozen=True)
class ClientProfile:
    """Institution descriptor: data volume, resources, modalities, honesty."""

    id: int
    institution_class: str
    sample_count: int
    compute_capacity: float
    network_delay: float
    modalities: tuple[int, ...]
    honesty: str
    arch: Arch

    def __post_init__(self):
        lo, hi = SAMPLE_RANGES[self.institution_class]
        if not lo <= self.sample_count <= hi:
            raise ValueError(
                f"{self.institution_class} sample count {self.sample_count} outside [{lo}, {hi}]"
            )
        if self.compute_capacity <= 0:
            raise ValueError("compute_capacity must be positive")
        if self.network_delay < 1:
            raise ValueError("network_delay must be >= 1")

    @property
    def arch_descriptor(self) -> tuple[int, int, int]:
        return self.arch.descriptor


def _class_means(fed: FederationBlock, seed: int) -> np.ndarray:
    rng = stream(seed, "class-means")
    means = rng.normal(0.0, 1.0, (fed.num_classes, fed.feature_dim))
    norms = np.linalg.norm(means, axis=1, keepdims=True)
    means = means / norms * fed.class_separation
    # pairs of classes (2p, 2p+1) share a mean and differ only in spread;
    # such pairs are not linearly separable, so model capacity matters
    for p in range(fed.radial_pairs):
        means[2 * p + 1] = means[2 * p]
    return means


def _class_noise_scales(fed: FederationBlock) -> np.ndarray:
    scales = np.ones(fed.num_classes)
    for p in range(fed.radial_pairs):
        scales[2 * p + 1] = fed.radial_scale
    return scales * fed.feature_noise


def _sample_shard(
    fed: FederationBlock,
    means: np.ndarray,
    label_probs: np.ndarray,
    n: int,
    rng: np.random.Generator,
    modalities: tuple[int, ...],
) -> DatasetShard:
    labels = rng.choice(fed.num_classes, size=n, p=label_probs)
    scales = _class_noise_scales(fed)[labels][:, None]
    feats = means[labels] + scales * rng.normal(0.0, 1.0, (n, fed.feature_dim))
    blocks = fed.modality_blocks()
    missing = set(range(fed.num_modalities)) - set(modalities)
    for mid, (start, stop) in blocks:
        if mid in missing:
            feats[:, start:stop] = 0.0
    return DatasetShard(feats, labels, fed.num_classes, blocks)


def gen_federation(
    fed: FederationBlock, seed: int
) -> tuple[list[ClientProfile], list[DatasetShard]]:
    """Generate profiles and shards; bit-identical for equal (block, seed)."""
    means = _class_means(fed, seed)
    profiles: list[ClientProfile] = []
    shards: list[DatasetShard] = []
    client_id = 0
    for cls, count in fed.counts().items():
        for _ in range(count):
            rng = stream(seed, "client", client_id)
            lo, hi = SAMPLE_RANGES[cls]
            n = int(rng.integers(lo, hi + 1))
            alpha = np.full(fed.num_classes, fed.concentration)
            label_probs = rng.dirichlet(alpha)
            (cap_lo, cap_hi), (del_lo, del_hi) = RESOURCE_RANGES[cls]
            modalities = fed.class_modalities(cls)
            profile = ClientProfile(
                id=client_id,
                institution_class=cls,
                sample_count=n,
                compute_capacity=float(rng.uniform(cap_lo, cap_hi)),
                network_delay=float(rng.uniform(del_lo, del_hi)),
                modalities=modalities,
                honesty=HONEST,
                arch=Arch(fed.feature_dim, fed.num_classes, getattr(fed, f"{cls}_hidden")),
            )
            shard = _sample_shard(fed, means, label_probs, n, rng, modalities)
            profiles.append(profile)
            shards.append(shard)
            client_id += 1
    return profiles, shards


def gen_reference_shard(
    fed: FederationBlock, seed: int, n: int, purpose: str = "validation"
) -> DatasetShard:
    """Server-side shard with a uniform label mixture (validation / probe)."""
    means = _class_means(fed, seed)
    rng = stream(seed, "reference", purpose)
    uniform = np.full(fed.num_classes, 1.0 / fed.num_classes)
    return _sample_shard(fed, means, uniform, n, rng, tuple(range(fed.num_modalities)))


def pooled_label_distribution(shards: list[DatasetShard]) -> np.ndarray:
    """Label distribution of the union of all shards."""
    if not shards:
        raise ValueError("no shards")
    counts = np.zeros(shards[0].num_classes)
    for shard in shards:
        counts += np.bincount(shard.labels, minlength=shard.num_classes)
    return counts / counts.sum()
