"""Benchmark metric suite: evaluation formulas plus trend fits.

Every metric is a pure function of persisted run logs (or of scalars
extracted from them), so reports are recomputable after the fact. The
trend fits share one least-squares slope, slope(x, y): the communication
scaling exponent here, and the convergence-trend fit of the acceptance
suite. Note: the privacy-utility trade-off uses validation accuracy as
the utility score, since the simulator's tasks are classification; there
is no ranking metric to plug in. Reports flag this substitution.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import os
import sys
from dataclasses import dataclass

import numpy as np

UTILITY_NOTE = "utility=validation_accuracy"


@dataclass
class MetricsReport:
    """One row of benchmark scores for a finished run or suite."""

    suite: str = ""
    cei: float | None = None
    hfi: float | None = None
    put: float | None = None
    mis: float | None = None
    statistical_parity: float | None = None
    mia_success: float | None = None
    transfer_effectiveness: float | None = None
    scaling_exponent: float | None = None
    clinical_readiness: float | None = None
    gini_accuracy: float | None = None
    fairness_gap_final: float | None = None

    def to_flat_dict(self) -> dict:
        return {"schema_version": 1, "note": UTILITY_NOTE, **dataclasses.asdict(self)}

    def write_flat(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for key, value in self.to_flat_dict().items():
                fh.write(f"{key}={value}\n")

    def csv_row(self) -> dict:
        """The metrics.csv row: to_flat_dict without its note, None as empty."""
        return {k: "" if v is None else v for k, v in self.to_flat_dict().items() if k != "note"}


def write_csv(path: str | None, rows: list[dict], append: bool = False) -> None:
    """Write rows, at least one, as CSV under a header of the first row's
    keys: to path, or to stdout when path is None. With append, rows are
    added to path and the header is written only to a fresh file."""
    header = not (append and os.path.exists(path))
    out = (
        open(path, "a" if append else "w", newline="", encoding="utf-8")
        if path
        else contextlib.nullcontext(sys.stdout)
    )
    with out as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        if header:
            writer.writeheader()
        writer.writerows(rows)


def cei(tasks: list[tuple[float, float, float, float]], alpha_w: float, beta_w: float) -> float:
    """Convergence efficiency: mean of alpha*R_base/R_adapt + beta*A_adapt/A_base.

    Each task contributes (rounds_baseline, rounds_adaptive, acc_baseline,
    acc_adaptive).
    """
    if not tasks:
        raise ValueError("need at least one task")
    total = 0.0
    for r_base, r_adapt, a_base, a_adapt in tasks:
        if r_adapt <= 0 or a_base <= 0:
            raise ValueError("adaptive rounds and baseline accuracy must be positive")
        total += alpha_w * (r_base / r_adapt) + beta_w * (a_adapt / a_base)
    return total / len(tasks)


def hfi(acc_by_institution_type: dict[str, float] | list[float]) -> float:
    """Fairness index 1 - mean |z-score| of per-type accuracy; 1.0 when sigma=0."""
    values = (
        list(acc_by_institution_type.values())
        if isinstance(acc_by_institution_type, dict)
        else list(acc_by_institution_type)
    )
    if not values:
        raise ValueError("need at least one institution type")
    arr = np.asarray(values, dtype=np.float64)
    sigma = float(arr.std())
    if sigma == 0:
        return 1.0
    z = np.abs((arr - arr.mean()) / sigma)
    return float(1.0 - z.mean())


def put(utility_private: float, utility_nonprivate: float, eps: float, lambda_w: float) -> float:
    """Privacy-utility trade-off: (private/non-private utility) * exp(-lambda*eps)."""
    if utility_nonprivate <= 0:
        raise ValueError("non-private utility must be positive")
    return utility_private / utility_nonprivate * float(np.exp(-lambda_w * eps))


def mis(acc_multimodal: float, acc_per_single_modality: list[float]) -> float:
    """Multi-modal integration score: multimodal over best single modality."""
    if not acc_per_single_modality:
        raise ValueError("need at least one single-modality accuracy")
    best = max(acc_per_single_modality)
    if best <= 0:
        raise ValueError("best single-modality accuracy must be positive")
    return acc_multimodal / best


def statistical_parity(benefit_samples_by_institution: dict, theta: float) -> float:
    """Max pairwise gap of empirical P(benefit >= theta) across institutions."""
    probs = []
    for name, samples in benefit_samples_by_institution.items():
        arr = np.asarray(samples, dtype=np.float64)
        if arr.size == 0:
            raise ValueError(f"institution {name!r} has no benefit samples")
        probs.append(float(np.mean(arr >= theta)))
    if len(probs) < 2:
        return 0.0
    return max(probs) - min(probs)


def transfer_effectiveness(perf_target: float, perf_baseline: float, perf_source: float) -> float:
    """(target - baseline) / source; sign tracks the improvement."""
    if perf_source <= 0:
        raise ValueError("source performance must be positive")
    return (perf_target - perf_baseline) / perf_source


def scaling_exponent(samples: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(comm bytes) vs log(N log N).

    A slope at or below 1 indicates the communication/(N log N) ratio stays
    bounded as the federation grows.
    """
    if len({n for n, _ in samples}) < 3:
        raise ValueError("need at least 3 distinct federation sizes")
    for n, b in samples:
        if n <= 1 or b <= 0:
            raise ValueError("sizes must exceed 1 and bytes must be positive")
    return slope([np.log(n * np.log(n)) for n, _ in samples], [np.log(b) for _, b in samples])


def slope(x: list[float] | np.ndarray, y: list[float] | np.ndarray) -> float:
    """Least-squares slope of y on x, from the centred x and y."""
    x, y = np.asarray(x), np.asarray(y)
    xc = x - x.mean()
    return float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))


def clinical_readiness(
    tech: float, acceptance: float, compliance: float, w1: float, w2: float, w3: float
) -> float:
    """Weighted sum of technical, acceptance and compliance scores in [0, 1]."""
    if abs(w1 + w2 + w3 - 1.0) > 1e-9:
        raise ValueError("weights must sum to 1")
    for name, score in (("tech", tech), ("acceptance", acceptance), ("compliance", compliance)):
        if not 0 <= score <= 1:
            raise ValueError(f"{name} score {score} outside [0, 1]")
    return w1 * tech + w2 * acceptance + w3 * compliance


# ---------------------------------------------------------------------------
# Report assembly from persisted run logs
# ---------------------------------------------------------------------------


def benefit_samples(
    summary: dict, local_only_accuracy: dict[str, float], by_class: dict[str, list[int]]
) -> dict[str, list[float]]:
    """Per-institution-type accuracy gains vs local-only training."""
    out: dict[str, list[float]] = {}
    client_acc = summary["final_client_accuracy"]
    for cls, ids in by_class.items():
        out[cls] = [client_acc[str(i)] - local_only_accuracy[str(i)] for i in ids]
    return out
