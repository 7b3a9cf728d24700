"""Accuracy grids, confusion matrices, and baseline-normalized
corruption-error metrics (CE, mCE, RCE, RmCE)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corrupt import N_SEVERITIES, CorruptionKind

N_KINDS = 4


class UndefinedMetricError(ArithmeticError):
    """A normalizing denominator is zero; the metric has no value."""


@dataclass(frozen=True)
class AccuracyGrid:
    model_id: str
    clean_acc: float
    acc: dict[CorruptionKind, tuple[float, ...]]  # severity 1..6 per kind
    seed: int = 0

    def __post_init__(self):
        for kind in CorruptionKind:
            if kind not in self.acc:
                raise ValueError(f"grid for {self.model_id} missing {kind.value}")
            if len(self.acc[kind]) != N_SEVERITIES:
                raise ValueError(
                    f"{self.model_id}/{kind.value}: expected {N_SEVERITIES} "
                    f"severities, got {len(self.acc[kind])}"
                )
        vals = [self.clean_acc] + [a for row in self.acc.values() for a in row]
        if any(not 0.0 <= v <= 1.0 for v in vals):
            raise ValueError(f"accuracies must lie in [0,1] for {self.model_id}")


def corruption_error(model: AccuracyGrid, base: AccuracyGrid,
                     kind: CorruptionKind) -> float:
    """Summed error rate over severities, normalized by the baseline's."""
    num = sum(1.0 - a for a in model.acc[kind])
    den = sum(1.0 - a for a in base.acc[kind])
    if den == 0.0:
        raise UndefinedMetricError(
            f"baseline {base.model_id} is perfect under {kind.value}; CE undefined"
        )
    return num / den


def relative_corruption_error(model: AccuracyGrid, base: AccuracyGrid,
                              kind: CorruptionKind) -> float:
    """Degradation from own clean accuracy, normalized by the baseline's.

    May be negative when corrupted accuracy exceeds clean accuracy; the
    sign is preserved.
    """
    num = sum(model.clean_acc - a for a in model.acc[kind])
    den = sum(base.clean_acc - a for a in base.acc[kind])
    if den == 0.0:
        raise UndefinedMetricError(
            f"baseline {base.model_id} shows no degradation under "
            f"{kind.value}; RCE undefined"
        )
    return num / den


def mean_metric(per_kind: dict[CorruptionKind, float | None]) -> float | None:
    """Mean over the corruption kinds; None if any kind is undefined."""
    if set(per_kind) != set(CorruptionKind):
        raise ValueError(f"need all {N_KINDS} corruption kinds, got {sorted(per_kind)}")
    values = [per_kind[k] for k in CorruptionKind]
    if any(v is None for v in values):
        return None
    return float(np.mean(values))


@dataclass(frozen=True)
class RobustnessReport:
    """CE/RCE per kind and their means; None marks an undefined cell."""

    model_id: str
    baseline_id: str
    seed: int
    ce: dict[CorruptionKind, float | None]
    rce: dict[CorruptionKind, float | None]
    mce: float | None
    rmce: float | None


def _defined_or_none(metric, model: AccuracyGrid, base: AccuracyGrid,
                     kind: CorruptionKind) -> float | None:
    try:
        return metric(model, base, kind)
    except UndefinedMetricError:
        return None


def robustness_report(model: AccuracyGrid, base: AccuracyGrid) -> RobustnessReport:
    """Every metric of ``model`` against ``base``. A kind whose normalizing
    denominator is zero gets None for that metric, and so does its mean."""
    ce = {k: _defined_or_none(corruption_error, model, base, k) for k in CorruptionKind}
    rce = {k: _defined_or_none(relative_corruption_error, model, base, k)
           for k in CorruptionKind}
    return RobustnessReport(
        model_id=model.model_id,
        baseline_id=base.model_id,
        seed=model.seed,
        ce=ce,
        rce=rce,
        mce=mean_metric(ce),
        rmce=mean_metric(rce),
    )


def confusion(preds, labels, n_classes: int) -> np.ndarray:
    """int64 counts, rows true class, columns predicted class."""
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if preds.shape != labels.shape:
        raise ValueError(f"shape mismatch: {preds.shape} vs {labels.shape}")
    if preds.size and (max(preds.max(), labels.max()) >= n_classes
                       or min(preds.min(), labels.min()) < 0):
        raise ValueError(f"labels/predictions out of range for {n_classes} classes")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (labels, preds), 1)
    return counts


@dataclass(frozen=True)
class AggregatedCell:
    mean: float
    std: float


def aggregate_seeds(reports: list[RobustnessReport]) -> dict[str, AggregatedCell | None]:
    """Per-cell mean and sample (n-1) standard deviation across seeds; the
    std of a single seed is 0.0. A cell undefined in any seed is None.

    Keys are 'ce/<kind>', 'rce/<kind>', 'mce', 'rmce'.
    """
    if not reports:
        raise ValueError("need at least one report to aggregate")
    ids = {(r.model_id, r.baseline_id) for r in reports}
    if len(ids) != 1:
        raise ValueError(f"mismatched report structure: {sorted(ids)}")

    def cell(values):
        if any(v is None for v in values):
            return None
        arr = np.asarray(values, dtype=np.float64)
        std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        return AggregatedCell(float(arr.mean()), std)

    out: dict[str, AggregatedCell | None] = {}
    for kind in CorruptionKind:
        out[f"ce/{kind.value}"] = cell([r.ce[kind] for r in reports])
        out[f"rce/{kind.value}"] = cell([r.rce[kind] for r in reports])
    out["mce"] = cell([r.mce for r in reports])
    out["rmce"] = cell([r.rmce for r in reports])
    return out
