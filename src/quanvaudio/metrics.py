"""Accuracy grids, confusion matrices, and baseline-normalized
corruption-error metrics (CE, mCE, RCE, RmCE)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corrupt import N_SEVERITIES, CorruptionKind

# Accuracies are k/n_test, so a nonzero exact sum of them is at least
# 1/n_test, while float rounding leaves about 1e-15: a |denominator| at or
# below this is an exact zero for any n_test below 10^8.
EXACT_ZERO = 1e-9


@dataclass(frozen=True)
class AccuracyGrid:
    model_id: str
    clean_acc: float
    acc: dict[CorruptionKind, tuple[float, ...]]  # severity 1..6 per kind

    def __post_init__(self):
        for kind in CorruptionKind:  # a missing kind has no severities
            if len(self.acc.get(kind, ())) != N_SEVERITIES:
                raise ValueError(f"{self.model_id}/{kind.value}: expected {N_SEVERITIES} "
                                 f"severities, got {len(self.acc.get(kind, ()))}")
        vals = [self.clean_acc] + [a for row in self.acc.values() for a in row]
        if any(not 0.0 <= v <= 1.0 for v in vals):
            raise ValueError(f"accuracies must lie in [0,1] for {self.model_id}")


def _ratio(num: float, den: float) -> float | None:
    """num / den, or None (undefined) when ``den`` is exactly zero; never -0.0."""
    if abs(den) <= EXACT_ZERO:
        return None
    return num / den + 0.0


def corruption_error(model: AccuracyGrid, base: AccuracyGrid,
                     kind: CorruptionKind) -> float | None:
    """Summed error rate over severities, normalized by the baseline's;
    None when the baseline is perfect under ``kind``."""
    return _ratio(sum(1.0 - a for a in model.acc[kind]),
                  sum(1.0 - a for a in base.acc[kind]))


def relative_corruption_error(model: AccuracyGrid, base: AccuracyGrid,
                              kind: CorruptionKind) -> float | None:
    """Degradation from own clean accuracy, normalized by the baseline's;
    None when the baseline's degradations under ``kind`` sum to zero.

    May be negative when corrupted accuracy exceeds clean accuracy; the
    sign is preserved.
    """
    return _ratio(sum(model.clean_acc - a for a in model.acc[kind]),
                  sum(base.clean_acc - a for a in base.acc[kind]))


def robustness_report(model: AccuracyGrid, base: AccuracyGrid) -> dict[str, float | None]:
    """Every metric of ``model`` against ``base``, keyed 'ce/<kind>',
    'rce/<kind>', 'mce' and 'rmce'. None marks an undefined cell; a mean
    over the kinds is None when any of its kinds is."""
    report: dict[str, float | None] = {}
    for name, mean_name, metric in (("ce", "mce", corruption_error),
                                    ("rce", "rmce", relative_corruption_error)):
        values = [metric(model, base, k) for k in CorruptionKind]
        report.update((f"{name}/{k.value}", v) for k, v in zip(CorruptionKind, values))
        report[mean_name] = None if None in values else float(np.mean(values))
    return report


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


def aggregate_seeds(
    reports: list[dict[str, float | None]],
) -> dict[str, tuple[float, float] | None]:
    """Each key of the ``robustness_report`` dicts mapped to its (mean,
    sample (n-1) standard deviation) across seeds; the std of a single seed
    is 0.0. A cell undefined in any seed is None."""
    if not reports:
        raise ValueError("need at least one report to aggregate")
    out: dict[str, tuple[float, float] | None] = {}
    for key in reports[0]:
        values = [r[key] for r in reports]
        if None in values:
            out[key] = None
            continue
        arr = np.asarray(values, dtype=np.float64)
        out[key] = (float(arr.mean()), float(arr.std(ddof=1)) if arr.size > 1 else 0.0)
    return out
