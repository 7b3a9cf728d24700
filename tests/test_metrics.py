"""Robustness metrics: hand-computed CE/RCE values, self-baseline
identities, scale/sign properties, aggregation, and confusion matrices."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quanvaudio.corrupt import CorruptionKind
from quanvaudio.metrics import (
    AccuracyGrid,
    aggregate_seeds,
    confusion,
    corruption_error,
    relative_corruption_error,
    robustness_report,
)

KINDS = list(CorruptionKind)


def make_grid(model_id="m", clean=0.95, rows=None):
    if rows is None:
        rows = {k: (0.9, 0.8, 0.7, 0.6, 0.5, 0.4) for k in KINDS}
    return AccuracyGrid(model_id=model_id, clean_acc=clean, acc=rows)


def test_ce_hand_computed():
    model = make_grid(rows={k: (0.9, 0.8, 0.7, 0.6, 0.5, 0.4) for k in KINDS})
    base = make_grid("b", rows={k: (0.8, 0.7, 0.6, 0.5, 0.4, 0.3) for k in KINDS})
    ce = corruption_error(model, base, KINDS[0])
    assert abs(ce - 2.1 / 2.7) < 1e-12


def test_rce_hand_computed():
    model = make_grid(clean=1.0, rows={k: (0.9, 0.8, 0.7, 0.6, 0.5, 0.4) for k in KINDS})
    # base clean 0.9: denominator 0.9*6 - 3.3 = 2.1, so RCE = 2.1/2.1 = 1
    base = make_grid("b", clean=0.9, rows={k: (0.8, 0.7, 0.6, 0.5, 0.4, 0.3) for k in KINDS})
    assert abs(relative_corruption_error(model, base, KINDS[0]) - 1.0) < 1e-12
    # base clean 0.8: denominator 0.8*6 - 3.3 = 1.5, so RCE = 2.1/1.5 = 1.4
    base2 = make_grid("b", clean=0.8, rows={k: (0.8, 0.7, 0.6, 0.5, 0.4, 0.3) for k in KINDS})
    rce = relative_corruption_error(model, base2, KINDS[0])
    assert abs(rce - 2.1 / 1.5) < 1e-12
    assert abs(rce - 1.4) < 1e-12


def test_self_baseline_is_exactly_one():
    grid = make_grid()
    for kind in KINDS:
        assert corruption_error(grid, grid, kind) == 1.0
        assert relative_corruption_error(grid, grid, kind) == 1.0
    report = robustness_report(grid, grid)
    assert report["mce"] == 1.0 and report["rmce"] == 1.0


def test_half_errors_gives_half_ce():
    base = make_grid("b", rows={k: (0.8,) * 6 for k in KINDS})
    model = make_grid(rows={k: (0.9,) * 6 for k in KINDS})
    assert abs(corruption_error(model, base, KINDS[0]) - 0.5) < 1e-12


@given(st.floats(0.05, 1.0))
@settings(max_examples=30, deadline=None)
def test_ce_scale_property(c):
    # scaling every model error by c scales CE by c
    base_accs = (0.8, 0.7, 0.6, 0.5, 0.4, 0.3)
    model_errs = np.array([0.05, 0.1, 0.15, 0.2, 0.25, 0.3])
    grid1 = make_grid(rows={k: tuple(1 - model_errs) for k in KINDS})
    grid2 = make_grid(rows={k: tuple(1 - c * model_errs) for k in KINDS})
    base = make_grid("b", rows={k: base_accs for k in KINDS})
    ce1 = corruption_error(grid1, base, KINDS[0])
    ce2 = corruption_error(grid2, base, KINDS[0])
    assert abs(ce2 - c * ce1) < 1e-9


def test_rce_sign_preserved_when_model_improves_under_corruption():
    model = make_grid(clean=0.5, rows={k: (0.6,) * 6 for k in KINDS})
    base = make_grid("b", clean=0.9, rows={k: (0.8,) * 6 for k in KINDS})
    rce = relative_corruption_error(model, base, KINDS[0])
    assert rce < 0


def test_zero_degradation_model_has_zero_rce():
    model = make_grid(clean=0.7, rows={k: (0.7,) * 6 for k in KINDS})
    base = make_grid("b", clean=0.9, rows={k: (0.8,) * 6 for k in KINDS})
    assert relative_corruption_error(model, base, KINDS[0]) == 0.0
    # a baseline that improves under corruption: 0.0 / negative, never -0.0
    improving = make_grid("b", clean=0.7, rows={k: (0.8,) * 6 for k in KINDS})
    rce = relative_corruption_error(model, improving, KINDS[0])
    assert rce == 0.0 and math.copysign(1.0, rce) == 1.0


def test_undefined_denominators_are_none():
    perfect = make_grid("b", clean=1.0, rows={k: (1.0,) * 6 for k in KINDS})
    model = make_grid()
    assert corruption_error(model, perfect, KINDS[0]) is None
    assert relative_corruption_error(model, perfect, KINDS[0]) is None


def test_exact_zero_degradation_under_float_rounding_is_undefined():
    # Accuracies over 40 test clips whose drops from clean sum to exactly 0,
    # though their float sum is 1.1e-16; RCE used to come out near -4.5e14.
    rows = {k: (0.8, 0.7, 0.6, 0.5, 0.4, 0.3) for k in KINDS}
    rows[CorruptionKind.GAUSSIAN_NOISE] = (0.925, 0.95, 0.9, 0.925, 0.925, 0.925)
    base = make_grid("cnn_base", clean=0.925, rows=rows)
    assert sum(0.925 - a for a in rows[CorruptionKind.GAUSSIAN_NOISE]) != 0.0
    for model in (make_grid(), base):
        report = robustness_report(model, base)
        assert report["rce/gaussian_noise"] is None and report["rmce"] is None
        assert report["ce/gaussian_noise"] is not None


@st.composite
def _hit_counts(draw):
    """(n_test, clean hits, six severity hits in any order). A third of the
    draws each: any hits, hits whose differences from clean sum to zero,
    and every hit perfect."""
    n = draw(st.integers(1, 10_000))
    shape = draw(st.sampled_from(["any", "flat", "perfect"]))
    if shape == "perfect":
        return n, n, [n] * 6
    clean = draw(st.integers(0, n))
    if shape == "any":
        return n, clean, draw(st.lists(st.integers(0, n), min_size=6, max_size=6))
    deltas = draw(st.lists(st.integers(0, min(clean, n - clean)), min_size=3, max_size=3))
    hits = [clean + d for d in deltas] + [clean - d for d in deltas]
    return n, clean, draw(st.permutations(hits))


@given(_hit_counts())
@settings(max_examples=300, deadline=None)
def test_undefined_exactly_when_exact_denominator_is_zero(counts):
    n, clean, hits = counts
    rows = {k: (0.5,) * 6 for k in KINDS}
    base = make_grid("b", clean=clean / n, rows=rows | {KINDS[0]: tuple(h / n for h in hits)})
    rce = relative_corruption_error(make_grid(), base, KINDS[0])
    ce = corruption_error(make_grid(), base, KINDS[0])
    assert (rce is None) == (sum(clean - h for h in hits) == 0)
    assert (ce is None) == (sum(n - h for h in hits) == 0)


def test_mean_over_kinds():
    assert robustness_report(make_grid(), make_grid())["mce"] == 1.0
    # CE per kind 0.98, 0.96, 0.95, 0.93: errors of 0.1 * CE against 0.1
    base = make_grid("b", rows={k: (0.9,) * 6 for k in KINDS})
    ces = dict(zip(KINDS, (0.98, 0.96, 0.95, 0.93)))
    model = make_grid(rows={k: (1.0 - 0.1 * ce,) * 6 for k, ce in ces.items()})
    report = robustness_report(model, base)
    for kind, ce in ces.items():
        assert abs(report[f"ce/{kind.value}"] - ce) < 1e-12
    assert abs(report["mce"] - 0.955) < 1e-12


def test_grid_validation():
    with pytest.raises(ValueError):
        AccuracyGrid("m", 0.9, {KINDS[0]: (0.5,) * 6})  # missing kinds
    with pytest.raises(ValueError):
        make_grid(rows={k: (0.5,) * 5 for k in KINDS})  # wrong severity count
    with pytest.raises(ValueError):
        make_grid(clean=1.2)


def test_robustness_report_structure():
    model = make_grid(rows={k: (0.9, 0.8, 0.7, 0.6, 0.5, 0.4) for k in KINDS})
    base = make_grid("b", rows={k: (0.8, 0.7, 0.6, 0.5, 0.4, 0.3) for k in KINDS})
    report = robustness_report(model, base)
    assert set(report) == ({f"{m}/{k.value}" for m in ("ce", "rce") for k in KINDS}
                           | {"mce", "rmce"})
    assert abs(report["mce"] - np.mean([report[f"ce/{k.value}"] for k in KINDS])) < 1e-15


# ---------------------------------------------------------------------------
# Aggregation


def _report_with(mce):
    model = make_grid(rows={k: tuple(np.clip(1 - mce * 0.1 * np.arange(1, 7), 0, 1))
                            for k in KINDS})
    base = make_grid("b", rows={k: tuple(1 - 0.1 * np.arange(1, 7)) for k in KINDS})
    return robustness_report(model, base)


def test_aggregate_identical_reports_zero_std():
    reports = [_report_with(1.0), _report_with(1.0)]
    agg = aggregate_seeds(reports)
    assert agg["mce"] == (reports[0]["mce"], 0.0)


def test_aggregate_two_point_std():
    reports = [_report_with(0.9), _report_with(1.1)]
    agg = aggregate_seeds(reports)
    mean, std = agg["mce"]
    assert abs(mean - 1.0) < 1e-12
    assert abs(std - np.sqrt(2) * 0.1) < 1e-12  # ~0.1414


def test_aggregate_permutation_invariant():
    reports = [_report_with(m) for m in (0.8, 1.0, 1.2)]
    a = aggregate_seeds(reports)
    b = aggregate_seeds(reports[::-1])
    for key in a:
        assert a[key] == b[key]


def test_aggregate_validation():
    single = aggregate_seeds([_report_with(1.1)])
    assert single["mce"][0] == _report_with(1.1)["mce"]
    assert all(std == 0.0 for _, std in single.values())
    with pytest.raises(ValueError):
        aggregate_seeds([])


def test_undefined_kind_is_none_in_report_mean_and_aggregate():
    # baseline perfect under one kind: CE undefined there, RCE still defined
    rows = {k: (0.8, 0.7, 0.6, 0.5, 0.4, 0.3) for k in KINDS}
    base = make_grid("b", clean=0.9, rows=rows | {KINDS[0]: (1.0,) * 6})
    report = robustness_report(make_grid(), base)
    assert report[f"ce/{KINDS[0].value}"] is None
    assert all(report[f"ce/{k.value}"] is not None for k in KINDS[1:])
    assert report["mce"] is None
    assert all(report[f"rce/{k.value}"] is not None for k in KINDS)
    assert report["rmce"] is not None
    defined = robustness_report(make_grid(), make_grid("b", rows=rows))
    agg = aggregate_seeds([defined, report])
    assert agg[f"ce/{KINDS[0].value}"] is None and agg["mce"] is None
    assert agg[f"ce/{KINDS[1].value}"] is not None and agg["rmce"] is not None


def test_flat_baseline_leaves_rce_undefined_only():
    rows = {k: (0.8, 0.7, 0.6, 0.5, 0.4, 0.3) for k in KINDS}
    base = make_grid("b", clean=0.9, rows=rows | {KINDS[1]: (0.9,) * 6})
    report = robustness_report(make_grid(), base)
    assert report[f"rce/{KINDS[1].value}"] is None and report["rmce"] is None
    assert report["mce"] is not None


# ---------------------------------------------------------------------------
# Confusion matrices


def test_confusion_perfect_is_diagonal():
    labels = np.array([0, 1, 2, 1, 0])
    counts = confusion(labels, labels, 3)
    assert counts.dtype == np.int64
    np.testing.assert_array_equal(counts, np.diag([2, 2, 1]))


def test_confusion_single_column():
    labels = np.array([0, 1, 2])
    counts = confusion(np.zeros(3, dtype=int), labels, 3)
    assert counts[:, 0].sum() == 3
    assert counts[:, 1:].sum() == 0


def test_confusion_trace_equals_accuracy():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 4, 100)
    preds = rng.integers(0, 4, 100)
    counts = confusion(preds, labels, 4)
    assert np.trace(counts) == np.sum(preds == labels)
    np.testing.assert_array_equal(counts.sum(axis=1), np.bincount(labels, minlength=4))


def test_confusion_validation():
    with pytest.raises(ValueError):
        confusion(np.array([0, 1]), np.array([0]), 2)
    with pytest.raises(ValueError):
        confusion(np.array([0, 5]), np.array([0, 1]), 2)
