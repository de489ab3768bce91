"""Score post-processing: percentiles, weighted aggregates, distributions,
quadrant classification, productivity ratios, and dataset eligibility."""

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .model import (
    DataError,
    DmuInput,
    EfficiencyScores,
    _check_rows,
    _floats,
    count_problem,
    fraction_problem,
)

Triple = tuple[float, float, float]  # (te, ae, ce)

# Scores this close count as tied in percentile ranks and reach the quadrant
# threshold. A unit and a copy of it with inputs and output scaled by one
# factor score a few ulps apart; on the benchmark censuses, distinct scores
# sit at least 1e-7 apart.
TIE_TOL = 1e-9
BIN_WIDTH = 0.2  # histograms bin scores into quintiles of [0, 1]


@dataclass(frozen=True)
class AggregateScores:
    """Cost-weighted average scores of a group of SDS rows."""

    te: float
    ae: float
    ce: float
    total_weight: float
    te_pct: float | None = None
    ae_pct: float | None = None
    ce_pct: float | None = None


@dataclass(frozen=True)
class QuadrantSummary:
    """DMU counts in the four cells of the TE x AE plane."""

    both_low: int
    high_ae_low_te: int
    both_high: int
    high_te_low_ae: int

    def total(self) -> int:
        return self.both_low + self.high_ae_low_te + self.both_high + self.high_te_low_ae


@dataclass(frozen=True)
class Histogram:
    counts: tuple[int, ...]
    median: float
    bin_width: float = BIN_WIDTH


@dataclass(frozen=True)
class EligibilityDecision:
    include: bool
    failed_criteria: tuple[str, ...] = ()


def percentile_ranks(scores: Sequence[float]) -> list[float]:
    """Rank of each score within ``scores`` on a 0-100 scale, 100 best.

    Scores more than :data:`TIE_TOL` below a score count fully, ties within
    it (other than the score itself) count half, and the result is anchored
    so a unique best maps to 100 and a unique worst to 0.
    """
    if len(scores) < 2:
        raise DataError("percentile rank is undefined for fewer than two scores")
    values = _floats(scores)
    if values.ndim != 1:
        raise DataError("percentile rank is undefined for scores that are not a flat sequence")
    if np.isnan(values).any():
        raise DataError("percentile rank is undefined for a NaN score")
    return _percentile_ranks(values, np.zeros(values.size, dtype=np.intp))


def _percentile_ranks(scores: np.ndarray, group: np.ndarray) -> list:
    """:func:`percentile_ranks` within each group ``0..group.max()``, none of
    them empty and no score NaN, in row order; None in a group of one.

    numpy orders complex numbers by real part, then imaginary part, so one
    sort of the keys ``group + i*score`` sorts every group's scores, and two
    binary searches per score count the worse and the tied scores.
    """
    keys, tol = np.empty(scores.size, dtype=complex), complex(0, TIE_TOL)
    keys.real, keys.imag = group, scores  # group + 1j * inf has a NaN real part
    ordered = np.sort(keys)
    below = np.searchsorted(ordered, keys - tol, side="left")
    tied_others = np.searchsorted(ordered, keys + tol, side="right") - below - 1
    size = np.bincount(group)
    worse = below - (np.cumsum(size) - size)[group]
    others = size[group] - 1
    with np.errstate(invalid="ignore"):  # a group of one divides 0 by 0
        ranks = 100.0 * (worse + 0.5 * tied_others) / others
    return np.where(others > 0, ranks, None).tolist()


def aggregate_weighted(rows: Sequence[tuple[Triple, float]]) -> AggregateScores:
    """Weighted mean of (te, ae, ce) triples in [0, 1]; weights are staff
    costs in k EUR."""
    if not rows:
        raise DataError("cannot aggregate an empty list of rows")
    try:
        triples, weights = zip(*[(triple, weight) for triple, weight in rows])
    except (TypeError, ValueError):  # a row that does not unpack into two
        raise DataError("aggregated rows must be (triple, weight) pairs") from None
    scores, weights = _floats(triples), _floats(weights)
    if weights.shape != (len(rows),):
        raise DataError("aggregated rows must be (triple, weight) pairs")
    if scores.shape != (len(rows), 3) or not ((scores >= 0) & (scores <= 1)).all():
        raise DataError("aggregated scores must be (te, ae, ce) triples in [0, 1]")
    group = np.zeros(len(rows), dtype=np.intp)
    total, te, ae, ce = _aggregates(group, weights, *scores.T)
    return AggregateScores(float(te[0]), float(ae[0]), float(ce[0]), float(total[0]))


def _aggregates(group: np.ndarray, weights: np.ndarray, *scores: np.ndarray) -> list:
    """The total weight of each group of rows, then each score column's
    weighted mean in it. ``np.bincount`` adds a group's terms one at a time
    in row order. The report's rows come in the dataset's order, by SDS and
    unit, so its aggregates do not depend on the order of the input files."""
    if not ((weights > 0) & (weights < np.inf)).all():
        raise DataError("aggregation weights must be finite and strictly positive")
    total = np.bincount(group, weights=weights)
    with np.errstate(invalid="ignore"):  # a total past the float range is inf
        return [total, *(np.bincount(group, weights=s * weights) / total for s in scores)]


def histogram(scores: Sequence[float]) -> Histogram:
    """Bin scores over [0, 1], :data:`BIN_WIDTH` wide; the final bin is
    closed so 1.0 is counted."""
    values = _floats(scores)
    if values.ndim != 1:
        raise DataError("histogram scores must be a flat sequence")
    if not values.size:
        raise DataError("cannot build a histogram from no scores")
    if not ((values >= 0) & (values <= 1)).all():
        raise DataError("histogram scores must lie in [0, 1]")
    return _histograms(values, np.zeros(values.size, dtype=np.intp))[0]


def _histograms(scores: np.ndarray, group: np.ndarray) -> list:
    """:func:`histogram` of the scores of each group ``0..group.max()``,
    none of them empty; the scores are known to lie in [0, 1]."""
    n_bins = round(1.0 / BIN_WIDTH)
    quotient = scores / BIN_WIDTH
    bins = quotient.astype(int)
    # A score's bin is int(round(s / BIN_WIDTH, 9)): rounding snaps away
    # float-division drift so edge scores bin left-closed (0.6 / 0.2 is
    # 2.9999... in binary floats). It moves only a quotient within 5e-10
    # below an integer, so only quotients near one, but not on it, take
    # the scalar rule.
    offset = np.abs(quotient - np.rint(quotient))
    near = np.flatnonzero((offset < 1e-8) & (offset > 0))
    bins[near] = [int(round(q, 9)) for q in quotient[near].tolist()]
    size = np.bincount(group)
    cells = group * n_bins + np.minimum(bins, n_bins - 1)
    counts = np.bincount(cells, minlength=size.size * n_bins).reshape(-1, n_bins)
    # statistics.median of each group: its middle score, or the mean of its
    # two middle ones
    ordered, first = scores[np.lexsort((scores, group))], np.cumsum(size) - size
    median = (ordered[first + (size - 1) // 2] + ordered[first + size // 2]) / 2
    return [Histogram(tuple(c), m) for c, m in zip(counts.tolist(), median.tolist())]


def efficiency_matrix(
    scores: Mapping[str, EfficiencyScores], threshold: float = 0.5
) -> QuadrantSummary:
    """Classify DMUs by (te >= threshold, ae >= threshold), where a score
    within :data:`TIE_TOL` below the threshold reaches it."""
    if (problem := fraction_problem(threshold)) is not None:
        raise DataError(f"threshold {problem}")
    if not scores:
        raise DataError("cannot classify an empty score map")
    te, ae = np.array([(s.te, s.ae) for s in scores.values()], dtype=float).T
    return _quadrant_counts(te, ae, np.zeros(te.size, dtype=np.intp), threshold)[0]


def _quadrant_counts(te: np.ndarray, ae: np.ndarray, group: np.ndarray, threshold: float) -> list:
    """:func:`efficiency_matrix` of the units of each group
    ``0..group.max()``, whose scores are the pairs of ``te`` and ``ae``."""
    reach = threshold - TIE_TOL
    cells = 4 * group + 2 * (te >= reach) + (ae >= reach)
    counts = np.bincount(cells, minlength=4 * (group.max(initial=-1) + 1))
    # a group's cells: both low, high ae only, high te only, both high
    return [QuadrantSummary(c[0], c[1], c[3], c[2]) for c in counts.reshape(-1, 4).tolist()]


def productivity_ratio(ss: float, dmu: DmuInput) -> float:
    """Output per staff-year, the naive single-ratio productivity index, as
    a float: the unit's entry of :func:`_per_staff_year`. ``ss`` is read and
    checked as a dataset reads and checks an output."""
    ss = _floats([ss])
    _check_rows([(dmu.dmu_id, dmu.sds_id)], ss, [])
    years = np.array([[dmu.fp_years, dmu.ap_years, dmu.rf_years]], dtype=float)
    return float(_per_staff_year(ss, years)[0])


def _per_staff_year(ss: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each unit's output ``ss`` over its staff-years, its row of ``x``
    added fp + ap + rf, ``inf`` past the float range."""
    with np.errstate(over="ignore"):
        return ss / (x[:, 0] + x[:, 1] + x[:, 2])


def eligibility_filter(
    universities_active: int,
    fraction_publishing: float,
    min_active: int = 24,
    min_fraction: float = 0.5,
) -> EligibilityDecision:
    """Decide whether an SDS enters the assessment.

    ``fraction_publishing`` guards significance (publications must be a
    meaningful output proxy for the field); ``universities_active`` guards
    robustness of the frontier estimate.
    """
    for name, value, rule in (
        ("universities_active", universities_active, count_problem),
        ("fraction_publishing", fraction_publishing, fraction_problem),
        ("min_active", min_active, count_problem),
        ("min_fraction", min_fraction, fraction_problem),
    ):
        if (problem := rule(value)) is not None:
            raise DataError(f"{name} {problem}")
    failed = []
    if fraction_publishing < min_fraction:
        failed.append("significance")
    if universities_active < min_active:
        failed.append("robustness")
    return EligibilityDecision(include=not failed, failed_criteria=tuple(failed))


def rank_divergence(
    scores_by_ce: Mapping[str, float], scores_by_ratio: Mapping[str, float]
) -> dict[str, int]:
    """Signed rank shift per DMU between the CE ordering and the naive
    output-per-staff-year ordering (positive = worse off under the ratio).

    Ranks are competition-style: 1 plus the number of scores more than
    :data:`TIE_TOL` above, so float noise splits no tie.
    """
    if set(scores_by_ce) != set(scores_by_ratio):
        raise DataError("rank divergence requires identical DMU sets")
    if not scores_by_ce:
        raise DataError("rank divergence of an empty DMU set")

    def ranks(scores: Mapping[str, float]) -> np.ndarray:
        values = _floats([scores[k] for k in scores_by_ce])
        if np.isnan(values).any():
            raise DataError("rank divergence is undefined for a NaN score")
        return values.size + 1 - np.searchsorted(np.sort(values), values + TIE_TOL, side="right")

    return dict(zip(scores_by_ce, (ranks(scores_by_ratio) - ranks(scores_by_ce)).tolist()))
