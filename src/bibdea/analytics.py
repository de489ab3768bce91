"""Score post-processing: percentiles, weighted aggregates, distributions,
quadrant classification, productivity ratios, and dataset eligibility."""

import statistics
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .model import DataError, DmuInput, EfficiencyScores

Triple = tuple[float, float, float]  # (te, ae, ce)

# Scores this close count as tied in percentile ranks and reach the quadrant
# threshold. A unit and a copy of it with inputs and output scaled by one
# factor score a few ulps apart; on the benchmark censuses, distinct scores
# sit at least 1e-7 apart.
TIE_TOL = 1e-9


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
    bin_width: float = 0.2


@dataclass(frozen=True)
class EligibilityDecision:
    include: bool
    failed_criteria: tuple[str, ...] = ()


def percentile_rank(scores: Sequence[float], target: float) -> float:
    """Rank of ``target`` within ``scores`` on a 0-100 scale, 100 best.

    Scores more than :data:`TIE_TOL` below the target count fully, ties
    within it (other than the target itself) count half, and the result is
    anchored so a unique best maps to 100 and a unique worst to 0.
    """
    if len(scores) < 2:
        raise DataError("percentile rank is undefined for fewer than two scores")
    if target not in scores:
        raise DataError(f"target score {target} not among the scores")
    low, high = target - TIE_TOL, target + TIE_TOL
    worse = sum(1 for s in scores if s < low)
    tied_others = sum(1 for s in scores if low <= s <= high) - 1
    return 100.0 * (worse + 0.5 * tied_others) / (len(scores) - 1)


def percentile_ranks(scores: Sequence[float]) -> list[float]:
    """``percentile_rank(scores, s)`` for every ``s`` in ``scores``, in order.

    One sort and two binary searches per score count the worse and the tied
    scores; the formula and its operation order are those of
    :func:`percentile_rank`, so each rank is the same float.
    """
    if len(scores) < 2:
        raise DataError("percentile rank is undefined for fewer than two scores")
    values = np.asarray(scores, dtype=float)
    ordered = np.sort(values)
    worse = np.searchsorted(ordered, values - TIE_TOL, side="left")
    tied_others = np.searchsorted(ordered, values + TIE_TOL, side="right") - worse - 1
    return (100.0 * (worse + 0.5 * tied_others) / (len(scores) - 1)).tolist()


def aggregate_weighted(rows: Sequence[tuple[Triple, float]]) -> AggregateScores:
    """Weighted mean of (te, ae, ce) triples; weights are staff costs in k EUR."""
    if not rows:
        raise DataError("cannot aggregate an empty list of rows")
    if any(w <= 0 for _, w in rows):
        raise DataError("aggregation weights must be strictly positive")
    total = sum(w for _, w in rows)
    te, ae, ce = (
        sum(t[k] * w for t, w in rows) / total for k in range(3)
    )
    return AggregateScores(te=te, ae=ae, ce=ce, total_weight=total)


def histogram(scores: Sequence[float], bin_width: float = 0.2) -> Histogram:
    """Bin scores over [0, 1]; the final bin is closed so 1.0 is counted."""
    if not scores:
        raise DataError("cannot build a histogram from no scores")
    if any(s < 0 or s > 1 for s in scores):
        raise DataError("histogram scores must lie in [0, 1]")
    n_bins = round(1.0 / bin_width)
    counts = [0] * n_bins
    for s in scores:
        # snap away float-division drift so edge scores bin left-closed
        # (0.6 / 0.2 is 2.9999... in binary floats)
        idx = min(int(round(s / bin_width, 9)), n_bins - 1)
        counts[idx] += 1
    return Histogram(
        counts=tuple(counts), median=statistics.median(scores), bin_width=bin_width
    )


def efficiency_matrix(
    scores: Mapping[str, EfficiencyScores], threshold: float = 0.5
) -> QuadrantSummary:
    """Classify DMUs by (te >= threshold, ae >= threshold), where a score
    within :data:`TIE_TOL` below the threshold reaches it."""
    if not scores:
        raise DataError("cannot classify an empty score map")
    cells = {(False, False): 0, (False, True): 0, (True, True): 0, (True, False): 0}
    reach = threshold - TIE_TOL
    for s in scores.values():
        cells[(s.te >= reach, s.ae >= reach)] += 1
    return QuadrantSummary(
        both_low=cells[(False, False)],
        high_ae_low_te=cells[(False, True)],
        both_high=cells[(True, True)],
        high_te_low_ae=cells[(True, False)],
    )


def productivity_ratio(ss: float, dmu: DmuInput) -> float:
    """Output per staff-year, the naive single-ratio productivity index."""
    return ss / dmu.total_years()


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
    if universities_active < 0:
        raise DataError("universities_active must be >= 0")
    if not 0 <= fraction_publishing <= 1:
        raise DataError("fraction_publishing must lie in [0, 1]")
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

    Ranks are competition-style: 1 plus the number of strictly better scores.
    """
    if set(scores_by_ce) != set(scores_by_ratio):
        raise DataError("rank divergence requires identical DMU sets")
    if not scores_by_ce:
        raise DataError("rank divergence of an empty DMU set")

    def ranks(scores: Mapping[str, float]) -> dict[str, int]:
        return {
            k: 1 + sum(1 for other in scores.values() if other > v)
            for k, v in scores.items()
        }

    ce_ranks = ranks(scores_by_ce)
    ratio_ranks = ranks(scores_by_ratio)
    return {k: ratio_ranks[k] - ce_ranks[k] for k in scores_by_ce}
