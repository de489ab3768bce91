"""Assessment configuration, the report structure, and the pipeline driver."""

import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import analytics, dea
from .analytics import AggregateScores, Histogram, QuadrantSummary
from .model import (
    DEFAULT_COSTS,
    AssessmentDataset,
    CostVector,
    DataError,
    _staff_costs,
    count_problem,
    fraction_problem,
)


@dataclass(frozen=True)
class AssessmentConfig:
    costs: CostVector = DEFAULT_COSTS
    quadrant_threshold: float = 0.5
    min_active_universities: int = 24
    min_fraction_publishing: float = 0.5

    def __post_init__(self):
        if not isinstance(self.costs, CostVector):
            raise DataError(f"costs must be a CostVector, not {self.costs!r}")
        for name, rule in (
            ("quadrant_threshold", fraction_problem),
            ("min_active_universities", count_problem),
            ("min_fraction_publishing", fraction_problem),
        ):
            if (problem := rule(getattr(self, name))) is not None:
                raise DataError(f"{name} {problem}")


class ScoreRow(NamedTuple):
    """One university's line in an SDS score table."""

    dmu_id: str
    sds_id: str
    ss: float
    fp_years: float
    ap_years: float
    rf_years: float
    te: float
    ae: float
    ce: float
    staff_cost: float
    ss_per_staff_year: float
    te_pct: float | None = None
    ae_pct: float | None = None
    ce_pct: float | None = None


@dataclass(frozen=True)
class SdsResult:
    sds_id: str
    rows: tuple[ScoreRow, ...]
    histograms: dict[str, Histogram]  # keyed te / ae / ce
    quadrants: QuadrantSummary


@dataclass(frozen=True)
class EligibilityEntry:
    sds_id: str
    included: bool
    universities_active: int
    fraction_publishing: float
    failed_criteria: tuple[str, ...]
    filter_applied: bool


@dataclass(frozen=True)
class InstitutionResult:
    dmu_id: str
    rows: tuple[ScoreRow, ...]
    aggregate: AggregateScores


@dataclass(frozen=True)
class AssessmentReport:
    ss_mode: str
    quadrant_threshold: float
    eligibility: tuple[EligibilityEntry, ...]
    sds_results: dict[str, SdsResult]
    institutions: tuple[InstitutionResult, ...]

    def institution(self, dmu_id: str) -> InstitutionResult:
        for inst in self.institutions:
            if inst.dmu_id == dmu_id:
                return inst
        raise DataError(f"no assessed institution {dmu_id!r}")


def run_assessment(
    dataset: AssessmentDataset,
    config: AssessmentConfig | None = None,
    apply_filter: bool = True,
) -> AssessmentReport:
    """Run the full pipeline over every SDS of the ingested dataset.

    ``config`` is an :class:`AssessmentConfig`, or None for the defaults, and
    ``apply_filter`` a bool; any other value is a :class:`DataError`.
    """
    if config is None:
        config = AssessmentConfig()
    elif not isinstance(config, AssessmentConfig):
        raise DataError(f"config must be an AssessmentConfig or None, not {config!r}")
    if not isinstance(apply_filter, bool):
        raise DataError(f"apply_filter must be a bool, not {apply_filter!r}")
    if not dataset.units:
        raise DataError("cannot assess an empty dataset")

    # The dataset holds checked columns sorted by SDS, then unit, so each
    # SDS is a span of them and none is validated again.
    x, y = dataset.years, dataset.ss
    cost = _staff_costs(x, config.costs)
    dmu_ids = [dmu_id for dmu_id, _ in dataset.units]
    scores = np.zeros((3, len(y)))
    sds_index = np.full(len(y), -1)  # each row's place among the scored SDSs
    eligibility, spans, stop = [], {}, 0
    for sds_id, members in itertools.groupby(dataset.units, key=operator.itemgetter(1)):
        s = slice(stop, stop := stop + sum(1 for _ in members))
        active = s.stop - s.start
        publishing = int(np.count_nonzero(y[s] > 0)) / active
        decision = analytics.eligibility_filter(
            active, publishing, config.min_active_universities, config.min_fraction_publishing
        )
        included = decision.include or not apply_filter
        eligibility.append(
            EligibilityEntry(
                sds_id=sds_id,
                included=included,
                universities_active=active,
                fraction_publishing=publishing,
                failed_criteria=decision.failed_criteria,
                filter_applied=apply_filter,
            )
        )
        if not included:
            continue
        scores[:, s] = dea._scores(sds_id, dmu_ids[s], x[s], y[s], cost[s])[0]
        sds_index[s], spans[sds_id] = len(spans), s

    scored = sds_index >= 0
    group = sds_index[scored]
    pct = np.full(scores.shape, None)
    pct[:, scored] = [analytics._percentile_ranks(v[scored], group) for v in scores]
    histograms = [analytics._histograms(v[scored], group) for v in scores]
    quadrants = analytics._quadrant_counts(*scores[:2, scored], group, config.quadrant_threshold)

    per_staff_year = analytics._per_staff_year(y, x)
    if (over := np.flatnonzero(scored & ~(per_staff_year < np.inf))).size:
        sds_id = dataset.units[over[0]][1]
        raise DataError(f"{sds_id}/{dmu_ids[over[0]]}: output per staff-year overflows a float")
    # one column per ScoreRow field, in field order
    columns = (
        dmu_ids,
        [sds_id for _, sds_id in dataset.units],
        y.tolist(),
        *x.T.tolist(),
        *scores.tolist(),
        cost.tolist(),
        per_staff_year.tolist(),
        *pct.tolist(),
    )
    rows = [tuple(map(ScoreRow._make, zip(*(c[s] for c in columns)))) for s in spans.values()]
    sds_results = {
        sds_id: SdsResult(sds_id, r, {"te": te, "ae": ae, "ce": ce}, quadrant)
        for sds_id, r, te, ae, ce, quadrant in zip(spans, rows, *histograms, quadrants)
    }
    institutions = _institution_results(
        [row for r in rows for row in r], cost[scored], *scores[:, scored]
    )
    return AssessmentReport(
        ss_mode=dataset.ss_mode,
        quadrant_threshold=config.quadrant_threshold,
        eligibility=tuple(eligibility),
        sds_results=sds_results,
        institutions=institutions,
    )


def _institution_results(
    rows: list[ScoreRow], cost: np.ndarray, *scores: np.ndarray
) -> tuple[InstitutionResult, ...]:
    """Each institution's rows in SDS order, their cost-weighted aggregates
    and the aggregates' percentile ranks among all institutions; ``cost``
    and ``scores`` are the columns of ``rows``."""
    ids = [row.dmu_id for row in rows]
    dmu_ids = sorted(set(ids))
    code = dict(zip(dmu_ids, itertools.count()))
    group = np.fromiter(map(code.__getitem__, ids), dtype=np.intp, count=len(ids))
    total, *means = analytics._aggregates(group, cost, *scores)
    # an infinite weight would make the aggregates NaN and rank them
    over = np.flatnonzero(~(total < math.inf))
    if over.size:
        raise DataError(
            f"institution {dmu_ids[over[0]]!r}: staff cost summed over its SDSs overflows a float"
        )
    parts = np.split(np.argsort(group, kind="stable"), np.cumsum(np.bincount(group))[:-1])
    picks = [tuple(map(rows.__getitem__, p)) for p in map(np.ndarray.tolist, parts)]
    one = np.zeros(len(dmu_ids), dtype=np.intp)
    ranks = [analytics._percentile_ranks(m, one) for m in means]
    return tuple(
        InstitutionResult(dmu_id, picked, AggregateScores(*values))
        for dmu_id, picked, *values in zip(
            dmu_ids, picks, *(m.tolist() for m in means), total.tolist(), *ranks
        )
    )
