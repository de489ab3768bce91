"""Assessment configuration, the report structure, and the pipeline driver."""

import dataclasses
import math
from dataclasses import dataclass
from numbers import Integral, Real

from . import analytics
from .analytics import AggregateScores, Histogram, QuadrantSummary
from .dea import evaluate_sds
from .model import (
    DEFAULT_COSTS,
    AssessmentDataset,
    CostVector,
    DataError,
    SdsDataset,
    staff_cost,
)

# A double carries at most 17 significant digits, and report.json keeps full
# precision; a larger precision would only pad the tables (or, past 2**31,
# fail in the formatter).
MAX_REPORTING_PRECISION = 17


@dataclass(frozen=True)
class AssessmentConfig:
    costs: CostVector = DEFAULT_COSTS
    quadrant_threshold: float = 0.5
    min_active_universities: int = 24
    min_fraction_publishing: float = 0.5
    reporting_precision: int = 3
    census_date: str = ""  # metadata only, echoed into reports

    def __post_init__(self):
        for name, kind, label in (
            ("min_active_universities", Integral, "an integer"),
            ("reporting_precision", Integral, "an integer"),
            ("quadrant_threshold", Real, "a number"),
            ("min_fraction_publishing", Real, "a number"),
        ):
            value = getattr(self, name)
            if not isinstance(value, kind) or isinstance(value, bool):
                raise DataError(f"{name} must be {label}, not {value!r}")
        if not isinstance(self.census_date, str):
            raise DataError(f"census_date must be a string, not {self.census_date!r}")
        if not 0 <= self.quadrant_threshold <= 1:
            raise DataError("quadrant_threshold must lie in [0, 1]")
        if not 0 <= self.min_fraction_publishing <= 1:
            raise DataError("min_fraction_publishing must lie in [0, 1]")
        if self.min_active_universities < 0:
            raise DataError("min_active_universities must be >= 0")
        if not 1 <= self.reporting_precision <= MAX_REPORTING_PRECISION:
            raise DataError(
                f"reporting_precision must lie in 1..{MAX_REPORTING_PRECISION} decimals"
            )


@dataclass(frozen=True)
class ScoreRow:
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
    census_date: str
    quadrant_threshold: float
    reporting_precision: int
    eligibility: tuple[EligibilityEntry, ...]
    sds_results: dict[str, SdsResult]
    institutions: tuple[InstitutionResult, ...]

    def institution(self, dmu_id: str) -> InstitutionResult:
        for inst in self.institutions:
            if inst.dmu_id == dmu_id:
                return inst
        raise DataError(f"no assessed institution {dmu_id!r}")


def _percentiles(values: list[float]) -> list[float | None]:
    if len(values) < 2:
        return [None] * len(values)
    return analytics.percentile_ranks(values)


def run_assessment(
    dataset: AssessmentDataset,
    config: AssessmentConfig | None = None,
    apply_filter: bool = True,
) -> AssessmentReport:
    """Run the full pipeline over every SDS of the ingested dataset."""
    config = config or AssessmentConfig()
    if not dataset.staff:
        raise DataError("cannot assess an empty dataset")

    by_sds: dict[str, list] = {}
    for (dmu_id, sds_id), dmu in sorted(dataset.staff.items()):
        by_sds.setdefault(sds_id, []).append((dmu, dataset.ss[dmu_id, sds_id]))

    eligibility: list[EligibilityEntry] = []
    sds_results: dict[str, SdsResult] = {}
    for sds_id, members in sorted(by_sds.items()):
        sds = SdsDataset(sds_id=sds_id, members=tuple(members))
        active = len(sds)
        publishing = sum(1 for _, ss in sds.members if ss > 0) / active
        decision = analytics.eligibility_filter(
            active,
            publishing,
            min_active=config.min_active_universities,
            min_fraction=config.min_fraction_publishing,
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
        costs = [staff_cost(dmu, config.costs) for dmu, _ in sds.members]
        for (dmu, _), cost in zip(sds.members, costs):
            # an infinite weight would turn the institution aggregates into NaN
            if not cost < math.inf:
                raise DataError(f"{sds_id}/{dmu.dmu_id}: staff cost overflows a float")
        scores = evaluate_sds(sds, config.costs)
        te_pct = _percentiles([scores[d].te for d in sds.dmu_ids()])
        ae_pct = _percentiles([scores[d].ae for d in sds.dmu_ids()])
        ce_pct = _percentiles([scores[d].ce for d in sds.dmu_ids()])
        rows = []
        for i, (dmu, ss) in enumerate(sds.members):
            s = scores[dmu.dmu_id]
            rows.append(
                ScoreRow(
                    dmu_id=dmu.dmu_id,
                    sds_id=sds_id,
                    ss=ss,
                    fp_years=dmu.fp_years,
                    ap_years=dmu.ap_years,
                    rf_years=dmu.rf_years,
                    te=s.te,
                    ae=s.ae,
                    ce=s.ce,
                    staff_cost=costs[i],
                    ss_per_staff_year=analytics.productivity_ratio(ss, dmu),
                    te_pct=te_pct[i],
                    ae_pct=ae_pct[i],
                    ce_pct=ce_pct[i],
                )
            )
        sds_results[sds_id] = SdsResult(
            sds_id=sds_id,
            rows=tuple(rows),
            histograms={
                "te": analytics.histogram([r.te for r in rows]),
                "ae": analytics.histogram([r.ae for r in rows]),
                "ce": analytics.histogram([r.ce for r in rows]),
            },
            quadrants=analytics.efficiency_matrix(
                {d: scores[d] for d in sds.dmu_ids()}, config.quadrant_threshold
            ),
        )

    institutions = _institution_results(sds_results)
    return AssessmentReport(
        ss_mode=dataset.ss_mode,
        census_date=config.census_date,
        quadrant_threshold=config.quadrant_threshold,
        reporting_precision=config.reporting_precision,
        eligibility=tuple(eligibility),
        sds_results=sds_results,
        institutions=institutions,
    )


def _institution_results(
    sds_results: dict[str, SdsResult]
) -> tuple[InstitutionResult, ...]:
    by_dmu: dict[str, list[ScoreRow]] = {}
    for res in sds_results.values():
        for row in res.rows:
            by_dmu.setdefault(row.dmu_id, []).append(row)

    aggregates = {}
    for dmu_id, rows in sorted(by_dmu.items()):
        rows = sorted(rows, key=lambda r: r.sds_id)
        agg = analytics.aggregate_weighted(
            [((r.te, r.ae, r.ce), r.staff_cost) for r in rows]
        )
        aggregates[dmu_id] = (tuple(rows), agg)

    # Percentile-rank each institution's aggregates against all institutions.
    results = []
    if len(aggregates) >= 2:
        te_pct, ae_pct, ce_pct = (
            analytics.percentile_ranks([getattr(agg, key) for _, agg in aggregates.values()])
            for key in ("te", "ae", "ce")
        )
        for i, (dmu_id, (rows, agg)) in enumerate(aggregates.items()):
            ranked = dataclasses.replace(
                agg, te_pct=te_pct[i], ae_pct=ae_pct[i], ce_pct=ce_pct[i]
            )
            results.append(InstitutionResult(dmu_id=dmu_id, rows=rows, aggregate=ranked))
    else:
        for dmu_id, (rows, agg) in aggregates.items():
            results.append(InstitutionResult(dmu_id=dmu_id, rows=rows, aggregate=agg))
    return tuple(results)
