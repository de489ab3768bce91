"""Shared domain types for the assessment pipeline.

Everything in this module is an immutable container validated at
construction time; the actual computations live in the sibling modules.
"""

import functools
import math
import operator
import sys
from dataclasses import dataclass, field
from numbers import Real
from typing import Iterable

import numpy as np

# Citations are divided as floats, so a count must fit one.
MAX_CITATIONS = sys.float_info.max
# Longest byline accepted. The life-science scheme builds one weight per
# author, so an absurd author count would exhaust memory; real bylines stay
# far below this.
MAX_AUTHORS = 100_000


def left_sum(values: Iterable[float]) -> float:
    """The sum of ``values`` added one at a time, left to right, from int 0.

    This is how builtin ``sum`` adds floats up to Python 3.11. From 3.12 it
    compensates their rounding, which would move scores, and the report
    bytes, by ulps from one interpreter to another.
    """
    return functools.reduce(operator.add, values, 0)


class DataError(Exception):
    """Invalid or inconsistent input data."""


class SolverError(Exception):
    """A score came out inconsistent in a way valid inputs should never trigger."""


class MedianLookupError(DataError):
    """A (year, category) key has no reference median."""

    def __init__(self, year: int, category: str):
        self.key = (year, category)
        super().__init__(f"no reference median for (year={year}, category={category!r})")


class DatasetValidationError(DataError):
    """One or more dataset invariants failed."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class PublicationRecord:
    """One publication attributed to a single assessed unit (DMU).

    ``dmu_author_positions`` are the 1-based byline positions held by the
    assessed unit's authors. ``life_science`` selects the position-weighted
    fractional counting scheme.
    """

    pub_id: str
    year: int
    citations: int
    categories: tuple[str, ...]
    total_authors: int
    dmu_author_positions: tuple[int, ...] = ()
    life_science: bool = False

    def __post_init__(self):
        object.__setattr__(self, "categories", tuple(self.categories))
        object.__setattr__(self, "dmu_author_positions", tuple(self.dmu_author_positions))
        problem = citations_problem(self.citations)
        if problem is None and not self.categories:
            problem = "at least one subject category required"
        if problem is None:
            problem = byline_problem(self.total_authors, self.dmu_author_positions)
        if problem is not None:
            raise DataError(f"{self.pub_id}: {problem}")


def citations_problem(citations: int) -> str | None:
    """What is wrong with a citation count, or None if it is valid."""
    if citations < 0:
        return "citations must be >= 0"
    if citations > MAX_CITATIONS:
        return "citations too large for a float"
    return None


def byline_problem(total_authors: int, positions: tuple[int, ...]) -> str | None:
    """What is wrong with a byline, or None if it is valid.

    ``total_authors`` must lie in ``1..MAX_AUTHORS`` and the unit's
    ``positions`` must be distinct and lie in ``1..total_authors``.
    """
    if total_authors < 1:
        return "total_authors must be >= 1"
    if total_authors > MAX_AUTHORS:
        return f"total_authors must be at most {MAX_AUTHORS}"
    if len(set(positions)) != len(positions):
        return "duplicate author positions"
    if any(p < 1 or p > total_authors for p in positions):
        return f"author positions must lie in 1..{total_authors}"
    return None


@dataclass(frozen=True)
class MedianTable:
    """Reference citation medians keyed by (year, subject category).

    ``means`` optionally carries reference mean citations for the same keys;
    they are only consulted as a fallback when a median divisor is zero.
    """

    entries: dict[tuple[int, str], float]
    means: dict[tuple[int, str], float] = field(default_factory=dict)

    def __post_init__(self):
        for table, label in ((self.entries, "median"), (self.means, "mean")):
            for key, value in table.items():
                if value < 0:
                    raise DataError(f"negative reference {label} for {key}")

    def median(self, year: int, category: str) -> float:
        try:
            return self.entries[(year, category)]
        except KeyError:
            raise MedianLookupError(year, category) from None

    def mean(self, year: int, category: str) -> float | None:
        return self.means.get((year, category))

    def covers(self, year: int, category: str) -> bool:
        return (year, category) in self.entries


@dataclass(frozen=True)
class DmuInput:
    """Staff-years per academic rank for one university within one SDS."""

    dmu_id: str
    sds_id: str
    fp_years: float  # full professors
    ap_years: float  # associate professors
    rf_years: float  # assistant professors

    def __post_init__(self):
        years = (self.fp_years, self.ap_years, self.rf_years)
        # An exact float skips the ABC check, a large part of the cost of a
        # row at ingest; the accepted types are the same.
        if not all(
            (type(v) is float or isinstance(v, Real)) and 0 <= v < math.inf for v in years
        ):
            raise DataError(f"{self.dmu_id}/{self.sds_id}: staff-years must be finite and >= 0")
        if self.total_years() <= 0:
            raise DataError(f"{self.dmu_id}/{self.sds_id}: zero total staff input")

    def total_years(self) -> float:
        return self.fp_years + self.ap_years + self.rf_years


@dataclass(frozen=True)
class CostVector:
    """Average annual cost per staff-year and rank, in k EUR."""

    fp_cost: float = 111.700
    ap_cost: float = 79.700
    rf_cost: float = 56.650

    def __post_init__(self):
        costs = (self.fp_cost, self.ap_cost, self.rf_cost)
        if not all(
            isinstance(v, Real) and not isinstance(v, bool) and 0 < v < math.inf
            for v in costs
        ):
            raise DataError("all staff costs must be finite and strictly positive")


DEFAULT_COSTS = CostVector()

# |ce - te*ae| is enforced to this bound whenever te > 0.
DECOMPOSITION_TOL = 1e-6
# Scores may overshoot [0, 1] by at most this much before being clamped.
CLAMP_TOL = 1e-7


@dataclass(frozen=True)
class EfficiencyScores:
    """Technical, allocative, and cost efficiency for one DMU.

    ``reference_weights`` holds the nonzero intensity weights of the optimal
    envelopment solution, keyed by the peer DMU's id.
    """

    te: float
    ae: float
    ce: float
    reference_weights: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        scores = checked_scores([self.te], [self.ae], [self.ce])
        for name, value in zip(("te", "ae", "ce"), scores):
            object.__setattr__(self, name, float(value[0]))

    def as_triple(self) -> tuple[float, float, float]:
        return (self.te, self.ae, self.ce)


def checked_scores(te, ae, ce) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """te, ae and ce arrays of one group of units, clamped into [0, 1].

    A score more than :data:`CLAMP_TOL` outside [0, 1], a ce more than
    :data:`DECOMPOSITION_TOL` from te * ae where te > 0, and a nonzero ae or
    ce where te = 0 are data errors.
    """
    scores = []
    for name, values in (("te", te), ("ae", ae), ("ce", ce)):
        values = np.asarray(values, dtype=float)
        outside = np.flatnonzero(~((values >= -CLAMP_TOL) & (values <= 1 + CLAMP_TOL)))
        if outside.size:
            raise DataError(
                f"{name}={values[outside[0]]} outside [0, 1] beyond clamp tolerance"
            )
        # adding 0.0 turns the -0.0 that clip keeps into 0.0
        scores.append(values.clip(0.0, 1.0) + 0.0)
    te, ae, ce = scores
    product = te * ae
    broken = np.flatnonzero((te > 0) & (np.abs(ce - product) > DECOMPOSITION_TOL))
    if broken.size:
        i = broken[0]
        raise DataError(f"decomposition violated: ce={ce[i]} != te*ae={product[i]}")
    if np.any((te == 0) & ((ae != 0) | (ce != 0))):
        raise DataError("te=0 requires ae=0 and ce=0")
    return te, ae, ce


@dataclass(frozen=True)
class SdsDataset:
    """All participating universities of one SDS: inputs plus output value.

    Checked at construction: each unit appears once and belongs to the SDS,
    and each output is finite and >= 0; a :class:`DatasetValidationError`
    lists every violation.
    """

    sds_id: str
    members: tuple[tuple[DmuInput, float], ...]

    def __post_init__(self):
        members = tuple((d, float(s)) for d, s in self.members)
        object.__setattr__(self, "members", members)
        duplicates, seen = [], set()
        for dmu, _ in members:
            if dmu.dmu_id in seen:
                duplicates.append(f"{self.sds_id}: duplicate dmu_id {dmu.dmu_id!r}")
            seen.add(dmu.dmu_id)
        _check_rows((((d.dmu_id, self.sds_id), d, s) for d, s in members), duplicates)

    def __len__(self) -> int:
        return len(self.members)

    def dmu_ids(self) -> list[str]:
        return [dmu.dmu_id for dmu, _ in self.members]

    def ss_values(self) -> list[float]:
        return [ss for _, ss in self.members]


def _check_rows(rows: Iterable[tuple[tuple[str, str], DmuInput, float]], violations: list[str]):
    """Raise a :class:`DatasetValidationError` listing ``violations`` and,
    row by row, each row ``((dmu_id, sds_id), dmu, ss)`` whose ``dmu`` is
    another unit's or whose output ``ss`` is not finite and >= 0."""
    for (dmu_id, sds_id), dmu, ss in rows:
        if dmu_id != dmu.dmu_id or sds_id != dmu.sds_id:
            violations.append(f"{sds_id}/{dmu_id}: row is for {dmu.sds_id}/{dmu.dmu_id}")
        if not 0 <= ss < math.inf:
            problem = "non-finite" if not math.isfinite(ss) else "negative"
            violations.append(f"{sds_id}/{dmu_id}: {problem} output {ss}")
    if violations:
        raise DatasetValidationError(violations)


def staff_cost(dmu: DmuInput, costs: CostVector = DEFAULT_COSTS) -> float:
    """Total cost of the unit's staff-years in k EUR, as a float: its row of
    :func:`_staff_costs`."""
    years = np.array([[dmu.fp_years, dmu.ap_years, dmu.rf_years]], dtype=float)
    return float(_staff_costs(years, costs)[0])


def _staff_costs(x: np.ndarray, costs: CostVector) -> np.ndarray:
    """The staff cost of each row of staff-years ``x``, ``inf`` past the
    float range. Each is added term by term, fp, ap, then rf: a matrix
    product rounds differently, and ce divides by the staff cost the report
    prints."""
    fp, ap, rf = (float(c) for c in (costs.fp_cost, costs.ap_cost, costs.rf_cost))
    with np.errstate(over="ignore"):
        return x[:, 0] * fp + x[:, 1] * ap + x[:, 2] * rf


@dataclass(frozen=True)
class AssessmentDataset:
    """Cross-referenced multi-SDS input bundle produced by ingestion.

    ``ss`` holds one output value per staff row, wherever it came from:
    the staff file's ``ss`` column ("passthrough" mode) or the publications
    scored at ingest ("computed" mode), finite and >= 0. Each staff row sits
    under its own ``(dmu_id, sds_id)``. ``publication_count`` is the number
    of publication rows read.
    """

    staff: dict[tuple[str, str], DmuInput]  # (dmu_id, sds_id) -> input row
    ss: dict[tuple[str, str], float]  # (dmu_id, sds_id) -> output value
    ss_mode: str = "passthrough"
    publication_count: int = 0

    def __post_init__(self):
        if self.ss.keys() != self.staff.keys():
            raise DataError("ss must hold exactly one value per staff row")
        # run_assessment trusts these, as it trusts what DmuInput checks.
        _check_rows(((key, dmu, self.ss[key]) for key, dmu in self.staff.items()), [])

    def sds_ids(self) -> list[str]:
        return sorted({sds_id for _, sds_id in self.staff})

    def dmu_ids(self) -> list[str]:
        return sorted({dmu_id for dmu_id, _ in self.staff})
