"""Shared domain types for the assessment pipeline.

Everything here is an immutable container validated at construction time,
or a check it shares with ingest, the config or the analytics API;
computations live in the sibling modules.
"""

import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Sequence

import numpy as np

# Citations are divided as floats, so a count must fit one.
MAX_CITATIONS = sys.float_info.max
# What a publication with an empty category list is told, at ingest and in
# the API alike.
NO_CATEGORIES = "at least one subject category required"
# Longest byline accepted. The life-science scheme builds one weight per
# author, so an absurd author count would exhaust memory; real bylines stay
# far below this.
MAX_AUTHORS = 100_000


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
        problem = (
            year_problem(self.year)
            or citations_problem(self.citations)
            or categories_problem(self.categories)
            or byline_problem(self.total_authors, self.dmu_author_positions, self.life_science)
        )
        if problem is not None:
            raise DataError(f"{self.pub_id}: {problem}")


def unit_key_problem(key) -> str | None:
    """What is wrong with a unit key, or None if it is a ``(dmu_id, sds_id)``
    tuple of two non-empty strings."""
    pair = isinstance(key, tuple) and len(key) == 2
    if not (pair and isinstance(key[0], str) and isinstance(key[1], str)):
        return "not a (dmu_id, sds_id) pair of strings"
    if not (key[0] and key[1]):
        return "empty dmu_id or sds_id"
    return None


def year_problem(year: int) -> str | None:
    """What is wrong with a publication year, or None if it is an int, not a bool."""
    if not isinstance(year, Integral) or isinstance(year, bool):
        return "year must be an integer"
    return None


def citations_problem(citations: int) -> str | None:
    """What is wrong with a citation count, or None if it is valid."""
    if not isinstance(citations, Integral) or isinstance(citations, bool):
        return "citations must be an integer"
    if citations < 0:
        return "citations must be >= 0"
    if citations > MAX_CITATIONS:
        return "citations too large for a float"
    return None


def categories_problem(categories: Sequence[str]) -> str | None:
    """What is wrong with a publication's subject categories, or None if
    there is at least one and none repeats: a repeated category would count
    its median twice in the cell's mean."""
    if not categories:
        return NO_CATEGORIES
    if len(set(categories)) != len(categories):
        return "duplicate subject categories"
    return None


def byline_problem(total_authors: int, positions: Sequence[int], life_science: bool) -> str | None:
    """What is wrong with a byline, or None if it is valid.

    ``life_science`` must be a bool, ``total_authors`` must lie in
    ``1..MAX_AUTHORS`` and the unit's ``positions`` must be distinct and lie
    in ``1..total_authors``, all ints.
    """
    if type(life_science) is not bool:  # "0" and 0 would select a scheme by truth
        return "life_science must be a bool"
    # Ingest passes plain ints, which skip the slow abstract-class check.
    ints = (total_authors, *positions)
    if not all(type(n) is int or isinstance(n, Integral) and type(n) is not bool for n in ints):
        return "total_authors and author positions must be integers"
    if total_authors < 1:
        return "total_authors must be >= 1"
    if total_authors > MAX_AUTHORS:
        return f"total_authors must be at most {MAX_AUTHORS}"
    if len(set(positions)) != len(positions):
        return "duplicate author positions"
    if any(p < 1 or p > total_authors for p in positions):
        return f"author positions must lie in 1..{total_authors}"
    return None


def fraction_problem(value: float) -> str | None:
    """What is wrong with a threshold or a fraction, to follow its name, or
    None if it is a real number, not a bool, in [0, 1]."""
    if not isinstance(value, Real) or isinstance(value, bool):
        return f"must be a number, not {value!r}"
    if not 0 <= value <= 1:
        return "must lie in [0, 1]"
    return None


def count_problem(value: int) -> str | None:
    """What is wrong with a count, to follow its name, or None if it is an
    int, not a bool, >= 0."""
    if not isinstance(value, Integral) or isinstance(value, bool):
        return f"must be an integer, not {value!r}"
    if value < 0:
        return "must be >= 0"
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
                if not 0 <= value < math.inf:
                    problem = "negative" if value < 0 else "non-finite"
                    raise DataError(f"{problem} reference {label} for {key}")

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
        x = [_as_float(v) for v in (self.fp_years, self.ap_years, self.rf_years)]
        if problems := staff_years_problems(np.array([x])):
            raise DataError(f"{self.sds_id}/{self.dmu_id}: {problems[0][1]}")


def _as_float(value) -> float:
    """``value`` as a float, NaN if it is no real number or is past the float range."""
    in_range = isinstance(value, Real) and abs(value) <= sys.float_info.max
    return float(value) if in_range else math.nan


def _floats(values) -> np.ndarray:
    """``values``, numbers or rows of them, as a new float array: an array
    of bool, int or float as it is, anything else value by value through
    :func:`_as_float`, for the checks to reject, a row of a wrong length as
    NaN. ``-0.0`` becomes ``0.0``, so no report prints ``-0``."""
    try:
        values = np.asarray(values)
    except ValueError:  # rows of unequal length
        values = np.asarray(values, dtype=object)
    if values.dtype.kind not in "biuf":
        values = np.vectorize(_as_float, otypes=[float])(values)
    return np.add(values, 0.0, out=np.empty(values.shape))


def staff_years_problems(years: np.ndarray) -> list[tuple[int, str]]:
    """Each row of the n x 3 float array ``years`` that breaks the staff-years
    rule, with its problem, in row order: each of fp, ap and rf must be finite
    and >= 0, and their sum, added left to right, > 0."""
    bad = ~((years >= 0) & (years < math.inf)).all(axis=1)
    with np.errstate(all="ignore"):
        zero = ~(years[:, 0] + years[:, 1] + years[:, 2] > 0)
    return [
        (i, "staff-years must be finite and >= 0" if bad[i] else "zero total staff input")
        for i in np.flatnonzero(bad | zero).tolist()
    ]


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
        for name in ("te", "ae", "ce"):
            value = _as_float(getattr(self, name))
            if not -CLAMP_TOL <= value <= 1 + CLAMP_TOL:
                raise DataError(f"{name}={value} outside [0, 1] beyond clamp tolerance")
            object.__setattr__(self, name, min(max(value, 0.0), 1.0) + 0.0)  # + 0.0: no -0.0
        te, ae, ce = self.as_triple()
        if te > 0 and abs(ce - te * ae) > DECOMPOSITION_TOL:
            raise DataError(f"decomposition violated: ce={ce} != te*ae={te * ae}")
        if te == 0 and (ae != 0 or ce != 0):
            raise DataError("te=0 requires ae=0 and ce=0")

    def as_triple(self) -> tuple[float, float, float]:
        return (self.te, self.ae, self.ce)


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
        dmus = [d for d, _ in self.members]
        ss = _floats([s for _, s in self.members])
        object.__setattr__(self, "members", tuple(zip(dmus, ss.tolist())))
        misfiled = [
            f"{self.sds_id}/{d.dmu_id}: row is for {d.sds_id}/{d.dmu_id}"
            for d in dmus if d.sds_id != self.sds_id
        ]
        _check_rows([(d.dmu_id, self.sds_id) for d in dmus], ss, misfiled)

    def __len__(self) -> int:
        return len(self.members)

    def dmu_ids(self) -> list[str]:
        return [dmu.dmu_id for dmu, _ in self.members]

    def ss_values(self) -> list[float]:
        return [ss for _, ss in self.members]


def _check_rows(units: Sequence[tuple[str, str]], ss: np.ndarray, violations: list[str]):
    """Raise a :class:`DatasetValidationError` listing each repeat of a unit
    of ``units``, then ``violations``, then each output not finite and >= 0."""
    repeats = Counter(units) - Counter(set(units))  # each unit's count past one
    problems = [f"{sds_id}: duplicate dmu_id {dmu_id!r}" for dmu_id, sds_id in repeats.elements()]
    problems += violations
    for i in np.flatnonzero(~((ss >= 0) & (ss < math.inf))).tolist():
        problem = "negative" if math.isfinite(ss[i]) else "non-finite"
        problems.append(f"{units[i][1]}/{units[i][0]}: {problem} output {float(ss[i])}")
    if problems:
        raise DatasetValidationError(problems)


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


@dataclass(frozen=True, eq=False)
class AssessmentDataset:
    """Cross-referenced multi-SDS input bundle produced by ingestion.

    Each column holds one entry per staff row, sorted by SDS, then unit:
    ``units`` the ``(dmu_id, sds_id)`` keys, each a tuple of two non-empty
    strings, ``years`` the n x 3 fp, ap and rf staff-years and ``ss`` the
    outputs (the ``ss`` column, or scored at ingest), read-only float
    arrays. ``ss_mode`` is ``"passthrough"`` or ``"computed"``, and
    ``publication_count`` counts the publication rows read, 0 in
    passthrough mode. run_assessment trusts the columns, so a
    :class:`DatasetValidationError` lists every violation at construction.
    """

    units: tuple[tuple[str, str], ...]
    years: np.ndarray
    ss: np.ndarray
    ss_mode: str = "passthrough"
    publication_count: int = 0

    def __post_init__(self):
        mode = self._mode_problems()
        units = list(self.units)
        years, ss = _floats(self.years), _floats(self.ss)
        if years.shape != (len(units), 3) or ss.shape != (len(units),):
            shapes = f"{len(units)} units, years {years.shape}, ss {ss.shape}"
            raise DatasetValidationError([*mode, f"columns of unequal length: {shapes}"])
        if bad_keys := [f"unit {u!r}: {p}" for u in units if (p := unit_key_problem(u))]:
            raise DatasetValidationError([*mode, *bad_keys])
        order = sorted(range(len(units)), key=[(s, d) for d, s in units].__getitem__)
        units, years, ss = tuple(map(units.__getitem__, order)), years[order], ss[order]
        bad_years = [f"{units[i][1]}/{units[i][0]}: {p}" for i, p in staff_years_problems(years)]
        _check_rows(units, ss, [*mode, *bad_years])
        years.flags.writeable = ss.flags.writeable = False
        for name, column in (("units", units), ("years", years), ("ss", ss)):
            object.__setattr__(self, name, column)

    def _mode_problems(self) -> list[str]:
        """What is wrong with ``ss_mode`` and ``publication_count``."""
        problems = []
        if self.ss_mode not in ("passthrough", "computed"):
            problems.append(f"ss_mode must be 'passthrough' or 'computed', not {self.ss_mode!r}")
        if problem := count_problem(self.publication_count):
            problems.append(f"publication_count {problem}")
        elif self.ss_mode == "passthrough" and self.publication_count:
            problems.append(
                f"publication_count must be 0 in passthrough mode, not {self.publication_count}"
            )
        return problems
