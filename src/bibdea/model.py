"""Shared domain types for the assessment pipeline.

Everything in this module is an immutable container validated at
construction time; the actual computations live in the sibling modules.
"""

import math
import sys
from dataclasses import dataclass, field
from numbers import Real

# Citations are divided as floats, so a count must fit one.
MAX_CITATIONS = sys.float_info.max
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
        if self.citations < 0:
            raise DataError(f"{self.pub_id}: citations must be >= 0")
        if self.citations > MAX_CITATIONS:
            raise DataError(f"{self.pub_id}: citations too large for a float")
        if not self.categories:
            raise DataError(f"{self.pub_id}: at least one subject category required")
        if self.total_authors < 1:
            raise DataError(f"{self.pub_id}: total_authors must be >= 1")
        if self.total_authors > MAX_AUTHORS:
            raise DataError(f"{self.pub_id}: total_authors must be at most {MAX_AUTHORS}")
        positions = self.dmu_author_positions
        if len(set(positions)) != len(positions):
            raise DataError(f"{self.pub_id}: duplicate author positions")
        if any(p < 1 or p > self.total_authors for p in positions):
            raise DataError(
                f"{self.pub_id}: author positions must lie in 1..{self.total_authors}"
            )


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
        if not all(isinstance(v, Real) and 0 <= v < math.inf for v in years):
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
        for name, value in (("te", self.te), ("ae", self.ae), ("ce", self.ce)):
            if not -CLAMP_TOL <= value <= 1 + CLAMP_TOL:
                raise DataError(f"{name}={value} outside [0, 1] beyond clamp tolerance")
            object.__setattr__(self, name, min(1.0, max(0.0, value)))
        if self.te > 0:
            if abs(self.ce - self.te * self.ae) > DECOMPOSITION_TOL:
                raise DataError(
                    f"decomposition violated: ce={self.ce} != te*ae={self.te * self.ae}"
                )
        elif self.ae != 0 or self.ce != 0:
            raise DataError("te=0 requires ae=0 and ce=0")

    def as_triple(self) -> tuple[float, float, float]:
        return (self.te, self.ae, self.ce)


@dataclass(frozen=True)
class SdsDataset:
    """All participating universities of one SDS: inputs plus output value.

    The container itself is dumb; cross-row invariants are enforced by
    :func:`validate_dataset` so that violations can be reported in bulk.
    """

    sds_id: str
    members: tuple[tuple[DmuInput, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple((d, float(s)) for d, s in self.members))

    def __len__(self) -> int:
        return len(self.members)

    def dmu_ids(self) -> list[str]:
        return [dmu.dmu_id for dmu, _ in self.members]

    def ss_values(self) -> list[float]:
        return [ss for _, ss in self.members]


def staff_cost(dmu: DmuInput, costs: CostVector = DEFAULT_COSTS) -> float:
    """Total cost of the unit's staff-years in k EUR."""
    return (
        dmu.fp_years * costs.fp_cost
        + dmu.ap_years * costs.ap_cost
        + dmu.rf_years * costs.rf_cost
    )


def dataset_violations(ds: SdsDataset) -> list[str]:
    """Collect invariant violations; empty list means the dataset is valid."""
    violations = []
    seen: set[str] = set()
    for dmu, ss in ds.members:
        if dmu.dmu_id in seen:
            violations.append(f"{ds.sds_id}: duplicate dmu_id {dmu.dmu_id!r}")
        seen.add(dmu.dmu_id)
        if not math.isfinite(ss):
            violations.append(f"{ds.sds_id}/{dmu.dmu_id}: non-finite output {ss}")
        elif ss < 0:
            violations.append(f"{ds.sds_id}/{dmu.dmu_id}: negative output {ss}")
        if dmu.total_years() <= 0:
            violations.append(f"{ds.sds_id}/{dmu.dmu_id}: zero total staff input")
        if dmu.sds_id != ds.sds_id:
            violations.append(
                f"{ds.sds_id}/{dmu.dmu_id}: row belongs to SDS {dmu.sds_id!r}"
            )
    return violations


def validate_dataset(ds: SdsDataset) -> SdsDataset:
    """Return ``ds`` unchanged, or raise with the full list of violations."""
    violations = dataset_violations(ds)
    if violations:
        raise DatasetValidationError(violations)
    return ds


@dataclass(frozen=True)
class AssessmentDataset:
    """Cross-referenced multi-SDS input bundle produced by ingestion.

    ``ss`` holds one output value per staff row, wherever it came from:
    the staff file's ``ss`` column ("passthrough" mode) or the publications
    scored at ingest ("computed" mode). ``publication_count`` is the number
    of publication rows read.
    """

    staff: dict[tuple[str, str], DmuInput]  # (dmu_id, sds_id) -> input row
    ss: dict[tuple[str, str], float]  # (dmu_id, sds_id) -> output value
    ss_mode: str = "passthrough"
    publication_count: int = 0

    def __post_init__(self):
        if self.ss.keys() != self.staff.keys():
            raise DataError("ss must hold exactly one value per staff row")

    def sds_ids(self) -> list[str]:
        return sorted({sds_id for _, sds_id in self.staff})

    def dmu_ids(self) -> list[str]:
        return sorted({dmu_id for dmu_id, _ in self.staff})
