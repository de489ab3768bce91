"""Field-standardized research output indicators and DEA efficiency scoring
of university research units, with percentile and cost-weighted reporting."""

import os

# Nothing in bibdea calls BLAS or LAPACK, yet OpenBLAS's second thread spins
# on another CPU while numpy is imported (0.13 s per process on 2 vCPUs). A
# value the user set wins, and a process that imported numpy before bibdea
# keeps the threads it started.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .analytics import (
    AggregateScores,
    EligibilityDecision,
    Histogram,
    QuadrantSummary,
    aggregate_weighted,
    efficiency_matrix,
    eligibility_filter,
    histogram,
    percentile_ranks,
    productivity_ratio,
    rank_divergence,
)
from .bibliometrics import (
    fractional_count,
    positional_weights,
    scientific_strength,
    standardize_citations,
)
from .dea import allocative_efficiency, evaluate_sds
from .io import build_median_table, emit, ingest, load_config
from .model import (
    DEFAULT_COSTS,
    AssessmentDataset,
    CostVector,
    DataError,
    DatasetValidationError,
    DmuInput,
    EfficiencyScores,
    MedianLookupError,
    MedianTable,
    PublicationRecord,
    SdsDataset,
    SolverError,
    staff_cost,
)
from .report import (
    AssessmentConfig,
    AssessmentReport,
    InstitutionResult,
    ScoreRow,
    SdsResult,
    run_assessment,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateScores",
    "AssessmentConfig",
    "AssessmentDataset",
    "AssessmentReport",
    "CostVector",
    "DEFAULT_COSTS",
    "DataError",
    "DatasetValidationError",
    "DmuInput",
    "EfficiencyScores",
    "EligibilityDecision",
    "Histogram",
    "InstitutionResult",
    "MedianLookupError",
    "MedianTable",
    "PublicationRecord",
    "QuadrantSummary",
    "ScoreRow",
    "SdsDataset",
    "SdsResult",
    "SolverError",
    "aggregate_weighted",
    "allocative_efficiency",
    "build_median_table",
    "efficiency_matrix",
    "eligibility_filter",
    "emit",
    "evaluate_sds",
    "fractional_count",
    "histogram",
    "ingest",
    "load_config",
    "percentile_ranks",
    "positional_weights",
    "productivity_ratio",
    "rank_divergence",
    "run_assessment",
    "scientific_strength",
    "staff_cost",
    "standardize_citations",
]
