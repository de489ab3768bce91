"""Field-standardized citation impact and fractional author counting.

The output indicator of a unit is the sum, over its publications, of
citations standardized by the reference median of the publication's year
and subject category, multiplied by the unit's fractional share of the
byline. Two fractional schemes exist: the plain co-author ratio and a
position-weighted scheme used for the life sciences, where first and last
authors carry most of the credit.

Every sum of a variable number of terms (SS, a cell's mean of medians or of
means, the position weights and a unit's share of them) is ``math.fsum``:
exactly rounded (Shewchuk 1997, "Adaptive precision floating-point
arithmetic"), so it does not depend on the order of its terms or on the
Python version.
"""

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .model import DataError, MedianTable, PublicationRecord
from .model import byline_problem, categories_problem, citations_problem

# Position weights when first and last author sit at the same university:
# 40% each to the two ends, the rest shared by the middle of the byline.
_INTRAMURAL_END = 0.40
_INTRAMURAL_POOL = 0.20
# Otherwise: 30% to each end, 15% to the positions next to them, and the
# remainder shared by everyone else.
_EXTRAMURAL_END = 0.30
_EXTRAMURAL_NEXT = 0.15
_EXTRAMURAL_POOL = 0.10


def citation_divisor(
    year: int, categories: Sequence[str], medians: MedianTable
) -> float | None:
    """Reference divisor of a (year, categories) cell, for :func:`divide_citations`.

    The arithmetic mean of the categories' medians. When that is zero, the
    mean of their reference means, or None when the table lacks a mean for
    one of them; whether that is an error depends on the citations, so the
    division step decides. Categories that break
    :func:`~bibdea.model.categories_problem` are a :class:`DataError`.
    """
    if (problem := categories_problem(categories)) is not None:
        raise DataError(problem)
    divisor = _mean([medians.median(year, c) for c in categories])
    if divisor > 0:
        return divisor
    fallback = [medians.mean(year, c) for c in categories]
    if any(m is None for m in fallback):
        return None
    return _mean(fallback)


def _mean(values: list[float]) -> float:
    """The mean of finite ``values``: their ``math.fsum`` over their count,
    or, when that sum is past the float range, the exact mean rounded once."""
    try:
        return math.fsum(values) / len(values)
    except OverflowError:
        return float(sum(map(Fraction, values)) / len(values))


def divide_citations(
    citations: int, divisor: float | None, year: int, categories: Sequence[str]
) -> float:
    """Citations over the divisor of their (year, categories) cell.

    Zero citations standardize to 0.0 whatever the divisor; otherwise a
    missing or zero fallback divisor is an error naming the cell.
    """
    if citations == 0:
        return 0.0
    if divisor is None:
        raise DataError(
            f"zero median divisor for year {year} categories {list(categories)} "
            "and no reference means available"
        )
    if divisor <= 0:
        raise DataError(
            f"zero mean fallback divisor for year {year} categories {list(categories)}"
        )
    return citations / divisor


def standardize_citations(
    citations: int,
    year: int,
    categories: Sequence[str],
    medians: MedianTable,
) -> float:
    """Citations divided by the reference median of (year, category).

    Publications listed in several categories use the arithmetic mean of the
    categories' medians as divisor. A zero divisor falls back to the mean
    citations of the reference set when the table carries means; a zero
    divisor with zero citations is simply 0.
    """
    if (problem := citations_problem(citations)) is not None:
        raise DataError(problem)
    divisor = citation_divisor(year, categories, medians)
    return divide_citations(citations, divisor, year, categories)


def positional_weights(total_authors: int, first_last_same_university: bool) -> list[float]:
    """Per-position credit weights of the life-science scheme; sums to 1.

    For very short bylines the nominal weights are over- or under-determined
    (the middle pool may be empty, roles may coincide), so the vector is
    renormalized to sum to exactly 1 while keeping the relative proportions.
    """
    if type(first_last_same_university) is not bool:  # "0" would select the intramural weights
        raise DataError("first_last_same_university must be a bool")
    if (problem := byline_problem(total_authors, (), True)) is not None:
        raise DataError(problem)
    n = total_authors
    w = [0.0] * n
    if first_last_same_university:
        w[0] += _INTRAMURAL_END
        w[n - 1] += _INTRAMURAL_END
        interior = range(1, n - 1)
        pool = _INTRAMURAL_POOL
    else:
        w[0] += _EXTRAMURAL_END
        w[n - 1] += _EXTRAMURAL_END
        if n >= 2:
            w[1] += _EXTRAMURAL_NEXT
            w[n - 2] += _EXTRAMURAL_NEXT
        interior = range(2, n - 2)
        pool = _EXTRAMURAL_POOL
    if len(interior) > 0:
        share = pool / len(interior)
        for i in interior:
            w[i] += share
    total = math.fsum(w)
    return [wi / total for wi in w]


def fractional_count(
    total_authors: int, dmu_author_positions: Sequence[int], life_science: bool
) -> float:
    """Share of the byline held by the unit's authors at ``dmu_author_positions``.

    The standard scheme gives co-authors of the unit / all; the life-science
    scheme adds the unit's :func:`positional_weights`, intramural when the
    unit holds both the first and the last position. A byline that breaks
    the ingest rule (:func:`~bibdea.model.byline_problem`) is a
    :class:`DataError`.
    """
    if (problem := byline_problem(total_authors, dmu_author_positions, life_science)) is not None:
        raise DataError(problem)
    if not life_science:
        return len(dmu_author_positions) / total_authors
    # A record's only affiliation knowledge selects the life-science weights.
    intramural = 1 in dmu_author_positions and total_authors in dmu_author_positions
    weights = positional_weights(total_authors, intramural)
    return math.fsum(weights[p - 1] for p in dmu_author_positions)


def scientific_strength(
    publications: Iterable[PublicationRecord], medians: MedianTable
) -> float:
    """Output indicator of one unit: sum of standardized, fractioned
    citations, ``inf`` when that sum is past the float range. A publication
    in which the unit holds no byline position adds nothing, even when its
    standardized citations are past the float range."""
    terms = []
    for p in publications:
        standardized = standardize_citations(p.citations, p.year, p.categories, medians)
        if share := fractional_count(p.total_authors, p.dmu_author_positions, p.life_science):
            terms.append(standardized * share)
    try:
        return math.fsum(terms)
    except OverflowError:  # finite terms whose exact sum rounds past the float range
        return math.inf
