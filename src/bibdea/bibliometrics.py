"""Field-standardized citation impact and fractional author counting.

The output indicator of a unit is the sum, over its publications, of
citations standardized by the reference median of the publication's year
and subject category, multiplied by the unit's fractional share of the
byline. Two fractional schemes exist: the plain co-author ratio and a
position-weighted scheme used for the life sciences, where first and last
authors carry most of the credit.
"""

from typing import Iterable, Sequence

from .model import DataError, MedianTable, PublicationRecord

# Position weights when first and last author sit at the same university:
# 40% each to the two ends, the rest shared by the middle of the byline.
_INTRAMURAL_END = 0.40
_INTRAMURAL_POOL = 0.20
# Otherwise: 30% to each end, 15% to the positions next to them, and the
# remainder shared by everyone else.
_EXTRAMURAL_END = 0.30
_EXTRAMURAL_NEXT = 0.15
_EXTRAMURAL_POOL = 0.10


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
    if not categories:
        raise DataError("publication without subject categories")
    meds = [medians.median(year, c) for c in categories]
    divisor = sum(meds) / len(meds)
    if divisor > 0:
        return citations / divisor
    if citations == 0:
        return 0.0
    fallback = [medians.mean(year, c) for c in categories]
    if any(m is None for m in fallback):
        raise DataError(
            f"zero median divisor for year {year} categories {list(categories)} "
            "and no reference means available"
        )
    mean_divisor = sum(fallback) / len(fallback)
    if mean_divisor <= 0:
        raise DataError(
            f"zero mean fallback divisor for year {year} categories {list(categories)}"
        )
    return citations / mean_divisor


def fractional_count_standard(
    total_authors: int, dmu_author_positions: Sequence[int]
) -> float:
    """Share of the byline held by the unit: co-authors of the unit / all."""
    return len(dmu_author_positions) / total_authors


def positional_weights(total_authors: int, first_last_same_university: bool) -> list[float]:
    """Per-position credit weights of the life-science scheme; sums to 1.

    For very short bylines the nominal weights are over- or under-determined
    (the middle pool may be empty, roles may coincide), so the vector is
    renormalized to sum to exactly 1 while keeping the relative proportions.
    """
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
    total = sum(w)
    return [wi / total for wi in w]


def fractional_count_life_science(
    total_authors: int,
    dmu_author_positions: Sequence[int],
    first_last_same_university: bool,
) -> float:
    """Position-weighted byline share of the unit under the life-science scheme."""
    weights = positional_weights(total_authors, first_last_same_university)
    return sum(weights[p - 1] for p in dmu_author_positions)


def first_last_share_dmu(total_authors: int, dmu_author_positions: Sequence[int]) -> bool:
    """Whether first and last author both belong to the assessed unit.

    This is the only affiliation knowledge available from a record, so it is
    what selects between the two life-science weighting schemes.
    """
    positions = set(dmu_author_positions)
    return 1 in positions and total_authors in positions


def fractional_count(record: PublicationRecord) -> float:
    """Fractional count of a record, dispatching on its counting scheme."""
    if record.life_science:
        return fractional_count_life_science(
            record.total_authors,
            record.dmu_author_positions,
            first_last_share_dmu(record.total_authors, record.dmu_author_positions),
        )
    return fractional_count_standard(record.total_authors, record.dmu_author_positions)


def scientific_strength(
    publications: Iterable[PublicationRecord], medians: MedianTable
) -> float:
    """Output indicator of one unit: sum of standardized, fractioned citations."""
    return sum(
        standardize_citations(p.citations, p.year, p.categories, medians) * fractional_count(p)
        for p in publications
    )
