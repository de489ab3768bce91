import itertools
import math
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bibdea import (
    DataError,
    MedianLookupError,
    MedianTable,
    PublicationRecord,
    fractional_count,
    positional_weights,
    scientific_strength,
    standardize_citations,
)
from bibdea.bibliometrics import citation_divisor, divide_citations
from bibdea.model import NO_CATEGORIES

MEDIANS = MedianTable(entries={(2005, "A"): 4.0, (2005, "B"): 6.0, (2005, "C"): 7.0})


class TestStandardizeCitations:
    def test_average_of_medians(self):
        assert standardize_citations(12, 2005, ["A", "B"], MEDIANS) == pytest.approx(2.4)

    def test_zero_citations(self):
        assert standardize_citations(0, 2005, ["A"], MEDIANS) == 0.0

    def test_identity_when_citations_equal_median(self):
        assert standardize_citations(7, 2005, ["C"], MEDIANS) == pytest.approx(1.0)

    def test_missing_key_is_an_error_naming_the_key(self):
        with pytest.raises(MedianLookupError) as err:
            standardize_citations(5, 2004, ["A"], MEDIANS)
        assert "2004" in str(err.value)

    def test_zero_median_with_zero_citations(self):
        table = MedianTable(entries={(2005, "Z"): 0.0})
        assert standardize_citations(0, 2005, ["Z"], table) == 0.0

    def test_zero_median_falls_back_to_mean(self):
        table = MedianTable(entries={(2005, "Z"): 0.0}, means={(2005, "Z"): 4.0})
        assert standardize_citations(8, 2005, ["Z"], table) == pytest.approx(2.0)

    def test_zero_median_without_mean_is_an_error(self):
        table = MedianTable(entries={(2005, "Z"): 0.0})
        with pytest.raises(DataError):
            standardize_citations(8, 2005, ["Z"], table)

    def test_divisor_step_defers_the_fallback_error_to_the_division(self):
        table = MedianTable(
            entries={(2005, "Z"): 0.0, (2005, "Y"): 0.0}, means={(2005, "Y"): 0.0}
        )
        for cell, message in ((["Z"], "no reference means"), (["Y"], "zero mean fallback")):
            divisor = citation_divisor(2005, cell, table)
            assert divide_citations(0, divisor, 2005, cell) == 0.0
            with pytest.raises(DataError) as err:
                divide_citations(8, divisor, 2005, cell)
            assert message in str(err.value)

    @pytest.mark.parametrize(
        "citations, problem",
        [(-3, "citations must be >= 0"), (2.5, "citations must be an integer")],
    )
    def test_citations_follow_the_ingest_rule(self, citations, problem):
        table = MedianTable(entries={(2004, "A"): 4.0})
        with pytest.raises(DataError, match=problem):
            standardize_citations(citations, 2004, ["A"], table)

    @given(
        st.integers(min_value=0, max_value=500),
        st.sampled_from([["A"], ["A", "B"], ["C", "B", "A"], ["Z"], ["Z", "Y"]]),
    )
    def test_two_steps_equal_standardize(self, citations, cell):
        table = MedianTable(
            entries={**MEDIANS.entries, (2005, "Z"): 0.0, (2005, "Y"): 0.0},
            means={(2005, "Z"): 3.0, (2005, "Y"): 1.5},
        )
        divisor = citation_divisor(2005, cell, table)
        expected = standardize_citations(citations, 2005, cell, table)
        assert divide_citations(citations, divisor, 2005, cell).hex() == expected.hex()

    @given(st.integers(min_value=0, max_value=500), st.floats(min_value=0.5, max_value=50))
    def test_homogeneous_in_scale(self, citations, median):
        base = MedianTable(entries={(2005, "A"): median, (2005, "B"): 2 * median})
        doubled = MedianTable(entries={(2005, "A"): 2 * median, (2005, "B"): 4 * median})
        one = standardize_citations(citations, 2005, ["A", "B"], base)
        two = standardize_citations(2 * citations, 2005, ["A", "B"], doubled)
        assert two == pytest.approx(one, rel=1e-12, abs=1e-12)


class TestFractionalCountStandard:
    def test_two_of_five(self):
        assert fractional_count(5, (1, 4), False) == pytest.approx(0.4)

    def test_sole_author(self):
        assert fractional_count(1, (1,), False) == 1.0

    def test_none_of_four(self):
        assert fractional_count(4, (), False) == 0.0


class TestFractionalCountLifeScience:
    def test_both_ends_intramural(self):
        assert fractional_count(6, (1, 6), True) == pytest.approx(0.80)

    def test_second_author_extramural(self):
        assert fractional_count(6, (2,), True) == pytest.approx(0.15)

    def test_single_author(self):
        assert fractional_count(1, (1,), True) == pytest.approx(1.0)
        assert positional_weights(1, False) == pytest.approx([1.0])

    def test_middle_of_five_extramural(self):
        # the "all others" pool is a single author here
        assert fractional_count(5, (3,), True) == pytest.approx(0.10)

    def test_byline_follows_the_ingest_rule(self):
        with pytest.raises(DataError, match="total_authors must be >= 1"):
            positional_weights(0, True)
        with pytest.raises(DataError, match="author positions must be integers"):
            fractional_count(2.5, (1,), True)

    @pytest.mark.parametrize("scheme_a", [True, False])
    @pytest.mark.parametrize("n", range(1, 51))
    def test_weights_sum_to_one(self, n, scheme_a):
        assert sum(positional_weights(n, scheme_a)) == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(min_value=1, max_value=50))
    def test_full_byline_gets_everything(self, n):
        f = fractional_count(n, tuple(range(1, n + 1)), True)
        assert f == pytest.approx(1.0, abs=1e-12)

    @given(
        st.integers(min_value=1, max_value=30).flatmap(
            lambda n: st.tuples(st.just(n), st.sets(st.integers(min_value=1, max_value=n)))
        )
    )
    def test_fraction_lies_in_unit_interval(self, case):
        n, positions = case
        f = fractional_count(n, tuple(positions), True)
        assert -1e-12 <= f <= 1 + 1e-12


def share(n, positions, intramural):
    """The life-science share of ``positions`` under the given weights."""
    return math.fsum(positional_weights(n, intramural)[p - 1] for p in positions)


class TestSchemeSelection:
    def test_both_ends_held(self):
        assert fractional_count(6, (1, 6), True) == share(6, (1, 6), True)

    def test_one_end_held(self):
        assert fractional_count(6, (1, 3), True) == share(6, (1, 3), False)
        assert share(6, (1, 3), False) != share(6, (1, 3), True)

    def test_single_author_is_intramural(self):
        assert fractional_count(1, (1,), True) == share(1, (1,), True)

    def test_dispatch_uses_record_flag(self):
        plain = PublicationRecord("p", 2005, 4, ("A",), 6, (1, 6), life_science=False)
        life = PublicationRecord("p", 2005, 4, ("A",), 6, (1, 6), life_science=True)
        for record, expected in ((plain, 2 / 6), (life, 0.80)):
            fields = (record.total_authors, record.dmu_author_positions, record.life_science)
            assert fractional_count(*fields) == pytest.approx(expected)


# Inputs that ingest rejects and the API once scored, or failed on with an
# exception other than DataError.
@pytest.mark.parametrize(
    "call, problem",
    [
        (lambda: fractional_count(2.5, (1,), False), "must be integers"),
        (lambda: fractional_count(2, (5,), False), "author positions must lie in 1..2"),
        (lambda: fractional_count(2, (1, 1), False), "duplicate author positions"),
        (lambda: fractional_count(3, (0,), True), "author positions must lie in 1..3"),
        (lambda: fractional_count(3, (5,), True), "author positions must lie in 1..3"),
        (lambda: fractional_count(0, (), False), "total_authors must be >= 1"),
        (lambda: PublicationRecord("p", 2005.5, 3, ("A",), 1), "year must be an integer"),
        (lambda: PublicationRecord("p", "2005", 3, ("A",), 1), "year must be an integer"),
        (lambda: PublicationRecord("p", True, 3, ("A",), 1), "year must be an integer"),
        (lambda: citation_divisor(2005, (), MEDIANS), f"^{NO_CATEGORIES}$"),
        (lambda: citation_divisor(2005, ("A", "B", "A"), MEDIANS), "^duplicate subject categ"),
        (lambda: standardize_citations(3, 2005, ("A", "A"), MEDIANS), "^duplicate subject cat"),
        (lambda: PublicationRecord("p", 2005, 3, ("A", "A"), 1), "^p: duplicate subject cat"),
    ],
)
def test_the_api_applies_the_ingest_rules(call, problem):
    with pytest.raises(DataError, match=problem):
        call()


@pytest.mark.parametrize("flag", ["0", "1", 0, 1, None])
def test_life_science_flag_must_be_a_bool(flag):
    # "0" is truthy and 0 is not: a flag read by truth could pick the scheme
    # that ingest does not pick for the cell 0
    with pytest.raises(DataError, match="^life_science must be a bool$"):
        fractional_count(6, (2,), flag)
    with pytest.raises(DataError, match="^p: life_science must be a bool$"):
        PublicationRecord("p", 2005, 4, ("A",), 6, (2,), life_science=flag)


@pytest.mark.parametrize("flag", ["0", "1", 0, 1, None])
def test_positional_weights_flag_must_be_a_bool(flag):
    # "0" used to select the intramural weights
    with pytest.raises(DataError, match="^first_last_same_university must be a bool$"):
        positional_weights(3, flag)


def test_year_is_checked_before_the_other_fields():
    with pytest.raises(DataError, match="^p: year must be an integer$"):
        PublicationRecord("p", 2005.5, -1, (), 0, (1, 1))


class TestScientificStrength:
    def test_empty_list(self):
        assert scientific_strength([], MEDIANS) == 0.0

    def test_single_sole_authored_publication(self):
        table = MedianTable(entries={(2005, "A"): 5.0})
        pub = PublicationRecord("p", 2005, 10, ("A",), 1, (1,))
        assert scientific_strength([pub], table) == pytest.approx(2.0)

    def test_sum_of_hand_computed_contributions(self):
        # Oracle: contributions worked out by hand from the definitions.
        #   p1: 10 / 5 = 2.0,            f = 1/1      -> 2.0
        #   p2: 6 / mean(4, 8) = 1.0,    f = 2/4      -> 0.5
        #   p3: 0 standardized citations               -> 0.0
        table = MedianTable(entries={(2005, "A"): 5.0, (2005, "B"): 4.0, (2005, "C"): 8.0})
        pubs = [
            PublicationRecord("p1", 2005, 10, ("A",), 1, (1,)),
            PublicationRecord("p2", 2005, 6, ("B", "C"), 4, (1, 2)),
            PublicationRecord("p3", 2005, 0, ("A",), 3, (2,)),
        ]
        assert scientific_strength(pubs, table) == pytest.approx(2.5)

    def test_additive_over_disjoint_lists(self):
        table = MedianTable(entries={(2005, "A"): 5.0})
        first = [PublicationRecord("p1", 2005, 10, ("A",), 2, (1,))]
        second = [
            PublicationRecord("p2", 2005, 4, ("A",), 4, (2, 3)),
            PublicationRecord("p3", 2005, 7, ("A",), 1, (1,)),
        ]
        assert scientific_strength(first + second, table) == pytest.approx(
            scientific_strength(first, table) + scientific_strength(second, table)
        )

    def test_life_science_scheme_applied_when_flagged(self):
        table = MedianTable(entries={(2005, "A"): 5.0})
        pub = PublicationRecord("p", 2005, 10, ("A",), 6, (1, 6), life_science=True)
        assert scientific_strength([pub], table) == pytest.approx(2.0 * 0.80)

    def test_publication_without_a_byline_position_adds_nothing(self):
        # 1000 citations over a median of 1e-306 are past the float range,
        # and inf * 0.0 would be nan
        table = MedianTable(entries={(2005, "A"): 1e-306})
        pub = PublicationRecord("p1", 2005, 1000, ("A",), 2, ())
        assert standardize_citations(1000, 2005, ("A",), table) == math.inf
        assert scientific_strength([pub], table) == 0.0

    def test_contribution_is_exact_product(self):
        table = MedianTable(entries={(2005, "A"): 3.0})
        pub = PublicationRecord("p", 2005, 7, ("A",), 3, (1, 2))
        assert scientific_strength([pub], table) == standardize_citations(
            7, 2005, ("A",), table
        ) * fractional_count(3, (1, 2), False)


class TestExactSums:
    """Every sum of a variable number of terms is ``math.fsum``, so the order
    of the terms does not move it."""

    def test_divisor_does_not_depend_on_category_order(self):
        table = MedianTable(
            entries={(2005, c): m for c, m in zip("ABCXYZ", (0.1, 0.2, 0.3, 0, 0, 0))},
            means={(2005, c): m for c, m in zip("XYZ", (0.1, 0.2, 0.3))},
        )
        for cell in ("ABC", "XYZ"):
            cells = itertools.permutations(cell)
            assert len({citation_divisor(2005, c, table).hex() for c in cells}) == 1, cell
        assert citation_divisor(2005, ("B", "C", "A"), table) == 0.6 / 3

    def test_mean_of_medians_past_the_float_range_is_the_exact_mean(self):
        big = sys.float_info.max
        table = MedianTable(entries={(2005, "A"): big, (2005, "B"): big, (2005, "C"): big / 4})
        assert citation_divisor(2005, ("A", "B"), table) == big
        assert citation_divisor(2005, ("A", "B", "C"), table) == big * 0.75

    def test_strength_past_the_float_range_is_inf_in_any_order(self):
        # M + h rounds back to M, so a left-to-right sum of M, h, h stays M
        big, half = sys.float_info.max, sys.float_info.max * 2**-54
        table = MedianTable(entries={(2005, "A"): 1.0})
        pubs = [PublicationRecord(f"p{c}", 2005, int(c), ("A",), 1, (1,)) for c in (big, half)]
        for order in itertools.permutations([pubs[0], pubs[1], pubs[1]]):
            assert scientific_strength(order, table) == math.inf

    def test_strength_does_not_depend_on_publication_order(self):
        table = MedianTable(entries={(2005, "A"): 0.3, (2005, "B"): 0.7})
        cells = [(1, ("A",)), (7, ("A", "B")), (3, ("B",)), (11, ("B", "A"))]
        pubs = [
            PublicationRecord(f"p{i}", 2005, c, cats, 3, (1, 3), life_science=i % 2 == 0)
            for i, (c, cats) in enumerate(cells)
        ]
        totals = {scientific_strength(order, table).hex() for order in itertools.permutations(pubs)}
        assert len(totals) == 1
