import pytest
from hypothesis import given
from hypothesis import strategies as st

from bibdea import (
    DataError,
    MedianLookupError,
    MedianTable,
    PublicationRecord,
    first_last_share_dmu,
    fractional_count,
    fractional_count_life_science,
    fractional_count_standard,
    positional_weights,
    scientific_strength,
    standardize_citations,
)

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

    @given(st.integers(min_value=0, max_value=500), st.floats(min_value=0.5, max_value=50))
    def test_homogeneous_in_scale(self, citations, median):
        base = MedianTable(entries={(2005, "A"): median, (2005, "B"): 2 * median})
        doubled = MedianTable(entries={(2005, "A"): 2 * median, (2005, "B"): 4 * median})
        one = standardize_citations(citations, 2005, ["A", "B"], base)
        two = standardize_citations(2 * citations, 2005, ["A", "B"], doubled)
        assert two == pytest.approx(one, rel=1e-12, abs=1e-12)


class TestFractionalCountStandard:
    def test_two_of_five(self):
        assert fractional_count_standard(5, (1, 4)) == pytest.approx(0.4)

    def test_sole_author(self):
        assert fractional_count_standard(1, (1,)) == 1.0

    def test_none_of_four(self):
        assert fractional_count_standard(4, ()) == 0.0


class TestFractionalCountLifeScience:
    def test_both_ends_intramural(self):
        assert fractional_count_life_science(6, (1, 6), True) == pytest.approx(0.80)

    def test_second_author_extramural(self):
        assert fractional_count_life_science(6, (2,), False) == pytest.approx(0.15)

    def test_single_author(self):
        assert fractional_count_life_science(1, (1,), True) == pytest.approx(1.0)
        assert fractional_count_life_science(1, (1,), False) == pytest.approx(1.0)

    def test_middle_of_five_extramural(self):
        # the "all others" pool is a single author here
        assert fractional_count_life_science(5, (3,), False) == pytest.approx(0.10)

    @pytest.mark.parametrize("scheme_a", [True, False])
    @pytest.mark.parametrize("n", range(1, 51))
    def test_weights_sum_to_one(self, n, scheme_a):
        assert sum(positional_weights(n, scheme_a)) == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(min_value=1, max_value=50), st.booleans())
    def test_full_byline_gets_everything(self, n, scheme_a):
        f = fractional_count_life_science(n, tuple(range(1, n + 1)), scheme_a)
        assert f == pytest.approx(1.0, abs=1e-12)

    @given(
        st.integers(min_value=1, max_value=30).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.sets(st.integers(min_value=1, max_value=n)),
                st.booleans(),
            )
        )
    )
    def test_fraction_lies_in_unit_interval(self, case):
        n, positions, scheme_a = case
        f = fractional_count_life_science(n, tuple(positions), scheme_a)
        assert -1e-12 <= f <= 1 + 1e-12


class TestSchemeSelection:
    def test_both_ends_held(self):
        assert first_last_share_dmu(6, (1, 6))

    def test_one_end_held(self):
        assert not first_last_share_dmu(6, (1, 3))

    def test_single_author_is_intramural(self):
        assert first_last_share_dmu(1, (1,))

    def test_dispatch_uses_record_flag(self):
        plain = PublicationRecord("p", 2005, 4, ("A",), 6, (1, 6), life_science=False)
        life = PublicationRecord("p", 2005, 4, ("A",), 6, (1, 6), life_science=True)
        assert fractional_count(plain) == pytest.approx(2 / 6)
        assert fractional_count(life) == pytest.approx(0.80)


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

    def test_contribution_is_exact_product(self):
        table = MedianTable(entries={(2005, "A"): 3.0})
        pub = PublicationRecord("p", 2005, 7, ("A",), 3, (1, 2))
        assert scientific_strength([pub], table) == standardize_citations(
            7, 2005, ("A",), table
        ) * fractional_count(pub)
