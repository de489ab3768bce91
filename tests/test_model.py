from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bibdea import (
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
    staff_cost,
)

from bibdea.model import MAX_AUTHORS, NO_CATEGORIES, categories_problem

from benchmarks import COST_RECONSTRUCTIONS
from oracles import integer_cost_triples


def dmu(fp=0.0, ap=0.0, rf=0.0, dmu_id="U", sds_id="S"):
    return DmuInput(dmu_id=dmu_id, sds_id=sds_id, fp_years=fp, ap_years=ap, rf_years=rf)


class TestStaffCost:
    def test_five_associate_professors(self):
        assert staff_cost(dmu(ap=5)) == pytest.approx(398.500, abs=1e-9)

    def test_one_full_professor(self):
        assert staff_cost(dmu(fp=1)) == pytest.approx(111.700, abs=1e-9)

    def test_zero_input_rejected_at_construction(self):
        with pytest.raises(DataError):
            dmu()

    def test_custom_cost_vector(self):
        costs = CostVector(fp_cost=100.0, ap_cost=10.0, rf_cost=1.0)
        assert staff_cost(dmu(fp=1, ap=2, rf=3), costs) == pytest.approx(123.0)

    @given(
        st.floats(min_value=0.01, max_value=50),
        st.floats(min_value=0, max_value=80),
        st.floats(min_value=0, max_value=80),
        st.floats(min_value=0, max_value=80),
    )
    def test_linearity(self, scale, fp, ap, rf):
        if fp + ap + rf == 0:
            fp = 1.0
        assume(scale * fp + scale * ap + scale * rf > 0)
        base = staff_cost(dmu(fp=fp, ap=ap, rf=rf))
        scaled = staff_cost(dmu(fp=scale * fp, ap=scale * ap, rf=scale * rf))
        assert scaled == pytest.approx(scale * base, rel=1e-9)

    def test_integer_reconstruction_of_reference_costs(self):
        prices = (DEFAULT_COSTS.fp_cost, DEFAULT_COSTS.ap_cost, DEFAULT_COSTS.rf_cost)
        for sds_id, printed, expected_triple in COST_RECONSTRUCTIONS:
            triples = integer_cost_triples(printed, prices)
            assert expected_triple in triples, (sds_id, triples)
            fp, ap, rf = expected_triple
            assert staff_cost(dmu(fp=fp, ap=ap, rf=rf)) == pytest.approx(printed, abs=1e-9)


class TestDomainTypes:
    def test_cost_vector_must_be_positive(self):
        with pytest.raises(DataError):
            CostVector(fp_cost=0.0)

    def test_negative_staff_years_rejected(self):
        with pytest.raises(DataError):
            dmu(fp=-1, ap=5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "1.5", None])
    def test_staff_years_must_be_finite_numbers(self, bad):
        with pytest.raises(DataError):
            dmu(fp=1, ap=bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "x", None, True])
    def test_cost_vector_must_be_finite_numbers(self, bad):
        with pytest.raises(DataError):
            CostVector(fp_cost=bad)

    def test_publication_position_out_of_range(self):
        with pytest.raises(DataError):
            PublicationRecord("p", 2005, 3, ("A",), total_authors=2, dmu_author_positions=(3,))

    def test_publication_duplicate_positions(self):
        with pytest.raises(DataError):
            PublicationRecord("p", 2005, 3, ("A",), total_authors=3, dmu_author_positions=(1, 1))

    def test_publication_needs_category(self):
        with pytest.raises(DataError):
            PublicationRecord("p", 2005, 3, (), total_authors=1)

    @pytest.mark.parametrize(
        "categories, problem",
        [((), NO_CATEGORIES), (("A", "A"), "duplicate subject categories"),
         (("A", "B", "A"), "duplicate subject categories"), (("A", "B"), None)],
    )
    def test_categories_problem(self, categories, problem):
        # a repeated category would count its median twice in the divisor
        assert categories_problem(categories) == problem
        assert categories_problem(list(categories)) == problem

    def test_publication_negative_citations(self):
        with pytest.raises(DataError):
            PublicationRecord("p", 2005, -1, ("A",), total_authors=1)

    def test_publication_citations_must_fit_a_float(self):
        with pytest.raises(DataError) as err:
            PublicationRecord("p", 2005, 10**400, ("A",), total_authors=1)
        assert "citations too large" in str(err.value)

    def test_publication_byline_length_is_bounded(self):
        PublicationRecord("p", 2005, 3, ("A",), total_authors=MAX_AUTHORS)
        with pytest.raises(DataError) as err:
            PublicationRecord("p", 2005, 3, ("A",), total_authors=MAX_AUTHORS + 1)
        assert f"at most {MAX_AUTHORS}" in str(err.value)

    def test_median_table_rejects_negative(self):
        with pytest.raises(DataError):
            MedianTable(entries={(2005, "A"): -1.0})

    @pytest.mark.parametrize(
        "fields, problem",
        [
            ({"citations": 2.5}, "citations must be an integer"),
            ({"citations": True}, "citations must be an integer"),
            ({"total_authors": 2.5}, "total_authors and author positions must be integers"),
            ({"dmu_author_positions": (1.0,)}, "total_authors and author positions must be"),
        ],
        ids=["float citations", "bool citations", "float total_authors", "float position"],
    )
    def test_publication_counts_must_be_integers(self, fields, problem):
        # ingest passes the ints it parsed; a float would reach the
        # life-science weights as an index
        record = {"citations": 3, "total_authors": 2, "dmu_author_positions": (1,)} | fields
        with pytest.raises(DataError, match=f"p: {problem}"):
            PublicationRecord("p", 2005, categories=("A",), life_science=True, **record)

    @pytest.mark.parametrize(
        "value, message",
        [
            (float("nan"), "non-finite reference {} for (2004, 'A')"),
            (float("inf"), "non-finite reference {} for (2004, 'A')"),
            (float("-inf"), "negative reference {} for (2004, 'A')"),
        ],
        ids=["nan", "inf", "-inf"],
    )
    def test_median_table_rejects_non_finite_values(self, value, message):
        with pytest.raises(DataError) as err:
            MedianTable(entries={(2004, "A"): value})
        assert str(err.value) == message.format("median")
        with pytest.raises(DataError) as err:
            MedianTable(entries={(2004, "A"): 0.0}, means={(2004, "A"): value})
        assert str(err.value) == message.format("mean")

    def test_median_lookup_error_names_the_key(self):
        table = MedianTable(entries={(2005, "A"): 2.0})
        with pytest.raises(MedianLookupError) as err:
            table.median(2006, "B")
        assert "2006" in str(err.value) and "B" in str(err.value)

    def test_efficiency_scores_identity_enforced(self):
        with pytest.raises(DataError):
            EfficiencyScores(te=0.5, ae=0.5, ce=0.5)

    def test_efficiency_scores_zero_te_forces_zero(self):
        with pytest.raises(DataError):
            EfficiencyScores(te=0.0, ae=0.4, ce=0.0)

    def test_efficiency_scores_clamps_solver_noise(self):
        scores = EfficiencyScores(te=1.0 + 5e-8, ae=1.0, ce=1.0)
        assert scores.te == 1.0

    def test_efficiency_scores_range_enforced(self):
        with pytest.raises(DataError):
            EfficiencyScores(te=1.2, ae=1.0, ce=1.2)


    @pytest.mark.parametrize(
        "scores", [("0.5", "1", "0.5"), (Decimal("0.5"), 1.0, 0.5)], ids=["str", "Decimal"]
    )
    def test_efficiency_scores_must_be_numbers(self, scores):
        with pytest.raises(DataError, match="=nan outside"):
            EfficiencyScores(*scores)


class TestStaffYearTypes:
    @pytest.mark.parametrize("value", [2.5, 3, True, Fraction(1, 3), np.float64(2.5)])
    def test_any_real_number_is_accepted(self, value):
        assert dmu(fp=value, rf=1.0).fp_years is value

    @pytest.mark.parametrize("value", ["1", Decimal("1"), None])
    def test_other_types_are_rejected(self, value):
        with pytest.raises(DataError, match="staff-years must be finite"):
            dmu(fp=value, rf=1.0)

    @pytest.mark.parametrize("value", [10**400, -(10**400), Fraction(10**400, 3)])
    def test_numbers_past_the_float_range_are_rejected(self, value):
        # run_assessment takes the years as floats
        with pytest.raises(DataError, match="S/U: staff-years must be finite and >= 0"):
            DmuInput("U", "S", value, 1, 1)


class TestAssessmentDataset:
    def test_repeated_unit_is_rejected(self):
        with pytest.raises(DatasetValidationError) as err:
            AssessmentDataset([("U1", "A"), ("U1", "A")], [[1, 0, 0], [0, 2, 0]], [1.0, 2.0])
        assert err.value.violations == ["A: duplicate dmu_id 'U1'"]

    # "ab" was scored as unit a of SDS b, and (1, 2) failed in emit
    def test_every_bad_unit_key_is_listed(self):
        units = [("U", "S"), "ab", ("", "S"), (1, 2), ("U", "S", "x"), ["V", "S"]]
        with pytest.raises(DatasetValidationError) as err:
            AssessmentDataset(units, [[1, 0, 0]] * len(units), [1.0] * len(units))
        pair = "not a (dmu_id, sds_id) pair of strings"
        assert err.value.violations == [
            f"unit 'ab': {pair}",
            "unit ('', 'S'): empty dmu_id or sds_id",
            f"unit (1, 2): {pair}",
            f"unit ('U', 'S', 'x'): {pair}",
            f"unit ['V', 'S']: {pair}",
        ]

    def test_every_violation_is_listed_in_sorted_row_order(self):
        units = [("U", "B"), ("V", "A"), ("U", "B"), ("W", "A")]
        years = [[1, 0, 0], [0, 0, 0], [1, -1, 0], [1, 1, 1]]
        with pytest.raises(DatasetValidationError) as err:
            AssessmentDataset(units, years, [1.0, 1.0, 2.0, -1.0])
        assert err.value.violations == [
            "B: duplicate dmu_id 'U'",
            "A/V: zero total staff input",
            "B/U: staff-years must be finite and >= 0",
            "A/W: negative output -1.0",
        ]

    @pytest.mark.parametrize(
        "years", [[[1, 0]], [1, 0, 0], [[1, 0, 0], [1, 0, 0]], [[1, 0, 0], [1, 0]]]
    )
    def test_columns_of_unequal_length_are_rejected(self, years):
        with pytest.raises(DatasetValidationError, match="columns of unequal length"):
            AssessmentDataset([("U", "S")], years, [1.0])

    # a value that is no real number, or is past the float range, reads as NaN
    @pytest.mark.parametrize(
        "bad",
        [
            -1.0,
            float("nan"),
            float("inf"),
            None,
            pytest.param(10**400, id="10**400"),
            "x",
            "1.5",
            pytest.param(Decimal("1"), id="Decimal"),
        ],
    )
    def test_staff_years_must_be_finite_and_nonnegative(self, bad):
        with pytest.raises(DatasetValidationError) as err:
            AssessmentDataset([("U", "S")], [[bad, 1, 1]], [1.0])
        assert err.value.violations == ["S/U: staff-years must be finite and >= 0"]

    def test_a_bool_is_a_number_of_staff_years(self):
        # as DmuInput takes it
        dataset = AssessmentDataset([("U", "S")], [[True, 1, 1]], [1.0])
        assert dataset.years.tolist() == [[1.0, 1.0, 1.0]]

    def test_columns_are_sorted_by_sds_then_unit_and_read_only(self):
        dataset = AssessmentDataset(
            [("U2", "B"), ("U1", "B"), ("U3", "A")], [[1, 0, 0], [2, 0, 0], [3, 0, 0]], [1, 2, 3]
        )
        assert dataset.units == (("U3", "A"), ("U1", "B"), ("U2", "B"))
        assert dataset.years.tolist() == [[3.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        assert dataset.ss.tolist() == [3.0, 2.0, 1.0]
        for column in (dataset.years, dataset.ss):
            with pytest.raises(ValueError):
                column[0] = 0.0

    @pytest.mark.parametrize(
        "ss, problem",
        [
            (-1.0, "negative"),
            (float("nan"), "non-finite"),
            (float("-inf"), "non-finite"),
            pytest.param(10**400, "non-finite", id="10**400"),
            ("x", "non-finite"),
            ("2", "non-finite"),
        ],
    )
    def test_output_must_be_finite_and_nonnegative(self, ss, problem):
        with pytest.raises(DatasetValidationError, match=f"S/U: {problem} output"):
            AssessmentDataset([("U", "S")], [[1, 0, 0]], [ss])

    @pytest.mark.parametrize(
        "mode, count, violations",
        [
            (
                "bogus",
                -3,
                [
                    "ss_mode must be 'passthrough' or 'computed', not 'bogus'",
                    "publication_count must be >= 0",
                ],
            ),
            ("computed", 2.5, ["publication_count must be an integer, not 2.5"]),
            ("computed", True, ["publication_count must be an integer, not True"]),
            ("passthrough", 3, ["publication_count must be 0 in passthrough mode, not 3"]),
        ],
    )
    def test_ss_mode_and_publication_count_are_checked(self, mode, count, violations):
        # listed before the rows' own violations
        with pytest.raises(DatasetValidationError) as err:
            AssessmentDataset([("U", "S")], [[1, 0, 0]], [-1.0], mode, count)
        assert err.value.violations == [*violations, "S/U: negative output -1.0"]


class TestValidateDataset:
    """An SdsDataset checks itself at construction."""

    def test_duplicate_dmu_id(self):
        with pytest.raises(DatasetValidationError) as err:
            SdsDataset("S", ((dmu(fp=1, dmu_id="X"), 1.0), (dmu(ap=2, dmu_id="X"), 2.0)))
        assert err.value.violations == ["S: duplicate dmu_id 'X'"]

    def test_negative_output(self):
        with pytest.raises(DatasetValidationError) as err:
            SdsDataset("S", ((dmu(fp=1, dmu_id="X"), -1.0),))
        assert err.value.violations == ["S/X: negative output -1.0"]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_output(self, bad):
        with pytest.raises(DatasetValidationError) as err:
            SdsDataset("S", ((dmu(fp=1, dmu_id="X"), bad),))
        assert err.value.violations == [f"S/X: non-finite output {bad}"]

    @pytest.mark.parametrize("bad", [pytest.param(10**400, id="10**400"), "x", "2"])
    def test_output_that_is_no_float_reads_as_nan(self, bad):
        with pytest.raises(DatasetValidationError) as err:
            SdsDataset("S", ((dmu(fp=1, dmu_id="X"), bad),))
        assert err.value.violations == ["S/X: non-finite output nan"]

    def test_wrong_sds_membership_flagged(self):
        with pytest.raises(DatasetValidationError) as err:
            SdsDataset(
                "S",
                (
                    (dmu(fp=1, dmu_id="X", sds_id="OTHER"), -1.0),
                    (dmu(fp=1, dmu_id="X"), 1.0),
                ),
            )
        assert err.value.violations == [
            "S: duplicate dmu_id 'X'",
            "S/X: row is for OTHER/X",
            "S/X: negative output -1.0",
        ]

    def test_benchmark_dataset_is_valid(self, pharm_chem):
        assert SdsDataset(pharm_chem.sds_id, pharm_chem.members) == pharm_chem
        assert len(pharm_chem) == 28
