import statistics

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bibdea import (
    DataError,
    DmuInput,
    EfficiencyScores,
    aggregate_weighted,
    efficiency_matrix,
    eligibility_filter,
    histogram,
    percentile_rank,
    percentile_ranks,
    productivity_ratio,
    rank_divergence,
    staff_cost,
)

from bibdea.analytics import TIE_TOL

from benchmarks import (
    BIOLOGY_AREA,
    BIOLOGY_AREA_AVERAGE,
    PHARM_CHEM,
    PRODUCTIVITY_SPOTS,
    pharm_chem_printed_scores,
)

# Ties are likely: a few pooled values, zero of both signs among them.
tied_scores = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 0.25, 1.0]), st.floats(allow_nan=False)),
    min_size=2,
    max_size=30,
)

distinct_scores = st.lists(
    st.floats(min_value=0, max_value=1).map(lambda x: round(x, 6)),
    min_size=2,
    max_size=20,
    unique=True,
)


class TestPercentileRank:
    def test_unique_maximum_is_100(self):
        scores = [0.1, 0.4, 0.9, 0.2]
        assert percentile_rank(scores, 0.9) == 100.0

    def test_unique_minimum_is_0(self):
        scores = [0.1, 0.4, 0.9, 0.2]
        assert percentile_rank(scores, 0.1) == 0.0

    def test_midpoint(self):
        assert percentile_rank([1.0, 2.0, 3.0], 2.0) == pytest.approx(50.0)

    def test_ties_get_half_credit(self):
        assert percentile_rank([1.0, 2.0, 2.0, 3.0], 2.0) == pytest.approx(50.0)

    def test_singleton_is_undefined(self):
        with pytest.raises(DataError):
            percentile_rank([1.0], 1.0)

    def test_target_must_be_present(self):
        with pytest.raises(DataError):
            percentile_rank([1.0, 2.0], 1.5)

    @settings(max_examples=150)
    @given(distinct_scores)
    def test_order_isomorphism(self, scores):
        transformed = [2.0 * s + 1.0 for s in scores]
        for s, t in zip(scores, transformed):
            assert percentile_rank(scores, s) == pytest.approx(
                percentile_rank(transformed, t), abs=1e-9
            )

    def test_percentile_ranks_rank_the_whole_list(self):
        assert percentile_ranks([0.2, 0.8, 0.5]) == [0.0, 100.0, 50.0]

    @settings(max_examples=300)
    @given(tied_scores)
    @example([0.0, -0.0])
    @example([1.0, 0.5])
    @example([-0.0, 0.5, 0.0, 0.5, 0.5 + TIE_TOL / 2, 1.0])
    def test_column_ranks_are_the_scalar_ranks(self, scores):
        expected = [percentile_rank(scores, s).hex() for s in scores]
        assert [r.hex() for r in percentile_ranks(scores)] == expected

    def test_column_ranks_need_two_scores(self):
        with pytest.raises(DataError):
            percentile_ranks([0.5])

    def test_scores_within_the_tolerance_tie(self):
        near = 0.5 - TIE_TOL / 10
        assert percentile_ranks([0.5, near, 0.1, 0.9]) == percentile_ranks([0.5, 0.5, 0.1, 0.9])
        assert percentile_ranks([0.5, 0.5 - 2 * TIE_TOL]) == [100.0, 0.0]


class TestAggregateWeighted:
    def test_reference_portfolio_aggregate(self):
        rows = [((te, ae, ce), cost) for _, cost, te, ae, ce in BIOLOGY_AREA]
        agg = aggregate_weighted(rows)
        assert agg.te == pytest.approx(BIOLOGY_AREA_AVERAGE[0], abs=0.01)
        assert agg.ae == pytest.approx(BIOLOGY_AREA_AVERAGE[1], abs=0.01)
        assert agg.ce == pytest.approx(BIOLOGY_AREA_AVERAGE[2], abs=0.01)
        assert agg.total_weight == pytest.approx(114918.70, abs=0.01)

    def test_single_row_identity(self):
        agg = aggregate_weighted([((0.3, 0.6, 0.18), 42.0)])
        assert (agg.te, agg.ae, agg.ce) == pytest.approx((0.3, 0.6, 0.18))

    def test_empty_input(self):
        with pytest.raises(DataError):
            aggregate_weighted([])

    def test_nonpositive_weight(self):
        with pytest.raises(DataError):
            aggregate_weighted([((0.5, 0.5, 0.25), 0.0)])

    @settings(max_examples=100)
    @given(
        st.lists(
            st.tuples(
                st.tuples(
                    st.floats(min_value=0, max_value=1),
                    st.floats(min_value=0, max_value=1),
                    st.floats(min_value=0, max_value=1),
                ),
                st.floats(min_value=0.01, max_value=1e4),
            ),
            min_size=1,
            max_size=15,
        ),
        st.floats(min_value=0.01, max_value=100),
    )
    def test_scale_invariant_in_weights(self, rows, factor):
        base = aggregate_weighted(rows)
        scaled = aggregate_weighted([(t, w * factor) for t, w in rows])
        assert (scaled.te, scaled.ae, scaled.ce) == pytest.approx(
            (base.te, base.ae, base.ce), rel=1e-9, abs=1e-12
        )

    @given(
        st.lists(
            st.tuples(
                st.tuples(
                    st.floats(min_value=0, max_value=1),
                    st.floats(min_value=0, max_value=1),
                    st.floats(min_value=0, max_value=1),
                ),
                st.floats(min_value=0.01, max_value=1e4),
            ),
            min_size=1,
            max_size=15,
        )
    )
    def test_aggregate_within_constituent_range(self, rows):
        agg = aggregate_weighted(rows)
        for k, value in enumerate((agg.te, agg.ae, agg.ce)):
            lo = min(t[k] for t, _ in rows)
            hi = max(t[k] for t, _ in rows)
            assert lo - 1e-9 <= value <= hi + 1e-9


class TestHistogram:
    def test_reference_ce_column(self):
        ce = [row[7] for row in PHARM_CHEM]
        hist = histogram(ce)
        assert hist.counts[1] == 11
        assert max(hist.counts) == hist.counts[1]
        assert hist.median == pytest.approx(0.383, abs=1e-9)

    def test_reference_ae_column_median(self):
        ae = [row[6] for row in PHARM_CHEM]
        assert histogram(ae).median == pytest.approx(0.8785, abs=1e-9)

    def test_all_ones_fill_the_top_bin(self):
        hist = histogram([1.0, 1.0, 1.0])
        assert hist.counts == (0, 0, 0, 0, 3)

    def test_left_closed_edges(self):
        hist = histogram([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
        assert hist.counts == (1, 1, 1, 1, 2)

    def test_empty_list(self):
        with pytest.raises(DataError):
            histogram([])

    def test_out_of_range_scores_rejected(self):
        with pytest.raises(DataError):
            histogram([1.2])

    @given(st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=50))
    def test_counts_sum_to_score_count(self, scores):
        hist = histogram(scores)
        assert sum(hist.counts) == len(scores)
        assert hist.median == statistics.median(scores)


class TestEfficiencyMatrix:
    def test_reference_quadrants(self):
        q = efficiency_matrix(pharm_chem_printed_scores(), threshold=0.5)
        assert (q.both_low, q.high_ae_low_te, q.both_high, q.high_te_low_ae) == (
            1,
            14,
            13,
            0,
        )
        assert q.total() == 28

    def test_all_perfect(self):
        perfect = EfficiencyScores(te=1.0, ae=1.0, ce=1.0)
        q = efficiency_matrix({"a": perfect, "b": perfect})
        assert q.both_high == 2 and q.total() == 2

    def test_zero_threshold_sends_everyone_high(self):
        q = efficiency_matrix(pharm_chem_printed_scores(), threshold=0.0)
        assert q.both_high == 28

    def test_empty_map(self):
        with pytest.raises(DataError):
            efficiency_matrix({})

    def test_raising_threshold_shrinks_both_high(self):
        scores = pharm_chem_printed_scores()
        counts = [
            efficiency_matrix(scores, threshold=t).both_high
            for t in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert counts == sorted(counts, reverse=True)

    def test_score_within_the_tolerance_reaches_the_threshold(self):
        te = 0.5 - TIE_TOL / 10
        q = efficiency_matrix({"a": EfficiencyScores(te=te, ae=1.0, ce=te)}, threshold=0.5)
        assert q.both_high == 1
        te = 0.5 - 2 * TIE_TOL
        q = efficiency_matrix({"a": EfficiencyScores(te=te, ae=1.0, ce=te)}, threshold=0.5)
        assert q.high_ae_low_te == 1

    def test_accepts_efficiency_scores_objects(self, pharm_chem_scores):
        q = efficiency_matrix(pharm_chem_scores, threshold=0.5)
        assert q.total() == 28


class TestProductivityRatio:
    @pytest.mark.parametrize("ss,total,expected", PRODUCTIVITY_SPOTS)
    def test_spot_values(self, ss, total, expected):
        dmu = DmuInput("U", "S", total / 3, total / 3, total / 3)
        assert productivity_ratio(ss, dmu) == pytest.approx(expected, abs=0.001)

    def test_zero_output(self):
        assert productivity_ratio(0.0, DmuInput("U", "S", 1, 2, 3)) == 0.0


class TestEligibilityFilter:
    def test_clears_both_thresholds(self):
        assert eligibility_filter(28, 0.8).include

    def test_too_few_universities(self):
        decision = eligibility_filter(23, 0.9)
        assert not decision.include
        assert decision.failed_criteria == ("robustness",)

    def test_too_few_publishing(self):
        decision = eligibility_filter(30, 0.49)
        assert not decision.include
        assert decision.failed_criteria == ("significance",)

    def test_boundaries_are_inclusive(self):
        assert eligibility_filter(24, 0.5).include

    def test_both_criteria_reported(self):
        decision = eligibility_filter(3, 0.1)
        assert set(decision.failed_criteria) == {"significance", "robustness"}

    def test_invalid_fraction(self):
        with pytest.raises(DataError):
            eligibility_filter(10, 1.5)


class TestRankDivergence:
    def test_reference_rank_shift(self):
        ce = {row[0]: row[7] for row in PHARM_CHEM}
        ratio = {
            row[0]: row[1] / (row[2] + row[3] + row[4]) for row in PHARM_CHEM
        }
        deltas = rank_divergence(ce, ratio)
        assert deltas["Piemonte Orientale Avogadro"] == 2  # 2nd by ce, 4th by ratio
        assert deltas["Ferrara"] == 0

    def test_identical_orderings(self):
        scores = {"a": 0.9, "b": 0.5, "c": 0.1}
        assert rank_divergence(scores, dict(scores)) == {"a": 0, "b": 0, "c": 0}

    def test_swapped_pair(self):
        deltas = rank_divergence({"a": 0.9, "b": 0.5}, {"a": 0.5, "b": 0.9})
        assert deltas == {"a": 1, "b": -1}

    def test_mismatched_sets(self):
        with pytest.raises(DataError):
            rank_divergence({"a": 1.0}, {"b": 1.0})


def test_staff_cost_feeds_aggregation_weights():
    # weights used in institution reports are plain staff costs
    dmu = DmuInput("U", "S", 0, 5, 0)
    agg = aggregate_weighted([((1.0, 1.0, 1.0), staff_cost(dmu))])
    assert agg.total_weight == pytest.approx(398.5)
