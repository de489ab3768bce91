import collections
import math
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bibdea import (
    DataError,
    DmuInput,
    EfficiencyScores,
    QuadrantSummary,
    SdsDataset,
    aggregate_weighted,
    efficiency_matrix,
    eligibility_filter,
    evaluate_sds,
    histogram,
    percentile_ranks,
    productivity_ratio,
    rank_divergence,
    staff_cost,
)

from bibdea import analytics
from bibdea.analytics import TIE_TOL

from benchmarks import (
    BIOLOGY_AREA,
    BIOLOGY_AREA_AVERAGE,
    PHARM_CHEM,
    PRODUCTIVITY_SPOTS,
    pharm_chem_printed_scores,
)
from oracles import reference_aggregate, reference_histogram, reference_percentile_rank

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
        assert percentile_ranks([0.1, 0.4, 0.9, 0.2])[2] == 100.0

    def test_unique_minimum_is_0(self):
        assert percentile_ranks([0.1, 0.4, 0.9, 0.2])[0] == 0.0

    def test_midpoint(self):
        assert percentile_ranks([1.0, 2.0, 3.0])[1] == pytest.approx(50.0)

    def test_ties_get_half_credit(self):
        assert percentile_ranks([1.0, 2.0, 2.0, 3.0])[1:3] == pytest.approx([50.0, 50.0])

    def test_singleton_is_undefined(self):
        with pytest.raises(DataError, match="^percentile rank is undefined for fewer than two"):
            percentile_ranks([1.0])

    def test_nan_score_has_no_rank(self):
        with pytest.raises(DataError, match="undefined for a NaN score"):
            percentile_ranks([math.nan, 1.0, 0.5])

    @settings(max_examples=150)
    @given(distinct_scores)
    def test_order_isomorphism(self, scores):
        transformed = [2.0 * s + 1.0 for s in scores]
        assert percentile_ranks(scores) == pytest.approx(percentile_ranks(transformed), abs=1e-9)

    def test_percentile_ranks_rank_the_whole_list(self):
        assert percentile_ranks([0.2, 0.8, 0.5]) == [0.0, 100.0, 50.0]

    @settings(max_examples=300)
    @given(tied_scores)
    @example([0.0, -0.0])
    @example([1.0, 0.5])
    @example([-0.0, 0.5, 0.0, 0.5, 0.5 + TIE_TOL / 2, 1.0])
    def test_column_ranks_are_the_scalar_ranks(self, scores):
        expected = [reference_percentile_rank(scores, s).hex() for s in scores]
        assert [r.hex() for r in percentile_ranks(scores)] == expected

    # numpy's ValueError
    @pytest.mark.parametrize(
        "scores", [[[0.1, 0.2], [0.3, 0.4]], [[0.1], [0.2]]], ids=["square", "column"]
    )
    def test_scores_must_be_flat(self, scores):
        with pytest.raises(DataError, match="not a flat sequence$"):
            percentile_ranks(scores)

    def test_column_ranks_need_two_scores(self):
        with pytest.raises(DataError):
            percentile_ranks([])

    def test_scores_within_the_tolerance_tie(self):
        near = 0.5 - TIE_TOL / 10
        assert percentile_ranks([0.5, near, 0.1, 0.9]) == percentile_ranks([0.5, 0.5, 0.1, 0.9])
        assert percentile_ranks([0.5, 0.5 - 2 * TIE_TOL]) == [100.0, 0.0]


# Since datasets read a string as NaN, the analytics API does too, and its
# NaN and range checks reject it; numpy used to read "0.5" as 0.5.
@pytest.mark.parametrize(
    "call, problem",
    [
        (lambda: histogram(["0.5", "1"]), "histogram scores must lie in"),
        (lambda: percentile_ranks(["0.5", "0.7"]), "undefined for a NaN score"),
        (lambda: rank_divergence({"a": "1", "b": 0.5}, {"a": 1.0, "b": 0.5}), "NaN score"),
        (lambda: rank_divergence({"a": 1.0, "b": 0.5}, {"a": 1.0, "b": "1"}), "NaN score"),
        (lambda: aggregate_weighted([(("0.5", 0.5, 0.25), 1.0)]), "aggregated scores must"),
        (lambda: aggregate_weighted([((0.5, 0.5, 0.25), "1")]), "aggregation weights must"),
    ],
)
def test_strings_are_not_numbers(call, problem):
    with pytest.raises(DataError, match=problem):
        call()


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
        # a NaN or infinite weight would make every mean NaN
        for weight in (0.0, math.nan, math.inf):
            with pytest.raises(DataError, match="^aggregation weights must be finite and"):
                aggregate_weighted([((0.5, 0.5, 0.25), weight)])

    # a ValueError or TypeError from unpacking or from numpy
    @pytest.mark.parametrize(
        "rows",
        [
            [((0.1, 0.2, 0.02), 2.0, 3)],
            [0.5],
            [((0.1, 0.2, 0.02),)],
            [((0.1, 0.2, 0.02), (2.0, 3.0))],
        ],
        ids=["triple", "number", "single", "two_weights"],
    )
    def test_rows_must_be_pairs(self, rows):
        with pytest.raises(DataError, match=r"^aggregated rows must be \(triple, weight\) pairs$"):
            aggregate_weighted(rows)

    @pytest.mark.parametrize(
        "scores", [(math.nan, 0.5, 0.5), (2.0, 0.5, 0.5), (0.5, -1.0, 0.5), (0.5, 0.5)]
    )
    def test_scores_must_be_triples_in_the_unit_interval(self, scores):
        rows = [(scores, 1.0), ((0.5, 0.5, 0.25), 1.0)]
        with pytest.raises(DataError, match=r"^aggregated scores must be \(te, ae, ce\) triples"):
            aggregate_weighted(rows)

    def test_weights_are_added_left_to_right(self):
        # 1e16 + 1.0 rounds back to 1e16 at each step; a compensated sum,
        # such as builtin sum from Python 3.12, gives 1.0000000000000002e16
        agg = aggregate_weighted([((1.0, 1.0, 1.0), w) for w in (1e16, 1.0, 1.0)])
        assert agg.total_weight == 1e16

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

    # numpy's ValueError or IndexError
    @pytest.mark.parametrize(
        "scores", [[[0.1, 0.5]], [[0.1], [0.5]], 0.5], ids=["row", "column", "scalar"]
    )
    def test_scores_must_be_flat(self, scores):
        with pytest.raises(DataError, match="^histogram scores must be a flat sequence$"):
            histogram(scores)

    @given(st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=50))
    def test_counts_sum_to_score_count(self, scores):
        hist = histogram(scores)
        assert sum(hist.counts) == len(scores)
        assert hist.median == statistics.median(scores)


def _ulps_away(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return min(max(x, 0.0), 1.0)


# Scores at and a few ulps from each bin edge, spelled as k * 0.2 and as
# k / 5 (3 * 0.2 is 0.6000000000000001), which covers 0.0 and 1.0.
_EDGES = sorted({edge for k in range(6) for edge in (k * 0.2, k / 5)})
edge_scores = st.builds(_ulps_away, st.sampled_from(_EDGES), st.integers(-4, 4)) | st.floats(0, 1)

# Scores a tolerance apart and one ulp beyond it, and floats at the ends of
# the range. NaN is left out: the scan ties a NaN with nothing while a sort
# puts it last, and no pipeline score is NaN.
_TIES = [0.5 + k * TIE_TOL for k in (-1, 1)]
_SPECIAL = [0.0, -0.0, 1.0, 0.5, 1e-10, 5e-324, 1e300, -1e300, math.inf, -math.inf]
rank_scores = st.sampled_from(
    _SPECIAL + _TIES + [math.nextafter(t, math.copysign(math.inf, t - 0.5)) for t in _TIES]
) | st.floats(allow_nan=False)


class TestScoreColumns:
    """The column forms the pipeline calls, against the scalar rules they
    replaced, compared by ``float.hex``."""

    @settings(max_examples=200)
    @given(
        groups=st.lists(st.lists(edge_scores, min_size=1, max_size=12), min_size=1, max_size=5),
        seed=st.randoms(use_true_random=False),
    )
    def test_histograms_are_the_scalar_histograms(self, groups, seed):
        # the rows of the groups come interleaved
        rows = [(g, s) for g, scores in enumerate(groups) for s in scores]
        seed.shuffle(rows)
        group = np.array([g for g, _ in rows], dtype=np.intp)
        scores = np.array([s for _, s in rows])
        for got, scores_of_group in zip(analytics._histograms(scores, group), groups):
            want = reference_histogram(scores_of_group)
            assert got.counts == want.counts
            assert got.median.hex() == want.median.hex()
            assert histogram(scores_of_group) == got

    @settings(max_examples=300)
    @given(
        groups=st.lists(st.lists(rank_scores, min_size=1, max_size=10), min_size=1, max_size=5),
        seed=st.randoms(use_true_random=False),
    )
    def test_ranks_are_the_scalar_ranks(self, groups, seed):
        rows = [(g, s) for g, scores in enumerate(groups) for s in scores]
        seed.shuffle(rows)
        group = [g for g, _ in rows]
        ranks = analytics._percentile_ranks(np.array([s for _, s in rows]), np.array(group))
        for g in range(len(groups)):
            got = [r for k, r in zip(group, ranks) if k == g]
            scores = [s for k, s in rows if k == g]
            if len(scores) == 1:
                assert got == [None]
            else:
                want = [reference_percentile_rank(scores, s).hex() for s in scores]
                assert [r.hex() for r in got] == want

    @settings(max_examples=200)
    @given(
        st.data(),
        st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0, 1),
        st.randoms(use_true_random=False),
    )
    def test_quadrants_are_the_unit_quadrants(self, data, threshold, seed):
        reach = threshold - TIE_TOL
        near = st.sampled_from([math.nextafter(reach, -1), reach, math.nextafter(reach, 2)])
        pairs = st.tuples(near | st.floats(0, 1), near | st.floats(0, 1))
        units = st.lists(pairs, min_size=1, max_size=10)
        groups = data.draw(st.lists(units, min_size=1, max_size=5))
        rows = [(g, pair) for g, members in enumerate(groups) for pair in members]
        seed.shuffle(rows)
        group = np.array([g for g, _ in rows], dtype=np.intp)
        te, ae = np.array([pair for _, pair in rows]).T
        got = analytics._quadrant_counts(te, ae, group, threshold)
        assert len(got) == len(groups)
        for quadrants, members in zip(got, groups):
            cells = collections.Counter((t >= reach, a >= reach) for t, a in members)
            assert quadrants == QuadrantSummary(
                both_low=cells[False, False],
                high_ae_low_te=cells[False, True],
                both_high=cells[True, True],
                high_te_low_ae=cells[True, False],
            )

    @settings(max_examples=200)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.tuples(*[st.floats(0, 1)] * 3),
                # up to past the float range once summed
                st.floats(min_value=1e-300, max_value=1e308) | st.floats(0.01, 1e4),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_aggregates_are_the_scalar_aggregates(self, rows):
        group = np.array([g for g, _, _ in rows], dtype=np.intp)
        weights = np.array([w for _, _, w in rows])
        got = analytics._aggregates(group, weights, *np.array([t for _, t, _ in rows]).T)
        for g in {g for g, _, _ in rows}:
            want = reference_aggregate([(t, w) for k, t, w in rows if k == g])
            want = (want.total_weight, want.te, want.ae, want.ce)
            assert [column[g].hex() for column in got] == [v.hex() for v in want]


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

    # "0.5" raised TypeError, and NaN or 7 put every unit in both_low
    @pytest.mark.parametrize(
        "threshold, problem",
        [("0.5", "must be a number, not '0.5'"), (True, "must be a number, not True"),
         (math.nan, "must lie in \\[0, 1\\]"), (7, "must lie in \\[0, 1\\]")],
    )
    def test_threshold_follows_the_config_rule(self, threshold, problem):
        with pytest.raises(DataError, match=f"^threshold {problem}$"):
            efficiency_matrix(pharm_chem_printed_scores(), threshold)

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

    # numpy read "2" as 2.0, and a negative or missing output gave a ratio
    @pytest.mark.parametrize(
        "ss, problem",
        [("2", "non-finite output nan"), (None, "non-finite output nan"),
         (math.inf, "non-finite output inf"), (-1.0, "negative output -1.0")],
    )
    def test_output_follows_the_dataset_rule(self, ss, problem):
        dmu = DmuInput("U", "S", 1, 1, 0)
        assert productivity_ratio(2, dmu) == 1.0
        with pytest.raises(DataError, match=f"^S/U: {problem}$"):
            productivity_ratio(ss, dmu)


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

    # the rules of AssessmentConfig's fields; "3" raised TypeError, and 3.5
    # and a NaN minimum fraction were taken
    @pytest.mark.parametrize(
        "args, problem",
        [
            (("3", 0.5), "universities_active must be an integer, not '3'"),
            ((3.5, 0.5), "universities_active must be an integer, not 3.5"),
            ((True, 0.5), "universities_active must be an integer, not True"),
            ((-1, 0.5), "universities_active must be >= 0"),
            ((3, "0.5"), "fraction_publishing must be a number, not '0.5'"),
            ((3, math.nan), "fraction_publishing must lie in \\[0, 1\\]"),
            ((3, 0.5, 2.0), "min_active must be an integer, not 2.0"),
            ((3, 0.5, 2, math.nan), "min_fraction must lie in \\[0, 1\\]"),
            ((3, 0.5, 2, False), "min_fraction must be a number, not False"),
        ],
    )
    def test_settings_follow_the_config_rules(self, args, problem):
        with pytest.raises(DataError, match=f"^{problem}$"):
            eligibility_filter(*args)


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

    def test_empty_sets(self):
        with pytest.raises(DataError, match="^rank divergence of an empty DMU set$"):
            rank_divergence({}, {})

    def test_nan_score_has_no_rank(self):
        scores, nan = {"a": 1.0, "b": 0.5}, {"a": math.nan, "b": 0.5}
        for ce, ratio in ((nan, scores), (scores, nan)):
            with pytest.raises(DataError, match="undefined for a NaN score"):
                rank_divergence(ce, ratio)

    def test_scaled_copy_keeps_the_rank_of_its_unit(self):
        # The copy's ce and ratio both land an ulp from the unit's; float
        # noise must not split their tie in either ordering.
        units = [(0.51, 4.86, 4.08, 5.79), (3.17, 3.58, 4.69, 9.03), (1.29, 1.51, 1.76, 15.87)]
        units.append(tuple(0.3 * v for v in units[0]))
        names = ["A", "B", "C", "Copy"]
        members = tuple((DmuInput(n, "S/01", *u[:3]), u[3]) for n, u in zip(names, units))
        ce = {k: s.ce for k, s in evaluate_sds(SdsDataset("S/01", members)).items()}
        ratio = {dmu.dmu_id: productivity_ratio(ss, dmu) for dmu, ss in members}
        assert ce["A"] != ce["Copy"] and ratio["A"] != ratio["Copy"]
        assert rank_divergence(ce, ratio) == {"A": 0, "B": 0, "C": 0, "Copy": 0}


def test_staff_cost_feeds_aggregation_weights():
    # weights used in institution reports are plain staff costs
    dmu = DmuInput("U", "S", 0, 5, 0)
    agg = aggregate_weighted([((1.0, 1.0, 1.0), staff_cost(dmu))])
    assert agg.total_weight == pytest.approx(398.5)
