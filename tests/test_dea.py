import math
import os
import platform
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bibdea import (
    DEFAULT_COSTS,
    AssessmentDataset,
    CostVector,
    DataError,
    DmuInput,
    SdsDataset,
    SolverError,
    allocative_efficiency,
    evaluate_sds,
    percentile_ranks,
    run_assessment,
)
from bibdea import dea

from benchmarks import PHARM_CHEM
from oracles import (
    ce_by_enumeration,
    ce_closed_form,
    certify_te_by_duality,
    highs_scores,
    reference_facets,
    reference_pareto_front,
    te_by_enumeration,
    te_single_input_closed_form,
)

PRICES = np.array([DEFAULT_COSTS.fp_cost, DEFAULT_COSTS.ap_cost, DEFAULT_COSTS.rf_cost])


def dataset(inputs, outputs, sds_id="S"):
    members = tuple(
        (
            DmuInput(
                dmu_id=f"D{j}",
                sds_id=sds_id,
                fp_years=x[0],
                ap_years=x[1] if len(x) > 1 else 0.0,
                rf_years=x[2] if len(x) > 2 else 0.0,
            ),
            ss,
        )
        for j, (x, ss) in enumerate(zip(inputs, outputs))
    )
    return SdsDataset(sds_id=sds_id, members=members)


# Units of an SDS: zero or positive staff-years and SS, each a new unit or
# an exact or scaled copy of an earlier one.
unit_lists = st.lists(
    st.tuples(
        st.tuples(*[st.one_of(st.just(0.0), st.floats(0.01, 5))] * 2, st.floats(0.1, 5)),
        st.one_of(st.just(0.0), st.floats(0.01, 20)),
        st.sampled_from(["new", "copy", "scaled"]),
        st.integers(0, 7),
        st.floats(0.1, 10),
    ),
    min_size=1,
    max_size=8,
)


def units_sds(units):
    """The inputs and outputs of a draw of ``unit_lists``."""
    inputs, outputs = [], []
    for x, ss, kind, source, factor in units:
        if kind != "new" and source < len(inputs):
            scale = factor if kind == "scaled" else 1.0
            x, ss = [v * scale for v in inputs[source]], outputs[source] * scale
        inputs.append(list(x))
        outputs.append(ss)
    return inputs, outputs


def random_dataset(rng, n_dmus=None, n_inputs=None):
    n = n_dmus or rng.integers(2, 7)
    k = n_inputs or rng.integers(1, 4)
    inputs = rng.uniform(0.1, 10.0, size=(n, 3))
    inputs[:, k:] = 0.0
    # keep every DMU's total input positive even when k < 3
    outputs = rng.uniform(0.1, 10.0, size=n)
    return dataset(inputs.tolist(), outputs.tolist()), inputs[:, :k], outputs


class TestTechnicalEfficiency:
    def test_single_dmu_is_efficient(self):
        scores = evaluate_sds(dataset([[1.0, 2.0, 0.5]], [3.0]))["D0"]
        assert scores.te == pytest.approx(1.0, abs=1e-9)
        assert scores.reference_weights == pytest.approx({"D0": 1.0})

    def test_double_input_halves_the_score(self):
        scores = evaluate_sds(dataset([[1.0], [2.0]], [5.0, 5.0]))["D1"]
        assert scores.te == pytest.approx(0.5, abs=1e-9)
        assert set(scores.reference_weights) == {"D0"}

    def test_benchmark_spot_values(self, pharm_chem_scores):
        assert pharm_chem_scores["Ferrara"].te == pytest.approx(1.000, abs=0.01)
        assert pharm_chem_scores['Napoli "Federico II"'].te == pytest.approx(0.484, abs=0.01)

    def test_single_input_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            x = rng.uniform(0.1, 10.0, size=n)
            y = rng.uniform(0.1, 10.0, size=n)
            scores = evaluate_sds(dataset([[v] for v in x], y.tolist()))
            for i in range(n):
                assert scores[f"D{i}"].te == pytest.approx(
                    te_single_input_closed_form(i, x, y), abs=1e-9
                )

    def test_reference_set_covers_the_output(self, pharm_chem, pharm_chem_scores):
        unit, output = pharm_chem.members[3]  # an inefficient row
        weights = pharm_chem_scores[unit.dmu_id].reference_weights
        combined = sum(
            weights.get(dmu.dmu_id, 0.0) * ss for dmu, ss in pharm_chem.members
        )
        assert combined >= output - 1e-7


class TestCostEfficiency:
    def test_single_dmu(self):
        scores = evaluate_sds(dataset([[1.0, 2.0, 0.5]], [3.0]))
        assert scores["D0"].ce == pytest.approx(1.0, abs=1e-9)

    def test_benchmark_spot_values(self, pharm_chem_scores):
        assert pharm_chem_scores["Piemonte Orientale Avogadro"].ce == pytest.approx(
            0.948, abs=0.01
        )
        assert pharm_chem_scores["Bologna"].ce == pytest.approx(0.945, abs=0.01)

    def test_matches_closed_form_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            ds, _, _ = random_dataset(rng, n_inputs=3)
            inputs = np.array([[d.fp_years, d.ap_years, d.rf_years] for d, _ in ds.members])
            outputs = np.array(ds.ss_values())
            scores = evaluate_sds(ds)
            for i in range(len(ds)):
                got = scores[f"D{i}"].ce
                for oracle in (ce_closed_form, ce_by_enumeration):
                    assert got == pytest.approx(oracle(i, inputs, outputs, PRICES), abs=1e-9)

    def test_staff_cost_past_the_float_range_is_a_data_error(self):
        # te does not depend on the cost, so scoring D0 (0, 0, 0) would be wrong
        ds = dataset([[1e307, 1.0, 1.0], [1.0, 1.0, 1.0]], [1.0, 1.0])
        with pytest.raises(DataError, match="^S/D0: staff cost overflows a float$"):
            evaluate_sds(ds)


class TestAllocativeEfficiency:
    def test_fully_efficient(self):
        assert allocative_efficiency(1.0, 1.0) == 1.0

    def test_quotient(self):
        assert allocative_efficiency(0.918, 0.833) == pytest.approx(0.907, abs=0.001)

    def test_nil_output_convention(self):
        assert allocative_efficiency(0.0, 0.0) == 0.0

    def test_ce_above_te_is_inconsistent(self):
        with pytest.raises(SolverError):
            allocative_efficiency(0.5, 0.6)

    # numpy read "0.5" as 0.5, and scores outside [0, 1] gave a quotient
    @pytest.mark.parametrize(
        "te, ce, problem",
        [
            ("0.5", "0.4", "te=nan"),
            (math.nan, 0.4, "te=nan"),
            (2.0, 1.5, "te=2.0"),
            (-1, -2, "te=-1.0"),
            (0.9, 1.2, "ce=1.2"),
            ([0.5, 1.0], [0.2, -0.5], "ce=-0.5"),
        ],
    )
    def test_scores_outside_the_unit_interval(self, te, ce, problem):
        with pytest.raises(DataError, match=f"^{problem} outside \\[0, 1\\]$"):
            allocative_efficiency(te, ce)

    # numpy broadcast error, or a quotient of arrays it could broadcast
    @pytest.mark.parametrize(
        "te, ce", [([0.5, 0.6], [0.1, 0.2, 0.3]), ([0.5], [0.1, 0.2]), (0.5, [0.1, 0.2])]
    )
    def test_scores_of_two_shapes(self, te, ce):
        with pytest.raises(DataError, match="^te and ce must have one shape"):
            allocative_efficiency(te, ce)


class TestEvaluateSds:
    def test_benchmark_full_table(self, pharm_chem_scores):
        for name, _ss, _fp, _ap, _rf, te, ae, ce in PHARM_CHEM:
            got = pharm_chem_scores[name]
            assert got.te == pytest.approx(te, abs=0.01), name
            assert got.ae == pytest.approx(ae, abs=0.01), name
            assert got.ce == pytest.approx(ce, abs=0.01), name

    def test_zero_output_scores_exactly_zero(self):
        ds = dataset([[1.0], [2.0], [1.5]], [5.0, 0.0, 3.0])
        scores = evaluate_sds(ds)
        assert scores["D1"].as_triple() == (0.0, 0.0, 0.0)
        assert scores["D1"].reference_weights == {}

    def test_scaled_copy_of_a_repeated_unit(self):
        # x / y of the last unit is a few ulps from that of the repeated
        # one, so a facet through both had an exactly singular triple, and
        # the peer search raised LinAlgError.
        unit = [2.275956453983277, 3.9855186353619274, 1.034780113007547]
        other = [0.4305301580573995, 3.285790525237122, 3.0246060865279]
        scaled = [9.316496331076493, 16.31449041074633, 4.235812644584353]
        inputs = np.array([unit, other, unit, unit, unit, scaled])
        outputs = np.array([3.310092126070235] * 5 + [13.549670993962316])
        check_scores(inputs, outputs, enumerate_too=True)

    def test_frontier_always_reached(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            ds, _, _ = random_dataset(rng)
            scores = evaluate_sds(ds)
            assert any(s.te == pytest.approx(1.0, abs=1e-7) for s in scores.values())
            assert any(s.ce == pytest.approx(1.0, abs=1e-7) for s in scores.values())

    def test_efficient_units_score_exactly_one_and_tie(self, pharm_chem_scores):
        efficient = [d for d, s in pharm_chem_scores.items() if s.te >= 1 - 1e-9]
        assert len(efficient) == 6
        assert all(pharm_chem_scores[d].te == 1.0 for d in efficient)
        names = list(pharm_chem_scores)
        pct = percentile_ranks([pharm_chem_scores[d].te for d in names])
        assert len({pct[names.index(d)] for d in efficient}) == 1

    @pytest.mark.parametrize(
        "inputs, outputs",
        [
            ([[0.2, 5.9, 2.1], [0.7, 2.2, 4.3], [1.3, 1.5, 0.3]], [4.12, 5.88, 5.72]),
            ([[1.0, 1.3, 8.1], [0.3, 3.0, 0.8], [3.4, 0.6, 0.9]], [9.07, 8.51, 3.86]),
        ],
    )
    def test_frontier_units_score_exactly_one(self, inputs, outputs):
        # every unit is a vertex of the frontier; as a ratio of two rounded
        # dot products one of them would come out at 1 - 1.1e-16
        scores = evaluate_sds(dataset(inputs, outputs))
        assert [s.te for s in scores.values()] == [1.0, 1.0, 1.0]

    def test_score_ordering_and_identity(self, pharm_chem_scores):
        for s in pharm_chem_scores.values():
            assert -1e-7 <= s.ce <= s.te + 1e-7 <= 1 + 2e-7
            if s.te > 0:
                assert abs(s.ce - s.te * s.ae) <= 1e-6


    @settings(max_examples=150, deadline=None)
    @given(unit_lists)
    def test_scores_without_peers_are_the_scores_with_them(self, units):
        # run_assessment scores through dea._scores and searches no peers
        inputs, outputs = units_sds(units)
        ds = dataset(inputs, outputs)
        scores = evaluate_sds(ds)
        keys = [(d, "S") for d in ds.dmu_ids()]
        report = run_assessment(AssessmentDataset(keys, inputs, outputs), apply_filter=False)
        rows = report.sds_results["S"].rows
        assert {r.dmu_id: [v.hex() for v in (r.te, r.ae, r.ce)] for r in rows} == {
            d: [v.hex() for v in s.as_triple()] for d, s in scores.items()
        }

    @settings(max_examples=150, deadline=None)
    @given(unit_lists, st.integers(0, 3), st.integers(-300, 300))
    # Cramer's rule gave D3, which has no fp staff-years, a weight of 3e-18
    # on D2, whose fp staff-years are 4e8 once scaled: rounding noise
    @example(
        units=[((0, 0, 1), 0, "new", 0, 1), ((0, 0, 1), 0, "new", 0, 1),
               ((4, 0, 1.5), 12, "new", 0, 1), ((0, 1, 0.1), 1, "new", 0, 1),
               ((1, 0, 1.5), 5.5, "new", 0, 1)],
        column=0,
        exponent=8,
    )
    def test_every_te_is_certified_by_lp_duality(self, units, column, exponent):
        # one input column, or (column 3) the outputs, scaled near the float limits
        inputs, outputs = units_sds(units)
        cells = np.column_stack([inputs, outputs])
        cells[:, column] *= 10.0**exponent
        x, y = cells[:, :3], cells[:, 3]
        certify_te_by_duality(x, y, x @ PRICES)

    def test_peer_search_near_the_float_limits_warns_nothing(self):
        # numpy warnings are errors under pytest. D1's peer has 2e308 times
        # less output than D1, a weight past the float range.
        ds = dataset([[0.0, 1e-308, 5e-324], [1.0, 1e30, 1e305]], [1e-308, 2.0])
        assert evaluate_sds(ds)["D1"].reference_weights == {"D0": math.inf}
        # generators near the float minimum, some triples' determinants subnormal
        inputs = [[1e-300, 3.0, 1e300], [1e305, 0.0, 1e300], [1e305, 1e300, 5e-324]]
        scores = evaluate_sds(dataset(inputs, [1e300, 1e308, 1.0]))
        assert [s.te for s in scores.values()] == [1.0, 1.0, 1.0]

    def test_a_peer_with_a_tiny_weight_and_half_the_output_is_kept(self):
        # D2 needs both peers: D1 alone uses 1.5 fp staff-years per unit of
        # output against D2's 1.0. D0 makes half of D2's output at a weight
        # of 1e-12, as D0's output is 1e12.
        inputs = np.array([[0.5e12, 1.5e12, 1e12], [1.5, 0.5, 1.0], [2.0, 2.0, 2.2]])
        outputs = np.array([1e12, 1.0, 2.0])
        scores = evaluate_sds(dataset(inputs.tolist(), outputs.tolist()))
        assert scores["D2"].reference_weights == pytest.approx({"D0": 1e-12, "D1": 1.0})
        check_peers(scores, inputs, outputs)

    def test_frontier_unit_without_a_solvable_triple_is_its_own_peer(self):
        # every triple of D0's optimal facets fails the determinant test
        inputs = np.array([[1e-300, 3.0, 1e300], [1e305, 0.0, 1e300], [1e305, 1e300, 5e-324]])
        outputs = np.array([1e300, 1e308, 1.0])
        scores = evaluate_sds(dataset(inputs.tolist(), outputs.tolist()))
        assert scores["D0"].te == 1.0
        assert scores["D0"].reference_weights == {"D0": 1.0}
        check_peers(scores, inputs, outputs)


class TestInvariances:
    def test_unit_invariance_of_te(self):
        rng = np.random.default_rng(31)
        ds, inputs, outputs = random_dataset(rng, n_dmus=6, n_inputs=3)
        before = [scores.te for scores in evaluate_sds(ds).values()]
        for scale in ((4.0, 0.25, 10.0), (1e150, 1e-150, 1.0), (1e-200, 1e-200, 1e-200)):
            scaled = dataset(
                [
                    [d.fp_years * scale[0], d.ap_years * scale[1], d.rf_years * scale[2]]
                    for d, _ in ds.members
                ],
                list(outputs),
            )
            after = [scores.te for scores in evaluate_sds(scaled).values()]
            assert after == pytest.approx(before, abs=1e-9), scale

    def test_cost_invariance_under_compensating_rescale(self):
        rng = np.random.default_rng(37)
        ds, inputs, outputs = random_dataset(rng, n_dmus=5, n_inputs=3)
        scale = (4.0, 0.25, 10.0)
        scaled = dataset(
            [
                [d.fp_years * scale[0], d.ap_years * scale[1], d.rf_years * scale[2]]
                for d, _ in ds.members
            ],
            list(outputs),
        )
        costs = CostVector(
            fp_cost=DEFAULT_COSTS.fp_cost / scale[0],
            ap_cost=DEFAULT_COSTS.ap_cost / scale[1],
            rf_cost=DEFAULT_COSTS.rf_cost / scale[2],
        )
        before = [scores.ce for scores in evaluate_sds(ds, DEFAULT_COSTS).values()]
        after = [scores.ce for scores in evaluate_sds(scaled, costs).values()]
        assert after == pytest.approx(before, abs=1e-9)

    def test_output_monotonicity(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            ds, inputs, outputs = random_dataset(rng)
            before = evaluate_sds(ds)
            for i in range(len(ds)):
                bumped = list(outputs)
                bumped[i] *= 1.0 + rng.uniform(0.05, 0.5)
                after = evaluate_sds(dataset(inputs.tolist(), bumped))[f"D{i}"].te
                assert after >= before[f"D{i}"].te - 1e-9, i

    def test_frontier_idempotence(self, pharm_chem, pharm_chem_scores):
        survivors = tuple(
            (dmu, ss)
            for dmu, ss in pharm_chem.members
            if pharm_chem_scores[dmu.dmu_id].te >= 1.0 - 1e-9
        )
        reduced = SdsDataset(sds_id=pharm_chem.sds_id, members=survivors)
        for dmu_id, scores in evaluate_sds(reduced).items():
            assert scores.te == pytest.approx(1.0, abs=1e-9), dmu_id

    def test_te_oracle_equivalence_small_random(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            ds, inputs, outputs = random_dataset(rng)
            scores = evaluate_sds(ds)
            for i in range(len(ds)):
                assert scores[f"D{i}"].te == pytest.approx(
                    te_by_enumeration(i, np.asarray(inputs), np.asarray(outputs)), abs=1e-9
                )


def test_large_sds_stays_fast_and_consistent():
    # 80 DMUs is the upper end of what one SDS realistically holds
    pytest.importorskip("scipy")
    rng = np.random.default_rng(99)
    n = 80
    inputs = rng.uniform(0.5, 60.0, size=(n, 3))
    outputs = rng.uniform(0.1, 150.0, size=n)
    outputs[rng.integers(0, n, 5)] = 0.0
    ds = dataset(inputs.tolist(), outputs.tolist())
    start = time.perf_counter()
    scores = evaluate_sds(ds)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"80-DMU evaluation took {elapsed:.2f}s"
    _, highs_ce = highs_scores(inputs, outputs, PRICES)
    for j in range(n):
        s = scores[f"D{j}"]
        assert 0 <= s.ce <= s.te + 1e-7 <= 1 + 2e-7
        if outputs[j] == 0:
            assert s.as_triple() == (0.0, 0.0, 0.0)
        else:
            assert s.ce == pytest.approx(highs_ce[j], abs=1e-9)


def pareto_minimal_units(rng, n, convex):
    """Units whose points z = x / y are all Pareto-minimal.

    On the unit sphere around the origin most of them lie inside the
    frontier; on the sphere around (1, 1, 1) every one is a vertex of it.
    """
    u = np.abs(rng.normal(size=(n, 3)))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    outputs = rng.uniform(1.0, 10.0, size=n)
    return ((1.0 - u) if convex else u) * outputs[:, None], outputs


def degenerate_case(name, n, rng):
    inputs = rng.uniform(0.5, 60.0, size=(n, 3))
    outputs = rng.uniform(0.1, 150.0, size=n)
    if name == "duplicates":
        # an exact copy, and a copy at twice the scale with the same ratios
        inputs = np.vstack([inputs, inputs[:1], 2.0 * inputs[1:2]])
        outputs = np.r_[outputs, outputs[:1], 2.0 * outputs[1:2]]
    elif name == "zero_rf_column":
        inputs[:, 2] = 0.0
    elif name == "zero_output":
        # two nil outputs, and one so small that x / y overflows
        outputs[[1, 3]], outputs[5] = 0.0, 1e-320
    elif name == "single_unit":
        inputs, outputs = inputs[:1], outputs[:1]
    elif name in ("one_plane", "above_one_plane"):
        # every z = x / y on the plane z . (1, 2, 3) = 1, or half of them above it
        z = rng.uniform(0.05, 0.3, size=(n, 2))
        z = np.column_stack([z, (1.0 - z[:, 0] - 2.0 * z[:, 1]) / 3.0])
        if name == "above_one_plane":
            z[n // 2 :] *= rng.uniform(1.05, 1.5, size=(n - n // 2, 1))
        inputs = z * outputs[:, None]
    elif name == "all_pareto_minimal":
        inputs, outputs = pareto_minimal_units(rng, n, convex=False)
    return inputs, outputs


def check_scores(inputs, outputs, enumerate_too):
    """te and ce against the oracles to 1e-9, and every unit's peers valid."""
    ds = dataset(inputs.tolist(), outputs.tolist())
    scores = evaluate_sds(ds)
    ids = ds.dmu_ids()
    te = np.array([scores[d].te for d in ids])
    ce = np.array([scores[d].ce for d in ids])
    highs_te, highs_ce = highs_scores(inputs, outputs, PRICES)
    assert te == pytest.approx(highs_te, abs=1e-9)
    assert ce == pytest.approx(highs_ce, abs=1e-9)
    if enumerate_too:
        for i in range(len(ids)):
            assert te[i] == pytest.approx(te_by_enumeration(i, inputs, outputs), abs=1e-9)
            assert ce[i] == pytest.approx(
                ce_by_enumeration(i, inputs, outputs, PRICES), abs=1e-9
            )
    check_peers(scores, inputs, outputs)


def check_peers(scores, inputs, outputs):
    """Every scored unit's peers cover its output from at most te times its
    inputs, to a tolerance relative to the unit itself. Units with te = 0
    have no peers by convention."""
    ids = list(scores)
    for i, d in enumerate(ids):
        te = scores[d].te
        if te == 0:
            continue
        lam = np.array([scores[d].reference_weights.get(p, 0.0) for p in ids])
        assert lam @ outputs >= outputs[i] * (1 - 1e-8), d
        assert np.all(lam @ inputs <= te * inputs[i] + 1e-8 * te * inputs[i].max()), d


class TestOracleAgreement:
    """The frontier scores against two LP oracles that share no code with it."""

    @pytest.fixture(autouse=True)
    def _needs_scipy(self):
        pytest.importorskip("scipy")

    @pytest.mark.parametrize("n", [24, 37, 52, 80, 100])
    def test_seeded_sdss(self, n):
        rng = np.random.default_rng(n)
        inputs = rng.uniform(0.5, 60.0, size=(n, 3))
        outputs = rng.uniform(0.1, 150.0, size=n)
        outputs[rng.integers(0, n, 3)] = 0.0
        check_scores(inputs, outputs, enumerate_too=False)

    @pytest.mark.parametrize(
        "name",
        [
            "duplicates",
            "zero_rf_column",
            "zero_output",
            "single_unit",
            "one_plane",
            "above_one_plane",
            "all_pareto_minimal",
        ],
    )
    def test_degenerate_cases(self, name):
        rng = np.random.default_rng(len(name))
        check_scores(*degenerate_case(name, 7, rng), enumerate_too=True)
        check_scores(*degenerate_case(name, 40, rng), enumerate_too=False)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        unit_lists.map(units_sds),
        # every unit Pareto-minimal; with 34 or more, the triples span more
        # than one chunk of _facets, and a chunk ends inside an anchor's pairs
        st.builds(
            pareto_minimal_units,
            st.integers(0, 2**32 - 1).map(np.random.default_rng),
            st.integers(1, 45),
            st.booleans(),
        ),
    )
)
@example(pareto_minimal_units(np.random.default_rng(0), 45, convex=True))
@example(pareto_minimal_units(np.random.default_rng(1), 40, convex=False))
def test_batched_frontier_is_the_per_anchor_frontier(sds):
    inputs, outputs = map(np.asarray, sds)
    pos = outputs > 0
    assume(pos.any())
    z = inputs[pos] / outputs[pos, None]
    scaled, front = dea._points(z)
    assert front.tolist() == reference_pareto_front(z).tolist()
    got = dea._facets(scaled[front])
    want = reference_facets(scaled[front], dea._TOL)
    for g, w in zip(got, want):
        assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())


# Scaled points lie in [0, float_max / 3] (the clip in _points) and plane
# normals are unit vectors; zeros and subnormals are drawn on purpose.
_THIRD = sys.float_info.max / 3
_TINY = math.ulp(0.0)
_coordinates = st.one_of(
    st.floats(-_THIRD, _THIRD),
    st.sampled_from([0.0, -0.0, _TINY, -_TINY, _THIRD, -_THIRD, math.nextafter(_THIRD, 0)]),
)
_normals = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0, _TINY, 1.0]))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(_coordinates, _coordinates, _coordinates), min_size=1, max_size=6),
    st.lists(st.tuples(_normals, _normals, _normals), min_size=1, max_size=6),
)
def test_dots_adds_each_product_left_to_right(z, v):
    with np.errstate(over="ignore", invalid="ignore"):
        got = dea._dots(np.array(z), np.array(v))
    assert got.shape == (len(z), len(v))
    for i, (z0, z1, z2) in enumerate(z):
        for j, (v0, v1, v2) in enumerate(v):
            assert float(got[i, j]).hex() == (z0 * v0 + z1 * v1 + z2 * v2).hex()


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="OPENBLAS_CORETYPE names x86-64 kernels",
)
def test_peer_weights_are_the_same_under_any_blas_kernel():
    # Prescott's kernels round a LAPACK 3 x 3 solve differently from the
    # newer ones; no peer weight may depend on which kernel OpenBLAS picks
    script = (
        "from benchmarks import pharm_chem_dataset\n"
        "from bibdea import evaluate_sds\n"
        "for dmu_id, s in evaluate_sds(pharm_chem_dataset()).items():\n"
        "    print(dmu_id, sorted((k, w.hex()) for k, w in s.reference_weights.items()))\n"
    )
    weights = []
    for coretype in (None, "Prescott"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            cwd=Path(__file__).parent,
        )
        assert result.returncode == 0, result.stderr
        weights.append(result.stdout)
    assert weights[0] == weights[1]
    assert weights[0].count("\n") == len(PHARM_CHEM)


def test_evaluate_sds_calls_no_linear_algebra_routine(pharm_chem, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg was called")

    for name in np.linalg.__all__:
        if not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, refuse)
    scores = evaluate_sds(pharm_chem)
    assert all(s.reference_weights for s in scores.values() if s.te > 0)


def test_worst_case_sds_stays_within_time_and_memory():
    # every one of 100 units a vertex of the frontier: the most candidate
    # facets an SDS of this size can have
    inputs, outputs = pareto_minimal_units(np.random.default_rng(5), 100, convex=True)
    ds = dataset(inputs.tolist(), outputs.tolist())
    tracemalloc.start()
    try:
        start = time.perf_counter()
        scores = evaluate_sds(ds)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(s.te == 1.0 for s in scores.values())
    assert elapsed < 5.0, f"100-DMU worst case took {elapsed:.2f}s"
    assert peak < 32 * 2**20, f"100-DMU worst case peaked at {peak / 2**20:.1f} MiB"
