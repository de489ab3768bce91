import time
import tracemalloc

import numpy as np
import pytest

from bibdea import (
    DEFAULT_COSTS,
    CostVector,
    DatasetValidationError,
    DmuInput,
    SdsDataset,
    SolverError,
    allocative_efficiency,
    cost_efficiency,
    evaluate_sds,
    percentile_ranks,
    technical_efficiency,
)

from benchmarks import PHARM_CHEM
from oracles import (
    ce_by_enumeration,
    ce_closed_form,
    highs_scores,
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
        ds = dataset([[1.0, 2.0, 0.5]], [3.0])
        te, weights = technical_efficiency(0, ds)
        assert te == pytest.approx(1.0, abs=1e-9)
        assert weights == pytest.approx({"D0": 1.0})

    def test_double_input_halves_the_score(self):
        ds = dataset([[1.0], [2.0]], [5.0, 5.0])
        te, weights = technical_efficiency(1, ds)
        assert te == pytest.approx(0.5, abs=1e-9)
        assert set(weights) == {"D0"}

    def test_benchmark_spot_values(self, pharm_chem_scores):
        assert pharm_chem_scores["Ferrara"].te == pytest.approx(1.000, abs=0.01)
        assert pharm_chem_scores['Napoli "Federico II"'].te == pytest.approx(0.484, abs=0.01)

    def test_single_input_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            x = rng.uniform(0.1, 10.0, size=n)
            y = rng.uniform(0.1, 10.0, size=n)
            ds = dataset([[v] for v in x], y.tolist())
            for i in range(n):
                te, _ = technical_efficiency(i, ds)
                assert te == pytest.approx(
                    te_single_input_closed_form(i, x, y), abs=1e-9
                )

    def test_reference_set_covers_the_output(self, pharm_chem):
        te, weights = technical_efficiency(3, pharm_chem)  # an inefficient row
        combined = sum(
            weights.get(dmu.dmu_id, 0.0) * ss for dmu, ss in pharm_chem.members
        )
        assert combined >= pharm_chem.members[3][1] - 1e-7


class TestCostEfficiency:
    def test_single_dmu(self):
        ds = dataset([[1.0, 2.0, 0.5]], [3.0])
        assert cost_efficiency(0, ds) == pytest.approx(1.0, abs=1e-9)

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
            for i in range(len(ds)):
                got = cost_efficiency(i, ds)
                for oracle in (ce_closed_form, ce_by_enumeration):
                    assert got == pytest.approx(oracle(i, inputs, outputs, PRICES), abs=1e-9)


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

    def test_invalid_dataset_rejected(self):
        ds = SdsDataset(
            "S",
            (
                (DmuInput("X", "S", 1, 0, 0), 1.0),
                (DmuInput("X", "S", 2, 0, 0), 2.0),
            ),
        )
        with pytest.raises(DatasetValidationError):
            evaluate_sds(ds)


class TestInvariances:
    def test_unit_invariance_of_te(self):
        rng = np.random.default_rng(31)
        ds, inputs, outputs = random_dataset(rng, n_dmus=6, n_inputs=3)
        before = [technical_efficiency(i, ds)[0] for i in range(len(ds))]
        for scale in ((4.0, 0.25, 10.0), (1e150, 1e-150, 1.0), (1e-200, 1e-200, 1e-200)):
            scaled = dataset(
                [
                    [d.fp_years * scale[0], d.ap_years * scale[1], d.rf_years * scale[2]]
                    for d, _ in ds.members
                ],
                list(outputs),
            )
            after = [technical_efficiency(i, scaled)[0] for i in range(len(ds))]
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
        for i in range(len(ds)):
            assert cost_efficiency(i, scaled, costs) == pytest.approx(
                cost_efficiency(i, ds, DEFAULT_COSTS), abs=1e-9
            )

    def test_output_monotonicity(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            ds, _, outputs = random_dataset(rng)
            i = int(rng.integers(0, len(ds)))
            before, _ = technical_efficiency(i, ds)
            bumped = list(outputs)
            bumped[i] *= 1.0 + rng.uniform(0.05, 0.5)
            ds2 = dataset(
                [[d.fp_years, d.ap_years, d.rf_years] for d, _ in ds.members], bumped
            )
            after, _ = technical_efficiency(i, ds2)
            assert after >= before - 1e-9

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
            i = int(rng.integers(0, len(ds)))
            te, _ = technical_efficiency(i, ds)
            assert te == pytest.approx(
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
    tol = 1e-8 * max(1.0, inputs.max(), outputs.max())
    for i, d in enumerate(ids):
        lam = np.array([scores[d].reference_weights.get(p, 0.0) for p in ids])
        assert lam @ outputs >= outputs[i] - tol, d
        assert np.all(lam @ inputs <= te[i] * inputs[i] + tol), d


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
