"""Acceptance gate: every numbered criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or ``-v``).
Criterion 6 is expected to fail on the small-university benchmark: that
source table's stated average row is internally inconsistent (its printed
cost total omits the last row, and no weighted mean of the printed rows
reproduces the stated TE/AE averages), so the faithful computation cannot
land inside the stated tolerance. See the assertion message for the exact
numbers.
"""

import functools
import time

import numpy as np
import pytest

from bibdea import (
    DEFAULT_COSTS,
    DmuInput,
    SdsDataset,
    aggregate_weighted,
    cost_efficiency,
    efficiency_matrix,
    evaluate_sds,
    histogram,
    percentile_rank,
    productivity_ratio,
    staff_cost,
    technical_efficiency,
)
from bibdea.bibliometrics import positional_weights

from benchmarks import (
    BIOLOGY_AREA,
    BIOLOGY_AREA_AVERAGE,
    COST_RECONSTRUCTIONS,
    PHARM_CHEM,
    PRODUCTIVITY_SPOTS,
    SMALL_UNIVERSITY,
    SMALL_UNIVERSITY_AVERAGE,
    pharm_chem_dataset,
    pharm_chem_printed_scores,
)
from oracles import ce_by_enumeration, ce_closed_form, integer_cost_triples, te_by_enumeration


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except AssertionError:
                print(f"ACCEPTANCE {number} ({label}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({label}): PASS")

        return wrapper

    return decorate


@criterion(1, "benchmark table reproduction")
def test_criterion_1_full_table(pharm_chem, pharm_chem_scores):
    start = time.perf_counter()
    scores = evaluate_sds(pharm_chem)
    elapsed = time.perf_counter() - start
    for name, _ss, _fp, _ap, _rf, te, ae, ce in PHARM_CHEM:
        got = scores[name]
        assert got.te == pytest.approx(te, abs=0.01), f"{name} te"
        assert got.ae == pytest.approx(ae, abs=0.01), f"{name} ae"
        assert got.ce == pytest.approx(ce, abs=0.01), f"{name} ce"
    assert elapsed < 1.0, f"28-DMU evaluation took {elapsed:.3f}s"


@criterion(2, "cost-efficiency spot checks vs closed form")
def test_criterion_2_ce_spot_checks(pharm_chem, pharm_chem_scores):
    inputs = np.array([[d.fp_years, d.ap_years, d.rf_years] for d, _ in pharm_chem.members])
    outputs = np.array(pharm_chem.ss_values())
    prices = np.array([DEFAULT_COSTS.fp_cost, DEFAULT_COSTS.ap_cost, DEFAULT_COSTS.rf_cost])
    expected = {"Piemonte Orientale Avogadro": 0.948, "Bologna": 0.945, "Ferrara": 1.000}
    for name, printed in expected.items():
        i = pharm_chem.dmu_ids().index(name)
        oracle = ce_closed_form(i, inputs, outputs, prices)
        got = pharm_chem_scores[name].ce
        assert got == pytest.approx(oracle, abs=0.002), f"{name} vs oracle"
        assert got == pytest.approx(printed, abs=0.01), f"{name} vs reference"


@criterion(3, "decomposition identity")
def test_criterion_3_decomposition(pharm_chem_scores):
    for name, scores in pharm_chem_scores.items():
        if scores.te > 0:
            assert abs(scores.ce - scores.te * scores.ae) <= 1e-6, name
    for name, _ss, _fp, _ap, _rf, te, ae, ce in PHARM_CHEM:
        if te > 0:
            assert abs(ce - te * ae) <= 0.002, f"{name} printed triple"


@criterion(4, "distribution statistics")
def test_criterion_4_distributions(pharm_chem_scores):
    ae_hist = histogram([s.ae for s in pharm_chem_scores.values()])
    ce_hist = histogram([s.ce for s in pharm_chem_scores.values()])
    assert ae_hist.median == pytest.approx(0.878, abs=0.005)
    assert ce_hist.median == pytest.approx(0.383, abs=0.005)
    assert ce_hist.counts[1] == 11  # modal bin [0.2, 0.4)
    assert max(ce_hist.counts) == ce_hist.counts[1]
    # the modal count is a straight tally, reproducible from the reference column
    printed_tally = sum(1 for row in PHARM_CHEM if 0.2 <= row[7] < 0.4)
    assert printed_tally == 11


@criterion(5, "efficiency-matrix quadrants")
def test_criterion_5_quadrants():
    q = efficiency_matrix(pharm_chem_printed_scores(), threshold=0.5)
    assert (q.both_low, q.high_ae_low_te, q.both_high, q.high_te_low_ae) == (1, 14, 13, 0)


@criterion(6, "cost-weighted aggregation")
def test_criterion_6_weighted_aggregation():
    biology = aggregate_weighted(
        [((te, ae, ce), cost) for _sds, cost, te, ae, ce in BIOLOGY_AREA]
    )
    assert biology.te == pytest.approx(BIOLOGY_AREA_AVERAGE[0], abs=0.01)
    assert biology.ae == pytest.approx(BIOLOGY_AREA_AVERAGE[1], abs=0.01)
    assert biology.ce == pytest.approx(BIOLOGY_AREA_AVERAGE[2], abs=0.01)

    small = aggregate_weighted(
        [((te, ae, ce), cost) for _sds, cost, te, ae, ce in SMALL_UNIVERSITY]
    )
    got = (small.te, small.ae, small.ce)
    assert got == pytest.approx(SMALL_UNIVERSITY_AVERAGE, abs=0.01), (
        f"computed weighted mean {tuple(round(v, 4) for v in got)} vs stated "
        f"{SMALL_UNIVERSITY_AVERAGE}: the benchmark's average row is internally "
        f"inconsistent. Its stated cost total (45846.100) is the sum of only the "
        f"first 22 of its 23 cost cells (true sum 47418.25); its TE/AE averages "
        f"match numerators over all 23 rows divided by the short total, while its "
        f"CE average matches the true total. No weighted mean of the printed rows "
        f"reproduces all three stated values, so this check cannot pass as stated."
    )


@criterion(7, "productivity ratios")
def test_criterion_7_productivity():
    for ss, years, expected in PRODUCTIVITY_SPOTS:
        dmu = DmuInput("U", "S", fp_years=years, ap_years=0.0, rf_years=0.0)
        assert productivity_ratio(ss, dmu) == pytest.approx(expected, abs=0.001)


@criterion(8, "integer cost reconstruction")
def test_criterion_8_cost_reconstruction():
    prices = (DEFAULT_COSTS.fp_cost, DEFAULT_COSTS.ap_cost, DEFAULT_COSTS.rf_cost)
    for sds_id, printed, expected_triple in COST_RECONSTRUCTIONS:
        found = integer_cost_triples(printed, prices)
        assert expected_triple in found, f"{sds_id}: search found {found}"
        fp, ap, rf = expected_triple
        dmu = DmuInput("U", sds_id, fp_years=fp, ap_years=ap, rf_years=rf)
        assert staff_cost(dmu) == pytest.approx(printed, abs=1e-9), sds_id


@criterion(9, "property suite")
def test_criterion_9_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)

    # te and ce vs the enumeration oracles
    prices = np.array([DEFAULT_COSTS.fp_cost, DEFAULT_COSTS.ap_cost, DEFAULT_COSTS.rf_cost])
    for _ in range(200):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, 4))
        inputs3 = rng.uniform(0.1, 10.0, size=(n, 3))
        inputs3[:, k:] = 0.0
        outputs = rng.uniform(0.1, 10.0, size=n)
        ds = SdsDataset(
            "S",
            tuple(
                (DmuInput(f"D{j}", "S", *inputs3[j]), float(outputs[j]))
                for j in range(n)
            ),
        )
        i = int(rng.integers(0, n))
        te, _ = technical_efficiency(i, ds)
        assert te == pytest.approx(
            te_by_enumeration(i, inputs3[:, :k], outputs), abs=1e-9
        )
        ce = cost_efficiency(i, ds)
        assert ce == pytest.approx(ce_by_enumeration(i, inputs3, outputs, prices), abs=1e-9)

    # unit invariance of te under per-input rescaling
    base_inputs = rng.uniform(0.5, 8.0, size=(6, 3))
    base_outputs = rng.uniform(0.5, 8.0, size=6)
    scale = np.array([3.0, 0.2, 12.0])
    plain = SdsDataset(
        "S",
        tuple((DmuInput(f"D{j}", "S", *base_inputs[j]), float(base_outputs[j])) for j in range(6)),
    )
    scaled = SdsDataset(
        "S",
        tuple(
            (DmuInput(f"D{j}", "S", *(base_inputs[j] * scale)), float(base_outputs[j]))
            for j in range(6)
        ),
    )
    for i in range(6):
        assert technical_efficiency(i, scaled)[0] == pytest.approx(
            technical_efficiency(i, plain)[0], abs=1e-9
        )

    # output monotonicity
    for _ in range(20):
        n = int(rng.integers(2, 7))
        inputs3 = rng.uniform(0.1, 10.0, size=(n, 3))
        outputs = rng.uniform(0.1, 10.0, size=n)
        i = int(rng.integers(0, n))
        before = technical_efficiency(
            i,
            SdsDataset(
                "S",
                tuple(
                    (DmuInput(f"D{j}", "S", *inputs3[j]), float(outputs[j]))
                    for j in range(n)
                ),
            ),
        )[0]
        outputs[i] *= 1.0 + float(rng.uniform(0.05, 0.6))
        after = technical_efficiency(
            i,
            SdsDataset(
                "S",
                tuple(
                    (DmuInput(f"D{j}", "S", *inputs3[j]), float(outputs[j]))
                    for j in range(n)
                ),
            ),
        )[0]
        assert after >= before - 1e-9

    # weight vectors sum to one for every byline length and both schemes
    for n in range(1, 51):
        for scheme_a in (True, False):
            assert sum(positional_weights(n, scheme_a)) == pytest.approx(1.0, abs=1e-12)

    # zero-output DMUs score exactly (0, 0, 0)
    ds = pharm_chem_dataset()
    with_zero = SdsDataset(
        ds.sds_id, ds.members + ((DmuInput("Nil", ds.sds_id, 3, 3, 3), 0.0),)
    )
    scores = evaluate_sds(with_zero)
    assert scores["Nil"].as_triple() == (0.0, 0.0, 0.0)

    # percentile endpoints, as pinned by the reporting contract
    ce_column = [row[7] for row in PHARM_CHEM]
    assert percentile_rank(ce_column, max(ce_column)) == 100.0
    assert percentile_rank(ce_column, min(ce_column)) == 0.0

    elapsed = time.perf_counter() - start
    assert elapsed < 25.0, f"property suite took {elapsed:.1f}s"
