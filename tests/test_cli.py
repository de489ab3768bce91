import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import platform
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibdea import (
    DEFAULT_COSTS,
    AssessmentConfig,
    AssessmentDataset,
    CostVector,
    emit,
    ingest,
    run_assessment,
)
from bibdea import dea
from bibdea.cli import main

from oracles import certify_te_by_duality, reference_report_json

STAFF = "tests/fixtures/pharm_chem_staff.csv"


def _read_report(out: Path, **kwargs) -> dict:
    """The report.json that ``assess`` wrote into ``out``, read strictly:
    a ``NaN``, ``Infinity`` or ``-Infinity`` in it fails the test."""

    def reject(token):
        raise ValueError(f"report.json holds {token}, which strict JSON readers reject")

    text = (out / "report.json").read_text(encoding="utf-8")
    return json.loads(text, parse_constant=reject, **kwargs)


@pytest.fixture
def staff(fixtures_dir):
    return str(fixtures_dir / "pharm_chem_staff.csv")


@pytest.fixture
def lab_args(fixtures_dir):
    return [
        "--staff",
        str(fixtures_dir / "lab_staff.csv"),
        "--publications",
        str(fixtures_dir / "lab_pubs.csv"),
        "--medians",
        str(fixtures_dir / "lab_medians.csv"),
    ]


class TestValidate:
    def test_passthrough_fixture(self, staff, capsys):
        assert main(["validate", "--staff", staff]) == 0
        out = capsys.readouterr().out
        assert "28 universities" in out and "passthrough" in out

    def test_computed_fixture(self, lab_args, capsys):
        assert main(["validate", *lab_args]) == 0
        assert "computed" in capsys.readouterr().out

    def test_publication_parse_error_names_its_location_once(
        self, lab_args, tmp_path, capsys
    ):
        pubs = tmp_path / "p.csv"
        pubs.write_text(
            "pub_id,dmu_id,sds_id,year,citations,categories,total_authors,"
            "dmu_positions,life_science\np1,UnivA,TEST/01,20x5,1,CatA,1,1,0\n"
        )
        lab_args[lab_args.index("--publications") + 1] = str(pubs)
        assert main(["validate", *lab_args]) == 1
        err = capsys.readouterr().err
        assert "bad year value '20x5'" in err
        assert err.count("p.csv line 2:") == 1

    def test_repeated_staff_column_is_a_data_error(self, tmp_path, capsys):
        # the first fp_years cells, -5 and x, would fail if they were read
        staff = tmp_path / "staff.csv"
        staff.write_text(
            "dmu_id,sds_id,fp_years,ap_years,rf_years,fp_years,ss\n"
            "U,S,-5,1,1,1,2\nV,S,x,1,1,1,3\n"
        )
        assert main(["validate", "--staff", str(staff)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "data error: staff.csv: repeated columns ['fp_years']\n"
        assert captured.out == ""

    def test_zero_median_without_means_is_a_located_data_error(
        self, lab_args, tmp_path, capsys
    ):
        medians = tmp_path / "medians.csv"
        medians.write_text("year,category,median\n2005,CatA,0\n2005,CatB,0\n")
        lab_args[lab_args.index("--medians") + 1] = str(medians)
        assert main(["validate", *lab_args]) == 1
        assert "lab_pubs.csv line 2: zero median divisor" in capsys.readouterr().err

    def test_uncovered_year_names_its_line(self, lab_args, tmp_path, capsys):
        pubs = tmp_path / "pubs.csv"
        with open(lab_args[lab_args.index("--publications") + 1], encoding="utf-8") as fh:
            pubs.write_text(fh.read().replace(",2005,", ",-1,", 1), encoding="utf-8")
        lab_args[lab_args.index("--publications") + 1] = str(pubs)
        assert main(["validate", *lab_args]) == 1
        err = capsys.readouterr().err
        assert "median table does not cover: (-1, 'CatA') at pubs.csv line 2" in err

    def test_overflowing_ss_is_a_located_data_error(self, lab_args, tmp_path, capsys):
        # 10**308 citations over a median of 5, nine times, overflow UnivA's SS
        pubs = tmp_path / "pubs.csv"
        with open(lab_args[lab_args.index("--publications") + 1], encoding="utf-8") as fh:
            header, first = fh.read().splitlines()[:2]
        big = first.replace(",10,", f",{10**308},")
        pubs.write_text("\n".join([header] + [big] * 9) + "\n", encoding="utf-8")
        lab_args[lab_args.index("--publications") + 1] = str(pubs)
        assert main(["validate", *lab_args]) == 1
        err = capsys.readouterr().err
        assert "pubs.csv line 10: scientific strength of ('UnivA', 'TEST/01') overflows" in err

    def test_exact_sum_overflow_is_a_located_data_error(self, lab_args, tmp_path, capsys):
        # UnivA's terms are M, h and h: a left-to-right sum stays at M, their
        # exact sum is past the float range
        big, half = int(sys.float_info.max), int(sys.float_info.max * 2**-54)
        pubs, medians = tmp_path / "pubs.csv", tmp_path / "medians.csv"
        with open(lab_args[lab_args.index("--publications") + 1], encoding="utf-8") as fh:
            header = fh.readline()
        rows = [f"p{n},UnivA,TEST/01,2005,{c},CatA,1,1,0\n" for n, c in enumerate([big, half])]
        pubs.write_text(header + rows[0] + rows[1] * 2)
        medians.write_text("year,category,median\n2005,CatA,1\n")
        lab_args[lab_args.index("--publications") + 1] = str(pubs)
        lab_args[lab_args.index("--medians") + 1] = str(medians)
        assert main(["assess", *lab_args, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == (
            "data error: pubs.csv line 4: scientific strength of ('UnivA', 'TEST/01') "
            "overflows a float\n"
        )
        assert not (tmp_path / "out").exists()

    def test_row_without_a_byline_position_adds_nothing(self, tmp_path, capsys):
        # p1's 1000 citations over a median of 1e-306 are past the float
        # range, but UnivA holds none of its byline positions
        staff, pubs, medians = (tmp_path / n for n in ("staff.csv", "pubs.csv", "medians.csv"))
        staff.write_text(
            "dmu_id,sds_id,fp_years,ap_years,rf_years\nUnivA,TEST/01,1,1,1\nUnivB,TEST/01,1,1,1\n"
        )
        pubs.write_text(
            "pub_id,dmu_id,sds_id,year,citations,categories,total_authors,dmu_positions,"
            "life_science\np1,UnivA,TEST/01,2005,1000,CatA,2,,0\n"
            "p2,UnivB,TEST/01,2005,3,CatA,2,1,0\n"
        )
        medians.write_text("year,category,median\n2005,CatA,1e-306\n")
        args = ["--staff", str(staff), "--publications", str(pubs), "--medians", str(medians)]
        assert main(["validate", *args]) == 0
        assert capsys.readouterr().out.startswith("ok: 2 universities")
        dataset = ingest(staff, pubs, medians)
        assert dataset.ss[dataset.units.index(("UnivA", "TEST/01"))] == 0.0

    def test_missing_file_exits_3(self, tmp_path, capsys):
        assert main(["validate", "--staff", str(tmp_path / "nope.csv")]) == 3
        assert "i/o error" in capsys.readouterr().err

    def test_bad_data_exits_1(self, tmp_path, capsys):
        path = tmp_path / "staff.csv"
        path.write_text("dmu_id,sds_id\nU,S\n")
        assert main(["validate", "--staff", str(path)]) == 1
        assert "data error" in capsys.readouterr().err

    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["validate"])  # --staff missing
        assert err.value.code == 1


# A staff file with an ss column is a passthrough run's one input file.
@pytest.mark.parametrize(
    "verb", [["validate"], ["assess"], ["sds-report", "CHIM/08"], ["institution-report", "Ferrara"]]
)
def test_ss_column_with_publications_exits_1_on_every_verb(verb, staff, tmp_path, capsys):
    out = ["--out", str(tmp_path / "out")] if verb == ["assess"] else []
    argv = [*verb, "--staff", staff, "--publications", str(tmp_path / "pubs.csv"), *out]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "data error: staff file has an ss column, so no publications or medians file is read\n"
    )
    assert not (tmp_path / "out").exists()


# A verb takes only the flags it acts on: validate applies no eligibility
# rule, only assess writes files, and no verb takes --threshold-quadrant,
# since the threshold is set in the config file as {"quadrant_threshold": X}.
@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--no-filter"],
        ["validate", "--threshold-quadrant", "0.3"],
        ["institution-report", "Ferrara", "--threshold-quadrant", "0.3"],
        ["assess", "--threshold-quadrant", "0.3"],
        ["sds-report", "CHIM/08", "--threshold-quadrant", "0.3"],
        ["sds-report", "CHIM/08", "--out", "out"],
        ["sds-report", "CHIM/08", "--format", "json"],
        ["institution-report", "Ferrara", "--out", "out"],
    ],
)
def test_a_flag_the_verb_ignores_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main([*argv, "--staff", STAFF])
    assert err.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


class TestAssess:
    def test_writes_report(self, staff, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["assess", "--staff", staff, "--out", str(out), "--format", "json,csv,svg"]
        )
        assert code == 0
        assert "CHIM/08" in _read_report(out)["sds"]
        assert (out / "scores_CHIM_08.csv").exists()
        assert (out / "matrix_CHIM_08.svg").exists()
        assert "CHIM/08: 28 universities, included" in capsys.readouterr().out

    def test_deterministic_across_runs(self, staff, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["assess", "--staff", staff, "--out", str(a)])
        main(["assess", "--staff", staff, "--out", str(b)])
        _read_report(a)
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    def test_no_filter_flag(self, lab_args, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["assess", *lab_args, "--no-filter", "--out", str(out)])
        assert code == 0
        payload = _read_report(out)
        assert "TEST/01" in payload["sds"]

    def test_filtered_sds_reported_excluded(self, lab_args, tmp_path, capsys):
        code = main(["assess", *lab_args, "--out", str(tmp_path / "out")])
        assert code == 0
        assert _read_report(tmp_path / "out")["sds"] == {}
        assert "excluded (robustness)" in capsys.readouterr().out

    def test_quadrant_threshold_from_the_config_file(self, staff, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"quadrant_threshold": 0}')
        out = tmp_path / "out"
        assert main(["assess", "--staff", staff, "--config", str(cfg), "--out", str(out)]) == 0
        payload = _read_report(out)
        assert payload["sds"]["CHIM/08"]["quadrants"]["both_high"] == 28

    @pytest.mark.parametrize("verb", ["assess", "validate"])
    def test_bad_config_is_named_before_a_bad_input_path(self, tmp_path, capsys, verb):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"quadrant_threshold": "high"}')
        staff = tmp_path / "staff.csv"
        staff.write_text("dmu_id,sds_id,fp_years,ap_years,rf_years\nU,S,1,0,0\n")
        missing = str(tmp_path / "missing.csv")
        args = ["--staff", str(staff), "--publications", missing, "--medians", missing]
        out = ["--out", str(tmp_path / "out")] if verb == "assess" else []
        assert main([verb, *args, "--config", str(cfg), *out]) == 1
        assert capsys.readouterr().err.startswith("data error: cfg.json: ")

    def test_config_env_var_is_not_read(self, staff, tmp_path):
        # BIBDEA_CONFIG used to name a config file when --config was absent
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        env = {k: v for k, v in os.environ.items() if k != "BIBDEA_CONFIG"}
        runs = []
        for name, extra in (("plain", {}), ("env", {"BIBDEA_CONFIG": str(bad)})):
            out = tmp_path / name
            argv = ["assess", "--staff", staff, "--format", "json,csv,svg", "--out", str(out)]
            result = subprocess.run(
                [sys.executable, "-m", "bibdea.cli", *argv],
                capture_output=True,
                env={**env, **extra},
                cwd=tmp_path,
            )
            assert result.returncode == 0, result.stderr
            _read_report(out)
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            runs.append((result.stdout.replace(bytes(out), b"OUT"), result.stderr, files))
        assert runs[0] == runs[1]

    def test_config_flag_beats_env(self, staff, tmp_path, monkeypatch):
        env_cfg = tmp_path / "env.json"
        env_cfg.write_text('{"quadrant_threshold": 0.25}')
        flag_cfg = tmp_path / "flag.json"
        flag_cfg.write_text('{"quadrant_threshold": 0.75}')
        monkeypatch.setenv("BIBDEA_CONFIG", str(env_cfg))
        out = tmp_path / "out"
        main(["assess", "--staff", staff, "--config", str(flag_cfg), "--out", str(out)])
        payload = _read_report(out)
        assert payload["quadrant_threshold"] == 0.75

    @staticmethod
    def _assess_staff(tmp_path, rows, no_filter=True):
        staff = tmp_path / "staff.csv"
        staff.write_text(
            "dmu_id,sds_id,fp_years,ap_years,rf_years,ss\n" + "".join(f"{r}\n" for r in rows)
        )
        out = tmp_path / "out"
        flags = ["--no-filter"] if no_filter else []
        code = main(["assess", "--staff", str(staff), *flags, "--out", str(out)])
        if code == 0:
            _read_report(out)
        return code, out

    def test_staff_years_near_the_float_minimum_score_as_the_lp(self, tmp_path, capsys):
        # U1's input per unit of output, scaled by U2's, lies past the float range
        code, out = self._assess_staff(tmp_path, ["U1,S/01,0,1,1,1", "U2,S/01,0,1e-308,1,2"])
        assert code == 0
        rows = _read_report(out)["sds"]["S/01"]["rows"]
        assert {r["dmu_id"]: r["te"] for r in rows} == {"U1": 0.5, "U2": 1.0}

    def test_output_per_staff_year_past_the_float_range_is_a_data_error(self, tmp_path, capsys):
        # U1's SS of 1 over 1e-310 staff-years would be written as inf
        rows = ["U1,S1,1e-310,0,0,1", "U2,S1,1,2,3,4", "U3,S1,2,1,3,5"]
        code, out = self._assess_staff(tmp_path, rows)
        assert code == 1
        assert capsys.readouterr().err == (
            "data error: S1/U1: output per staff-year overflows a float\n"
        )
        assert not out.exists()

    def test_output_per_staff_year_of_an_excluded_sds_is_not_checked(self, tmp_path, capsys):
        rows = ["U1,S1,1e-310,0,0,1", "U2,S1,1,2,3,4", "U3,S1,2,1,3,5"]
        code, out = self._assess_staff(tmp_path, rows, no_filter=False)
        assert code == 0
        assert "S1: 3 universities, excluded (robustness)" in capsys.readouterr().out
        assert _read_report(out)["sds"] == {}

    def test_input_per_output_underflow_is_a_data_error(self, tmp_path, capsys):
        code, _ = self._assess_staff(tmp_path, ["U1,S/01,0,1,1,1", "U2,S/01,0,5e-324,5e-324,2"])
        assert code == 1
        err = capsys.readouterr().err
        assert "data error: S/01/U2: staff-years per unit of output underflow to zero" in err

    def test_no_output_cell_reads_negative_zero(self, tmp_path, capsys):
        code, out = self._assess_staff(tmp_path, ["U1,S/01,1,-0,0,-0", "U2,S/01,1,1,0,2"])
        assert code == 0
        with open(out / "scores_S_01.csv", newline="", encoding="utf-8") as fh:
            cells = [cell for row in csv.reader(fh) for cell in row]
        assert "-0.000" not in cells and "0.000" in cells
        floats = []
        _read_report(out, parse_float=floats.append)
        assert "0.0" in floats and "-0.0" not in floats

    def test_ce_above_te_exits_2_naming_the_unit(self, staff, tmp_path, monkeypatch, capsys):
        # A fault injected into DEA: the frontier units' te halved, so that
        # ce exceeds te at a frontier unit.
        technical = dea._technical

        def halved(z, front):
            te, ratio, facets = technical(z, front)
            return np.where(te == 1.0, 0.5 * te, te), ratio, facets

        monkeypatch.setattr(dea, "_technical", halved)
        assert main(["assess", "--staff", staff, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "solver error: CHIM/08/Bologna: cost efficiency 0.9451843991285219 "
            "exceeds technical efficiency 0.5\n"
        )
        assert not (tmp_path / "out").exists()

    def test_output_too_small_for_its_inputs_scores_zero(self, tmp_path, capsys):
        # U0's staff-years and staff cost per unit of output pass the float
        # range, so it scores as a zero-output unit in te and in ce alike
        code, out = self._assess_staff(tmp_path, ["U0,S/01,1,3,1,1e-308", "U1,S/01,0,1e305,3,1"])
        assert code == 0
        rows = _read_report(out)["sds"]["S/01"]["rows"]
        scores = {r["dmu_id"]: (r["te"], r["ae"], r["ce"]) for r in rows}
        assert scores == {"U0": (0.0, 0.0, 0.0), "U1": (1.0, 1.0, 1.0)}

    def test_scaled_input_per_output_underflow_is_a_data_error(self, tmp_path, capsys):
        # U1's x / y is not zero, but it is once divided by the largest
        # x / y of the Pareto-minimal units, which span over 600 decades
        rows = ["U0,S,0,1e30,1e-300,2", "U1,S,1e-308,1e-300,0,2", "U2,S,1e300,1e-30,0,0"]
        code, _ = self._assess_staff(tmp_path, [*rows, "U3,S,1e30,0,1e300,1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "data error: S/U1: staff-years per unit of output underflow to zero" in err

    @pytest.mark.parametrize(
        "rows",
        [
            ["U0,S/01,0,1e-308,5e-324,1e-308", "U1,S/01,1,1e30,1e305,2"],
            [
                "U0,S/01,1e-300,3,1e300,1e300",
                "U1,S/01,1e305,0,1e300,1e308",
                "U2,S/01,1e305,1e300,5e-324,1",
            ],
        ],
    )
    def test_near_limit_staff_years_warn_nothing(self, tmp_path, capsys, rows):
        # numpy warnings are errors under pytest; stderr is checked as well
        code, _ = self._assess_staff(tmp_path, rows)
        assert code == 0
        assert "Warning" not in capsys.readouterr().err

    def test_sds_ids_with_one_file_slug_are_a_data_error(self, tmp_path, capsys):
        # both ids would be written to scores_A_01.csv
        rows = [f"U{u},{sds},{u},1,1,1" for sds in ("A/01", "A-01") for u in (1, 2)]
        code, out = self._assess_staff(tmp_path, rows)
        assert code == 1
        captured = capsys.readouterr()
        assert "data error: SDS ids 'A-01' and 'A/01' share the output file name slug" in (
            captured.err
        )
        assert captured.out == ""
        assert not out.exists()

    def test_empty_format_list_is_a_data_error(self, staff, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["assess", "--staff", staff, "--out", str(out), "--format", ","]) == 1
        captured = capsys.readouterr()
        assert captured.err == "data error: no output formats; available: ['json', 'csv', 'svg']\n"
        assert captured.out == ""
        assert not out.exists()

    def test_unknown_format_is_a_data_error_before_any_input(self, lab_args, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["assess", *lab_args, "--out", str(out), "--format", "pdf"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "data error: unknown output formats ['pdf']; available: ['json', 'csv', 'svg']\n"
        )
        assert captured.out == ""
        assert not out.exists()

    def test_overflowing_institution_cost_is_a_data_error(self, tmp_path, capsys):
        # each SDS row's staff cost is finite; their sum over 20 SDSs is not
        rows = [f"U{u},S/{s:02d},{1e305 if u == 1 else 1},1,1,1" for s in range(20) for u in (1, 2)]
        code, out = self._assess_staff(tmp_path, rows)
        assert code == 1
        err = capsys.readouterr().err
        assert "data error: institution 'U1': staff cost summed over its SDSs overflows" in err
        assert not (out / "report.json").exists()


# The SDS's rows, in the widths that each cell fits, then its quadrant
# counts and its histograms.
CHIM_08_REPORT = """\
dmu_id                             ss      fp      ap      rf        te        ae        ce       te%       ae%       ce%
Bari                           43.205    42.0    67.0    62.0     0.288     0.928     0.267    14.815    66.667    22.222
Bologna                       151.659    47.0    65.0    53.0     1.000     0.945     0.945    90.741    74.074    92.593
Cagliari                       16.012    10.0    15.0    22.0     0.396     0.951     0.377    37.037    85.185    40.741
Calabria                        4.180    10.0     5.0     4.0     0.303     0.663     0.201    18.519    14.815    14.815
Camerino                       23.703    40.0    27.0    11.0     0.502     0.546     0.274    55.556     3.704    25.926
Catania                        16.047    22.0    50.0    25.0     0.225     0.759     0.171     7.407    29.630    11.111
Ferrara                        64.026    25.0    18.0    20.0     1.000     1.000     1.000    90.741   100.000   100.000
Firenze                        46.893    34.0    50.0    45.0     0.404     0.941     0.380    40.741    70.370    44.444
Gabriele D'Annunzio             6.323    13.0     5.0    27.0     0.325     0.482     0.157    25.926     0.000     0.000
Genova                         16.147    30.0    42.0    22.0     0.217     0.786     0.170     3.704    40.741     7.407
Messina                        41.627    24.0    30.0     8.0     1.000     0.631     0.631    90.741    11.111    70.370
Milano                         77.785    50.0    20.0    46.0     1.000     0.666     0.666    90.741    18.519    77.778
Modena e Reggio Emilia         23.199     9.0    35.0    23.0     0.553     0.689     0.381    59.259    22.222    48.148
Napoli "Federico II"           53.332    29.0    43.0    53.0     0.484     0.955     0.462    51.852    88.889    59.259
Padova                         62.036    40.0    45.0    22.0     0.729     0.766     0.558    62.963    33.333    66.667
Palermo                        19.871    40.0    40.0    48.0     0.164     0.979     0.160     0.000    96.296     3.704
Parma                          29.019    20.0    31.0    24.0     0.437     0.918     0.401    44.444    62.963    55.556
Pavia                          40.293    10.0    29.0    17.0     1.000     0.768     0.768    90.741    37.037    85.185
Perugia                        42.115    17.0    29.0    19.0     0.772     0.864     0.667    66.667    48.148    81.481
Piemonte Orientale Avogadro    24.970     5.0    10.0    15.0     1.000     0.948     0.948    90.741    77.778    96.296
Pisa                           38.584    32.0    39.0    35.0     0.389     0.957     0.373    33.333    92.593    37.037
Roma "La Sapienza"             80.585    22.0    69.0    41.0     0.882     0.744     0.656    70.370    25.926    74.074
Salerno                        11.998    10.0    15.0    17.0     0.322     0.951     0.307    22.222    81.481    33.333
Sassari                        18.698    19.0    25.0    43.0     0.266     0.897     0.239    11.111    55.556    18.519
Siena                          57.508    25.0    24.0    19.0     0.918     0.907     0.833    77.778    59.259    88.889
Torino                         27.728    20.0    40.0    39.0     0.341     0.893     0.304    29.630    51.852    29.630
Trieste                        21.015    13.0    27.0    17.0     0.465     0.829     0.385    48.148    44.444    51.852
Urbino "Carlo Bo"              22.055     5.0    21.0    23.0     0.883     0.591     0.522    74.074     7.407    62.963
quadrants @ 0.5: both-low 1, high-AE/low-TE 14, both-high 13, high-TE/low-AE 0
te median 0.474 bins [1, 10, 6, 2, 9]
ae median 0.878 bins [0, 0, 3, 9, 16]
ce median 0.383 bins [4, 11, 4, 5, 4]
"""


def _column_ends(lines: list[str], header: tuple[str, ...]) -> set[tuple[int, ...]]:
    """The offsets at which the columns after the first end, one tuple for
    each line of a printed table: ``header`` is its first line's cells, and
    in the other lines no cell after the first holds a blank."""
    ends = set()
    cells = [header, *(line.rsplit(maxsplit=len(header) - 1) for line in lines[1:])]
    for line, row in zip(lines, cells):
        at, offsets = 0, []
        for cell in row:
            at = line.index(cell, at) + len(cell)
            offsets.append(at)
        ends.add(tuple(offsets[1:]))
    return ends


class TestSdsReport:
    def test_prints_table(self, staff, capsys):
        assert main(["sds-report", "CHIM/08", "--staff", staff]) == 0
        assert capsys.readouterr().out == CHIM_08_REPORT

    def test_columns_widen_to_fit_their_widest_cell(self, tmp_path, capsys):
        # an SS of 123456789.000 and 12345678.5 staff-years are wider than
        # their columns' 9 and 7 characters
        staff = tmp_path / "staff.csv"
        staff.write_text(
            "dmu_id,sds_id,fp_years,ap_years,rf_years,ss\n"
            "U1,A/01,12345678.5,0,0,123456789\nU2,A/01,1,1,0,1.0\nU3,A/01,0,1,1,2.0\n"
        )
        assert main(["sds-report", "A/01", "--staff", str(staff), "--no-filter"]) == 0
        table = capsys.readouterr().out.splitlines()[:4]
        assert "123456789.000" in table[1] and "12345678.5" in table[1]
        header = ("dmu_id", "ss", "fp", "ap", "rf", "te", "ae", "ce", "te%", "ae%", "ce%")
        assert len(_column_ends(table, header)) == 1

    def test_unknown_sds_exits_1(self, staff, capsys):
        assert main(["sds-report", "NOPE/00", "--staff", staff]) == 1
        assert "data error" in capsys.readouterr().err

    def test_unit_alone_in_its_sds_has_blank_percentiles(self, tmp_path, capsys):
        staff = tmp_path / "staff.csv"
        staff.write_text(
            "dmu_id,sds_id,fp_years,ap_years,rf_years,ss\n"
            "U1,A/01,1,0,0,2.0\nU1,B/01,1,0,0,1.0\nU2,B/01,1,1,0,1.0\n"
        )
        assert main(["sds-report", "A/01", "--staff", str(staff), "--no-filter"]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        cells = "    2.000     1.0     0.0     0.0     1.000     1.000     1.000"
        assert row == f"{'U1':<12} {cells} {' ' * 9} {' ' * 9} {' ' * 9}"


class TestInstitutionReport:
    def test_prints_rows_and_aggregate(self, tmp_path, capsys):
        staff = tmp_path / "staff.csv"
        staff.write_text(
            "dmu_id,sds_id,fp_years,ap_years,rf_years,ss\n"
            "U1,A/01,0,5,0,2.0\nU2,A/01,1,0,0,1.0\n"
            "U1,B/01,1,0,0,1.0\nU2,B/01,0,0,5,1.0\n"
        )
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"min_active_universities": 1}')
        code = main(
            ["institution-report", "U1", "--staff", str(staff), "--config", str(cfg)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "A/01" in out and "B/01" in out and "total/average" in out

    def test_columns_line_up_with_long_sds_ids_and_the_total(self, tmp_path, capsys):
        staff = tmp_path / "staff.csv"
        staff.write_text(
            "dmu_id,sds_id,fp_years,ap_years,rf_years,ss\n"
            "U1,A/01,0,5,0,2.0\nU2,A/01,1,0,0,1.0\n"
            "U1,LONG-SDS-ID/0001,1,0,0,1.0\nU2,LONG-SDS-ID/0001,0,0,5,1.0\n"
        )
        assert main(["institution-report", "U1", "--staff", str(staff), "--no-filter"]) == 0
        table = capsys.readouterr().out.splitlines()
        names = [line.split()[0] for line in table[1:]]
        assert names == ["A/01", "LONG-SDS-ID/0001", "total/average"]
        header = ("sds_id", "cost k€", "te", "te%", "ae", "ae%", "ce", "ce%")
        assert len(_column_ends(table, header)) == 1

    def test_unknown_institution_exits_1(self, staff, capsys):
        assert main(["institution-report", "Nowhere", "--staff", staff]) == 1

    def test_no_filter_flag(self, tmp_path, capsys):
        # both SDSs have too few universities for the default filter
        staff = tmp_path / "staff.csv"
        staff.write_text(
            "dmu_id,sds_id,fp_years,ap_years,rf_years,ss\n"
            "U1,A/01,0,5,0,2.0\nU2,A/01,1,0,0,1.0\nU1,B/01,1,0,0,1.0\n"
        )
        assert main(["institution-report", "U1", "--staff", str(staff)]) == 1
        assert "no assessed institution 'U1'" in capsys.readouterr().err
        assert main(["institution-report", "U1", "--staff", str(staff), "--no-filter"]) == 0
        assert "A/01" in capsys.readouterr().out


def test_console_script_end_to_end(fixtures_dir, tmp_path):
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "bibdea.cli",
            "validate",
            "--staff",
            str(fixtures_dir / "pharm_chem_staff.csv"),
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "28 universities" in result.stdout


def test_deterministic_across_processes(fixtures_dir, tmp_path):
    # hash randomization must not leak into any emitted byte
    import os

    outputs = []
    for seed, name in (("1", "a"), ("42", "b")):
        out = tmp_path / name
        env = dict(os.environ, PYTHONHASHSEED=seed)
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "bibdea.cli",
                "assess",
                "--staff",
                str(fixtures_dir / "pharm_chem_staff.csv"),
                "--out",
                str(out),
                "--format",
                "json,csv,svg",
            ],
            capture_output=True,
            env=env,
        )
        assert result.returncode == 0
        _read_report(out)
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="OPENBLAS_CORETYPE names x86-64 kernels",
)
def test_report_is_the_same_under_any_blas_kernel(fixtures_dir, tmp_path):
    # Prescott's kernels round a matrix product differently from the newer
    # ones; no score may depend on which kernel OpenBLAS picks
    reports = []
    for coretype in (None, "Prescott"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        out = tmp_path / (coretype or "default")
        staff = str(fixtures_dir / "pharm_chem_staff.csv")
        args = ["assess", "--staff", staff, "--out", str(out), "--format", "json"]
        result = subprocess.run(
            [sys.executable, "-m", "bibdea.cli", *args], capture_output=True, env=env
        )
        assert result.returncode == 0, result.stderr
        _read_report(out)
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "row, config, location",
    [
        ("U1,S,nan,1,0,1.0", None, "staff.csv line 2"),
        ("U1,S,1,1,0,inf", None, "staff.csv line 2"),
        ("U1,S,1,1,0,1.0", '{"costs": {"fp": NaN}}', "cfg.json"),
        ("U1,S,1,1,0,1.0", '{"costs": {"fp": "x"}}', "cfg.json"),
        # no longer a setting, so an unknown key whatever its value
        ("U1,S,1,1,0,1.0", '{"reporting_precision": 2.5}', "cfg.json"),
        ("U1,S,1,1,0,1.0", '{"reporting_precision": true}', "cfg.json"),
        ("U1,S,1,1,0,1.0", '{"census_date": "2009-06-30"}', "cfg.json: unknown config keys"),
    ],
)
def test_malformed_numbers_exit_1_naming_the_location(tmp_path, row, config, location):
    import os

    staff = tmp_path / "staff.csv"
    staff.write_text("dmu_id,sds_id,fp_years,ap_years,rf_years,ss\n" + row + "\n")
    args = ["assess", "--staff", str(staff), "--out", str(tmp_path / "out")]
    if config:
        (tmp_path / "cfg.json").write_text(config)
        args += ["--config", str(tmp_path / "cfg.json")]
    result = subprocess.run(
        [sys.executable, "-m", "bibdea.cli", *args], capture_output=True, text=True
    )
    assert result.returncode == 1, result.stderr
    assert location in result.stderr
    assert "Traceback" not in result.stderr


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency; importing it would slow every run
    code = "import sys, bibdea.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


# --- malformed input, by property ---

_CSV_BASE = {
    "staff.csv": [
        ["dmu_id", "sds_id", "fp_years", "ap_years", "rf_years", "ss"],
        ["UnivA", "TEST/01", "1", "0", "0.5", "3.2"],
        ["UnivB", "TEST/01", "0", "1", "0", "0.5"],
    ],
    "pubs.csv": [
        ["pub_id", "dmu_id", "sds_id", "year", "citations", "categories",
         "total_authors", "dmu_positions", "life_science"],
        ["p1", "UnivA", "TEST/01", "2005", "10", "CatA", "1", "1", "0"],
        ["p2", "UnivA", "TEST/01", "2005", "8", "CatA", "6", "1;6", "1"],
        ["p3", "UnivB", "TEST/01", "2005", "6", "CatA;CatB", "4", "1;2", "0"],
    ],
    "medians.csv": [
        ["year", "category", "median", "mean"],
        ["2005", "CatA", "5", "6.5"],
        ["2005", "CatB", "7", "8"],
    ],
}
_REQUIRED = {
    "staff.csv": {"dmu_id", "sds_id", "fp_years", "ap_years", "rf_years"},
    "pubs.csv": set(_CSV_BASE["pubs.csv"][0]),
    "medians.csv": {"year", "category", "median"},
}
_HUGE_INT = "1" + "0" * 400
# Stands for a cell one character over the csv module's field limit; it is
# expanded only when the file is written, to keep failure reports short.
_OVERSIZED = "<oversized>"
_BAD_FLOAT = ["abc", "nan", "inf", "-inf", "-1", "1e400"]
_BAD_INT = ["abc", "nan", "inf", "-1", "1.5", "1e400", _HUGE_INT]
_BAD_YEAR = ["", "abc", "nan", "inf", "1.5", "1e400"]
# Cells by column, each with the values that its format rules out. A
# publication's year and unit are keys: a negative or huge year, or an
# unknown unit, is reported with the publications file and line that hold
# it. A median's negative or huge year is a valid key the publications
# never use, so only unparsable ones are drawn there. An empty
# dmu_positions or mean cell is valid.
_BAD_CELLS = {
    ("staff.csv", "fp_years"): [""] + _BAD_FLOAT,
    ("staff.csv", "ap_years"): [""] + _BAD_FLOAT,
    ("staff.csv", "rf_years"): [""] + _BAD_FLOAT,
    ("staff.csv", "ss"): [""] + _BAD_FLOAT,
    ("staff.csv", "dmu_id"): [""],
    ("staff.csv", "sds_id"): [""],
    ("pubs.csv", "dmu_id"): ["", "Ghost"],
    ("pubs.csv", "sds_id"): ["", "TEST/99"],
    ("pubs.csv", "year"): _BAD_YEAR + ["-1", "-2005", "99999", _HUGE_INT],
    ("pubs.csv", "citations"): [""] + _BAD_INT,
    ("pubs.csv", "categories"): ["", ";"],
    ("pubs.csv", "total_authors"): ["", "0"] + _BAD_INT,
    ("pubs.csv", "dmu_positions"): ["0", "1;1"] + _BAD_INT,
    ("pubs.csv", "life_science"): ["", "2", "true"] + _BAD_INT,
    ("medians.csv", "year"): _BAD_YEAR,
    ("medians.csv", "median"): [""] + _BAD_FLOAT,
    ("medians.csv", "mean"): _BAD_FLOAT,
}
_WRONG_TYPE = ["true", "false", "null", '"0.5"', "[0.5]", "{}"]
_BAD_CONFIG = {
    "fp": _WRONG_TYPE + ["NaN", "Infinity", "-1", "0", "1e400"],
    "ap": _WRONG_TYPE + ["NaN", "-Infinity", "-0.5", "1e400"],
    "rf": _WRONG_TYPE + ["NaN", "Infinity", "-1", "1e400"],
    "quadrant_threshold": _WRONG_TYPE + ["NaN", "Infinity", "-0.1", "1.5", "1e400"],
    "min_fraction_publishing": _WRONG_TYPE + ["NaN", "-0.1", "2", "1e400"],
    # a huge min_active_universities is a valid threshold that nothing meets
    "min_active_universities": _WRONG_TYPE + ["2.5", "-1", "1e400"],
    # no longer settings: any value, even a once valid one, is an unknown key
    "reporting_precision": _WRONG_TYPE + ["3", "2.5", "0", "-3", "18", "1e400", _HUGE_INT],
    "census_date": ['"2009-06-30"', "1", "true", "null", "[]", "{}"],
}
_CONFIG_BASE = {
    "fp": "111.7",
    "ap": "79.7",
    "rf": "56.65",
    "quadrant_threshold": "0.5",
    "min_fraction_publishing": "0.5",
    "min_active_universities": "24",
}


def _config_text(values: dict) -> str:
    costs = ", ".join(f'"{k}": {values[k]}' for k in ("fp", "ap", "rf"))
    rest = ", ".join(f'"{k}": {v}' for k, v in values.items() if k not in ("fp", "ap", "rf"))
    return f'{{"costs": {{{costs}}}, {rest}}}\n'


@st.composite
def _malformed_inputs(draw):
    """A valid input set with one fault, and the name of the faulty file."""
    tables = {name: [list(row) for row in rows] for name, rows in _CSV_BASE.items()}
    config = dict(_CONFIG_BASE)
    names = sorted(tables) + ["cfg.json"]
    target = draw(st.sampled_from(names))
    # A passthrough input set is the staff file (with its ss column) and the
    # config alone, so a publications or medians fault is drawn in computed mode.
    if target in ("pubs.csv", "medians.csv") or draw(st.booleans()):
        tables["staff.csv"] = [row[:-1] for row in tables["staff.csv"]]
    else:
        del tables["pubs.csv"], tables["medians.csv"]
    kinds = ["undecodable"] + (
        ["value", "truncated"] if target == "cfg.json"
        else ["value", "missing column", "truncated row", "oversized cell"]
    )
    kind = draw(st.sampled_from(kinds))
    if target == "cfg.json" and kind == "value":
        key = draw(st.sampled_from(sorted(_BAD_CONFIG)))
        config[key] = draw(st.sampled_from(_BAD_CONFIG[key]))
    elif target != "cfg.json":
        rows = tables[target]
        header = rows[0]
        if kind == "value":
            columns = [c for c in header if (target, c) in _BAD_CELLS]
            column = draw(st.sampled_from(columns))
            row = draw(st.integers(1, len(rows) - 1))
            rows[row][header.index(column)] = draw(st.sampled_from(_BAD_CELLS[target, column]))
        elif kind == "missing column":
            index = header.index(draw(st.sampled_from(sorted(_REQUIRED[target] & set(header)))))
            for row in rows:
                del row[index]
        elif kind == "truncated row":
            row = draw(st.integers(1, len(rows) - 1))
            rows[row] = rows[row][: draw(st.integers(1, len(header) - 1))]
        elif kind == "oversized cell":
            row = draw(st.integers(1, len(rows) - 1))
            rows[row][draw(st.integers(0, len(header) - 1))] = _OVERSIZED
    files = {name: "".join(",".join(row) + "\n" for row in rows).encode()
             for name, rows in tables.items()}
    files["cfg.json"] = _config_text(config).encode()
    if kind == "undecodable":
        data = files[target]
        at = draw(st.integers(0, len(data)))
        bad = draw(st.sampled_from([b"\xff", b"\xc3(", b"\x80abc"]))
        files[target] = data[:at] + bad + data[at:]
    elif kind == "truncated":
        files[target] = files[target][: draw(st.integers(0, len(files[target]) - 2))]
    return files, target


@settings(max_examples=150, deadline=None)
@given(_malformed_inputs())
def test_malformed_input_exits_1_naming_the_file(case):
    files, target = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, data in files.items():
            paths[name] = os.path.join(tmp, name)
            with open(paths[name], "wb") as fh:
                fh.write(data.replace(_OVERSIZED.encode(), b"7" * 131073))
        argv = ["validate", "--staff", paths["staff.csv"], "--config", paths["cfg.json"]]
        for flag, name in (("--publications", "pubs.csv"), ("--medians", "medians.csv")):
            if name in paths:
                argv += [flag, paths[name]]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    message = err.getvalue()
    assert code == 1, message
    assert target in message
    assert "Traceback" not in message


@pytest.fixture(scope="module")
def bench():
    """``bench/gen.py`` and ``bench/oracle.py``, imported as ``bench/run.py``
    imports them. The oracle shares no code with bibdea and needs scipy."""
    pytest.importorskip("scipy")
    path = str(Path(__file__).resolve().parent.parent / "bench")
    sys.path.insert(0, path)
    try:
        import gen
        import oracle
    finally:
        sys.path.remove(path)
    return gen, oracle


_SMALL_CENSUS = {
    "census_passthrough": {"n_sds": 5},
    "census_computed": {"n_sds": 5, "n_pubs": 5000},
}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", sorted(_SMALL_CENSUS))
def test_whole_report_agrees_with_the_bench_oracle(bench, tmp_path, workload, seed):
    gen, oracle = bench
    rng = random.Random(f"{workload}:{seed}")
    files, _ = getattr(gen, workload)(rng, tmp_path, **_SMALL_CENSUS[workload])
    argv = ["assess", "--format", "json,csv", "--out", str(tmp_path / "out")]
    for role, path in files.items():
        argv += [f"--{role}", str(path)]
    assert main(argv) == 0
    _read_report(tmp_path / "out")
    expected = oracle.expected(files)
    mismatched, problems, report = oracle.check(tmp_path / "out", expected)
    assert (mismatched, problems) == (0, [])
    assert all(oracle.self_test(report, expected).values())


def test_census_report_is_invariant_under_unit_and_cost_scaling(bench, tmp_path):
    # ROADMAP item 5: a unit's staff-years and SS scaled by one factor leave
    # its scores alike, and staff costs scaled by a power of two leave them
    # the same floats.
    gen, _ = bench
    files, _ = gen.census_passthrough(random.Random("big:1"), tmp_path, n_sds=60)
    dataset = ingest(files["staff"])
    factor = np.resize([0.3, 0.7, 3, 1 / 3, 10, 1.1], len(dataset.units))
    scaled = AssessmentDataset(dataset.units, dataset.years * factor[:, None], dataset.ss * factor)

    def classes(report):
        return (
            report.eligibility,
            {
                sds_id: (
                    [(r.te_pct, r.ae_pct, r.ce_pct) for r in result.rows],
                    [h.counts for h in result.histograms.values()],
                    result.quadrants,
                )
                for sds_id, result in report.sds_results.items()
            },
        )

    def scores(report):
        rows = [r for result in report.sds_results.values() for r in result.rows]
        aggregates = [inst.aggregate for inst in report.institutions]
        return [(r.te.hex(), r.ae.hex(), r.ce.hex()) for r in rows + aggregates]

    report = run_assessment(dataset, apply_filter=False)
    assert len(report.sds_results) == 60
    # dea._scores checks none of its scores: each lies in [0, 1], ce is
    # te * ae exactly, te = 0 gives ae = ce = 0, and no score is -0.0
    for row in (r for result in report.sds_results.values() for r in result.rows):
        te, ae, ce = row.te, row.ae, row.ce
        assert all(0.0 <= s <= 1.0 and math.copysign(1.0, s) == 1.0 for s in (te, ae, ce))
        assert ce == te * ae and (te > 0 or ae == ce == 0)
    assert classes(run_assessment(scaled, apply_filter=False)) == classes(report)
    for scale in (2, 0.5):
        costs = CostVector(*(scale * c for c in dataclasses.astuple(DEFAULT_COSTS)))
        config = AssessmentConfig(costs=costs)
        assert scores(run_assessment(dataset, config, apply_filter=False)) == scores(report)


def test_census_report_json_is_the_stdlib_encoding(bench, tmp_path):
    # the census of the scaling test, 60 SDSs of 24-100 units, byte for byte
    gen, _ = bench
    files, _ = gen.census_passthrough(random.Random("big:1"), tmp_path, n_sds=60)
    report = run_assessment(ingest(files["staff"]), apply_filter=False)
    (path,) = emit(report, ["json"], tmp_path / "out")
    assert path.read_bytes() == reference_report_json(report).encode()


def test_every_te_of_a_national_census_is_certified_by_lp_duality(bench, tmp_path):
    # 300 SDSs of 24-100 units, 18,469 in all: one HiGHS LP per unit would
    # take over a minute
    gen, _ = bench
    files, _ = gen.census_passthrough(random.Random("big:1"), tmp_path, n_sds=300)
    dataset = ingest(files["staff"])
    prices = np.array(dataclasses.astuple(DEFAULT_COSTS))
    sds = np.array([s for _, s in dataset.units])
    starts = np.flatnonzero(np.r_[True, sds[1:] != sds[:-1]])
    assert len(starts) == 300
    for lo, hi in zip(starts, np.r_[starts[1:], len(sds)]):
        x, y = dataset.years[lo:hi], dataset.ss[lo:hi]
        certify_te_by_duality(x, y, x @ prices)
