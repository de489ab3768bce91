import json
import subprocess
import sys

import pytest

from bibdea.cli import main
from bibdea.io import CONFIG_ENV_VAR

STAFF = "tests/fixtures/pharm_chem_staff.csv"


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

    def test_zero_median_without_means_is_a_located_data_error(
        self, lab_args, tmp_path, capsys
    ):
        medians = tmp_path / "medians.csv"
        medians.write_text("year,category,median\n2005,CatA,0\n2005,CatB,0\n")
        lab_args[lab_args.index("--medians") + 1] = str(medians)
        assert main(["validate", *lab_args]) == 1
        assert "lab_pubs.csv line 2: zero median divisor" in capsys.readouterr().err

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


class TestAssess:
    def test_writes_report(self, staff, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["assess", "--staff", staff, "--out", str(out), "--format", "json,csv,svg"]
        )
        assert code == 0
        assert (out / "report.json").exists()
        assert (out / "scores_CHIM_08.csv").exists()
        assert (out / "matrix_CHIM_08.svg").exists()
        assert "CHIM/08: 28 universities, included" in capsys.readouterr().out

    def test_deterministic_across_runs(self, staff, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["assess", "--staff", staff, "--out", str(a)])
        main(["assess", "--staff", staff, "--out", str(b)])
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    def test_no_filter_flag(self, lab_args, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["assess", *lab_args, "--no-filter", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
        assert "TEST/01" in payload["sds"]

    def test_filtered_sds_reported_excluded(self, lab_args, tmp_path, capsys):
        code = main(["assess", *lab_args, "--out", str(tmp_path / "out")])
        assert code == 0
        assert "excluded (robustness)" in capsys.readouterr().out

    def test_quadrant_threshold_flag(self, staff, tmp_path):
        out = tmp_path / "out"
        main(["assess", "--staff", staff, "--out", str(out), "--threshold-quadrant", "0"])
        payload = json.loads((out / "report.json").read_text())
        assert payload["sds"]["CHIM/08"]["quadrants"]["both_high"] == 28

    def test_config_via_env(self, staff, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"census_date": "from-env"}')
        monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
        out = tmp_path / "out"
        main(["assess", "--staff", staff, "--out", str(out)])
        payload = json.loads((out / "report.json").read_text())
        assert payload["census_date"] == "from-env"

    def test_config_flag_beats_env(self, staff, tmp_path, monkeypatch):
        env_cfg = tmp_path / "env.json"
        env_cfg.write_text('{"census_date": "from-env"}')
        flag_cfg = tmp_path / "flag.json"
        flag_cfg.write_text('{"census_date": "from-flag"}')
        monkeypatch.setenv(CONFIG_ENV_VAR, str(env_cfg))
        out = tmp_path / "out"
        main(["assess", "--staff", staff, "--config", str(flag_cfg), "--out", str(out)])
        payload = json.loads((out / "report.json").read_text())
        assert payload["census_date"] == "from-flag"


class TestSdsReport:
    def test_prints_table(self, staff, capsys):
        assert main(["sds-report", "CHIM/08", "--staff", staff]) == 0
        out = capsys.readouterr().out
        assert "Ferrara" in out
        assert "quadrants @ 0.5" in out

    def test_unknown_sds_exits_1(self, staff, capsys):
        assert main(["sds-report", "NOPE/00", "--staff", staff]) == 1
        assert "data error" in capsys.readouterr().err

    def test_out_emits_only_that_sds(self, tmp_path, capsys):
        staff = tmp_path / "staff.csv"
        staff.write_text(
            "dmu_id,sds_id,fp_years,ap_years,rf_years,ss\n"
            "U1,A/01,1,0,0,2.0\nU2,A/01,2,0,0,1.0\n"
            "U1,B/01,1,0,0,1.0\nU2,B/01,1,1,0,1.0\n"
        )
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"min_active_universities": 1}')
        out = tmp_path / "out"
        code = main(
            [
                "sds-report",
                "A/01",
                "--staff",
                str(staff),
                "--config",
                str(cfg),
                "--out",
                str(out),
                "--format",
                "json,csv",
            ]
        )
        assert code == 0
        assert (out / "scores_A_01.csv").exists()
        assert not (out / "scores_B_01.csv").exists()
        payload = json.loads((out / "report.json").read_text())
        assert list(payload["sds"]) == ["A/01"]


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

    def test_unknown_institution_exits_1(self, staff, capsys):
        assert main(["institution-report", "Nowhere", "--staff", staff]) == 1


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
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "row, config, location",
    [
        ("U1,S,nan,1,0,1.0", None, "staff.csv line 2"),
        ("U1,S,1,1,0,inf", None, "staff.csv line 2"),
        ("U1,S,1,1,0,1.0", '{"costs": {"fp": NaN}}', "cfg.json"),
        ("U1,S,1,1,0,1.0", '{"costs": {"fp": "x"}}', "cfg.json"),
        ("U1,S,1,1,0,1.0", '{"reporting_precision": 2.5}', "cfg.json"),
        ("U1,S,1,1,0,1.0", '{"reporting_precision": true}', "cfg.json"),
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
    env = {k: v for k, v in os.environ.items() if k != CONFIG_ENV_VAR}
    result = subprocess.run(
        [sys.executable, "-m", "bibdea.cli", *args], capture_output=True, text=True, env=env
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
