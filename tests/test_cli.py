import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    "reporting_precision": _WRONG_TYPE + ["2.5", "0", "-3", "18", "1e400", _HUGE_INT],
    "census_date": ["1", "true", "null", "[]", "{}"],
}
_CONFIG_BASE = {
    "fp": "111.7",
    "ap": "79.7",
    "rf": "56.65",
    "quadrant_threshold": "0.5",
    "min_fraction_publishing": "0.5",
    "min_active_universities": "24",
    "reporting_precision": "3",
    "census_date": '"2009-06-30"',
}


def _config_text(values: dict) -> str:
    costs = ", ".join(f'"{k}": {values[k]}' for k in ("fp", "ap", "rf"))
    rest = ", ".join(f'"{k}": {v}' for k, v in values.items() if k not in ("fp", "ap", "rf"))
    return f'{{"costs": {{{costs}}}, {rest}}}\n'


@st.composite
def _malformed_inputs(draw):
    """A valid input set with one fault, and the name of the faulty file."""
    tables = {name: [list(row) for row in rows] for name, rows in _CSV_BASE.items()}
    if draw(st.booleans()):  # computed mode: no ss column
        tables["staff.csv"] = [row[:-1] for row in tables["staff.csv"]]
    config = dict(_CONFIG_BASE)
    names = sorted(tables) + ["cfg.json"]
    target = draw(st.sampled_from(names))
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
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(
                [
                    "validate",
                    "--staff", paths["staff.csv"],
                    "--publications", paths["pubs.csv"],
                    "--medians", paths["medians.csv"],
                    "--config", paths["cfg.json"],
                ]
            )
    message = err.getvalue()
    assert code == 1, message
    assert target in message
    assert "Traceback" not in message
