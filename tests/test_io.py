import csv
import dataclasses
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibdea import (
    AssessmentConfig,
    AssessmentDataset,
    CostVector,
    DataError,
    DmuInput,
    EfficiencyScores,
    MedianTable,
    PublicationRecord,
    build_median_table,
    efficiency_matrix,
    emit,
    ingest,
    load_config,
    run_assessment,
    scientific_strength,
)
from bibdea.analytics import TIE_TOL
from bibdea.io import CONFIG_ENV_VAR

from benchmarks import PHARM_CHEM
from oracles import reference_ingest_ss, reference_report_json


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


STAFF_HEADER = ["dmu_id", "sds_id", "fp_years", "ap_years", "rf_years"]
PUB_HEADER = [
    "pub_id",
    "dmu_id",
    "sds_id",
    "year",
    "citations",
    "categories",
    "total_authors",
    "dmu_positions",
    "life_science",
]


class TestIngest:
    def test_benchmark_fixture(self, fixtures_dir):
        dataset = ingest(fixtures_dir / "pharm_chem_staff.csv")
        assert dataset.ss_mode == "passthrough"
        assert len(dataset.staff) == 28
        assert dataset.ss[("Ferrara", "CHIM/08")] == pytest.approx(64.026)

    def test_computed_mode_fixture(self, fixtures_dir):
        dataset = ingest(
            fixtures_dir / "lab_staff.csv",
            fixtures_dir / "lab_pubs.csv",
            fixtures_dir / "lab_medians.csv",
        )
        assert dataset.ss_mode == "computed"
        assert dataset.publication_count == 3

    def test_computed_ss_is_scientific_strength_in_file_order(self, tmp_path, fixtures_dir):
        with open(fixtures_dir / "lab_pubs.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        records: dict[tuple[str, str], list[PublicationRecord]] = {}
        for row in rows:
            records.setdefault((row["dmu_id"], row["sds_id"]), []).append(
                PublicationRecord(
                    pub_id=row["pub_id"],
                    year=int(row["year"]),
                    citations=int(row["citations"]),
                    categories=tuple(row["categories"].split(";")),
                    total_authors=int(row["total_authors"]),
                    dmu_author_positions=tuple(
                        int(p) for p in row["dmu_positions"].split(";")
                    ),
                    life_science=row["life_science"] == "1",
                )
            )
        medians = MedianTable(entries={(2005, "CatA"): 5.0, (2005, "CatB"): 7.0})
        staff = tmp_path / "staff.csv"
        staff.write_text(
            (fixtures_dir / "lab_staff.csv").read_text() + "UnivC,TEST/01,0,0,1\n"
        )
        dataset = ingest(staff, fixtures_dir / "lab_pubs.csv", fixtures_dir / "lab_medians.csv")
        assert set(records) == {("UnivA", "TEST/01"), ("UnivB", "TEST/01")}
        for key, unit_records in records.items():
            assert dataset.ss[key] == scientific_strength(unit_records, medians)
        assert dataset.ss[("UnivC", "TEST/01")] == 0.0

    def test_orphan_publication(self, tmp_path, fixtures_dir):
        pubs = write_csv(
            tmp_path / "pubs.csv",
            PUB_HEADER,
            [["p1", "Ghost", "TEST/01", 2005, 3, "CatA", 1, "1", 0]],
        )
        with pytest.raises(DataError) as err:
            ingest(fixtures_dir / "lab_staff.csv", pubs, fixtures_dir / "lab_medians.csv")
        assert "('Ghost', 'TEST/01') at pubs.csv line 2" in str(err.value)

    def test_empty_publications_with_passthrough_ss(self, tmp_path, fixtures_dir):
        pubs = write_csv(tmp_path / "pubs.csv", PUB_HEADER, [])
        dataset = ingest(fixtures_dir / "pharm_chem_staff.csv", pubs)
        assert dataset.ss_mode == "passthrough"
        assert dataset.publication_count == 0

    def test_no_output_source(self, tmp_path):
        staff = write_csv(tmp_path / "staff.csv", STAFF_HEADER, [["U", "S", 1, 0, 0]])
        with pytest.raises(DataError) as err:
            ingest(staff)
        assert "no output source" in str(err.value)

    def test_computed_mode_requires_medians(self, tmp_path, fixtures_dir):
        pubs = write_csv(tmp_path / "pubs.csv", PUB_HEADER, [])
        with pytest.raises(DataError):
            ingest(fixtures_dir / "lab_staff.csv", pubs)

    def test_missing_median_key_lists_pairs(self, tmp_path, fixtures_dir):
        medians = write_csv(
            tmp_path / "medians.csv", ["year", "category", "median"], [[2005, "CatA", 5]]
        )
        with pytest.raises(DataError) as err:
            ingest(fixtures_dir / "lab_staff.csv", fixtures_dir / "lab_pubs.csv", medians)
        assert "(2005, 'CatB') at lab_pubs.csv line 4" in str(err.value)

    def test_cross_reference_errors_name_each_first_line(self, tmp_path, fixtures_dir):
        rows = [
            ["p1", "Ghost", "TEST/01", 2005, 3, "CatA", 1, "1", 0],
            ["p2", "UnivA", "TEST/01", -1, 3, "CatA", 1, "1", 0],
            ["p3", "Ghost", "TEST/01", 2005, 3, "CatA", 1, "1", 0],
            ["p4", "Alien", "TEST/01", 2005, 3, "CatA", 1, "1", 0],
        ]
        pubs = write_csv(tmp_path / "pubs.csv", PUB_HEADER, rows)
        medians = fixtures_dir / "lab_medians.csv"
        with pytest.raises(DataError) as err:
            ingest(fixtures_dir / "lab_staff.csv", pubs, medians)
        assert str(err.value) == (
            "publications reference unknown staff rows: "
            "('Alien', 'TEST/01') at pubs.csv line 5; ('Ghost', 'TEST/01') at pubs.csv line 2"
        )
        pubs = write_csv(tmp_path / "pubs.csv", PUB_HEADER, rows[1:2])
        with pytest.raises(DataError) as err:
            ingest(fixtures_dir / "lab_staff.csv", pubs, medians)
        assert str(err.value) == "median table does not cover: (-1, 'CatA') at pubs.csv line 2"

    def test_overflowing_ss_names_the_row(self, tmp_path, fixtures_dir):
        # each row adds 1e308 / 5 to UnivA, and the ninth overflows a float
        row = ["p", "UnivA", "TEST/01", 2005, "1" + "0" * 308, "CatA", 1, "1", 0]
        pubs = write_csv(tmp_path / "pubs.csv", PUB_HEADER, [row] * 12)
        with pytest.raises(DataError) as err:
            ingest(fixtures_dir / "lab_staff.csv", pubs, fixtures_dir / "lab_medians.csv")
        assert str(err.value) == (
            "pubs.csv line 10: scientific strength of ('UnivA', 'TEST/01') overflows a float"
        )

    def test_parse_error_carries_line_number(self, tmp_path):
        staff = write_csv(
            tmp_path / "staff.csv",
            STAFF_HEADER + ["ss"],
            [["U", "S", 1, 0, 0, 2.0], ["V", "S", "many", 0, 0, 1.0]],
        )
        with pytest.raises(DataError) as err:
            ingest(staff)
        assert "line 3" in str(err.value)

    def test_missing_column_detected(self, tmp_path):
        staff = write_csv(tmp_path / "staff.csv", ["dmu_id", "sds_id"], [["U", "S"]])
        with pytest.raises(DataError) as err:
            ingest(staff)
        assert "fp_years" in str(err.value)

    def test_duplicate_staff_row(self, tmp_path):
        staff = write_csv(
            tmp_path / "staff.csv",
            STAFF_HEADER + ["ss"],
            [["U", "S", 1, 0, 0, 1.0], ["U", "S", 2, 0, 0, 1.0]],
        )
        with pytest.raises(DataError) as err:
            ingest(staff)
        assert "duplicate" in str(err.value)

    def test_partial_ss_column_rejected(self, tmp_path):
        staff = write_csv(
            tmp_path / "staff.csv",
            STAFF_HEADER + ["ss"],
            [["U", "S", 1, 0, 0, 2.0], ["V", "S", 1, 0, 0, ""]],
        )
        with pytest.raises(DataError) as err:
            ingest(staff)
        assert "ss" in str(err.value)

    def test_zero_input_row_rejected_with_location(self, tmp_path):
        staff = write_csv(
            tmp_path / "staff.csv", STAFF_HEADER + ["ss"], [["U", "S", 0, 0, 0, 1.0]]
        )
        with pytest.raises(DataError) as err:
            ingest(staff)
        assert "line 2" in str(err.value)

    def test_missing_file_is_an_io_error(self, tmp_path):
        with pytest.raises(OSError):
            ingest(tmp_path / "nope.csv")


class TestMalformedCsv:
    """Structural faults in any input CSV are data errors naming file and line."""

    FILES = {
        "staff": ("lab_staff.csv", "UnivC,TEST/01,1,0,0\n"),
        "publications": ("lab_pubs.csv", "p4,UnivB,TEST/01,2005,1,CatA,1,1,0\n"),
        "medians": ("lab_medians.csv", "2006,CatA,5\n"),
    }

    def _ingest(self, tmp_path, fixtures_dir, role, extra: bytes):
        paths = {}
        for name, (fixture, _) in self.FILES.items():
            paths[name] = tmp_path / fixture
            paths[name].write_bytes((fixtures_dir / fixture).read_bytes())
        with open(paths[role], "ab") as fh:
            fh.write(extra)
        return ingest(paths["staff"], paths["publications"], paths["medians"])

    @pytest.mark.parametrize("role", sorted(FILES))
    def test_valid_extra_row_is_accepted(self, tmp_path, fixtures_dir, role):
        row = self.FILES[role][1]
        self._ingest(tmp_path, fixtures_dir, role, b"\n" + row.encode())

    @staticmethod
    def _fault(kind: str, row: str) -> tuple[bytes, str]:
        """The row with the fault, and the message that names it."""
        if kind == "short row":
            return (",".join(row.split(",")[:2]) + "\n").encode(), "2 cells, header has"
        if kind == "undecodable":
            return b"\xff" + row.encode(), "not UTF-8"
        cells = row.rstrip("\n").split(",")
        cells[-1] = "9" * (csv.field_size_limit() + 1)
        return (",".join(cells) + "\n").encode(), "field larger than field limit"

    @pytest.mark.parametrize("kind", ["short row", "undecodable", "oversized cell"])
    @pytest.mark.parametrize("role", sorted(FILES))
    def test_fault_names_file_and_line(self, tmp_path, fixtures_dir, role, kind):
        fixture, row = self.FILES[role]
        extra, message = self._fault(kind, row)
        with pytest.raises(DataError) as err:
            self._ingest(tmp_path, fixtures_dir, role, extra)
        line = (fixtures_dir / fixture).read_text().count("\n") + 1
        assert f"{fixture} line {line}: {message}" in str(err.value)
        assert csv.field_size_limit() == 131072

    def test_extra_cells_and_blank_lines_are_ignored(self, tmp_path, fixtures_dir):
        rows = "\n".join(
            ["p4,UnivB,TEST/01,2005,1,CatA,1,1,0,extra", "", "p5,UnivB,TEST/01,2005,0,CatA,1,1,0"]
        )
        dataset = self._ingest(tmp_path, fixtures_dir, "publications", rows.encode() + b"\n")
        assert dataset.publication_count == 5

    def test_repeated_column_name_reads_the_last_cell(self, tmp_path):
        staff = tmp_path / "staff.csv"
        staff.write_text(
            "dmu_id,sds_id,fp_years,ap_years,rf_years,ss,ss\nU,S,1,0,0,bad,2.5\n"
        )
        assert ingest(staff).ss[("U", "S")] == 2.5


def _synthetic_census(rng, out):
    """Small computed-mode input files covering every case that ingest caches.

    Few units, years and categories, so units, (year, categories) cells and
    bylines repeat. Each year has a zero median with a positive mean, one
    with a zero mean and one without a mean, and each of these is the cell
    of at least one publication (cells without a usable divisor only get
    uncited ones). Also multi-category cells in file order, life-science
    bylines of 1-3 authors, and staff rows without publications.
    """
    years, cats = (2004, 2005), [f"C{i}" for i in range(5)]
    medians, means = {}, {}
    for year in years:
        kinds = ["plain", "plain", "zero_mean", "zero_zero_mean", "zero_no_mean"]
        rng.shuffle(kinds)
        for cat, kind in zip(cats, kinds):
            medians[year, cat] = rng.choice((0.5, 1.5, 4.0, 7.5)) if kind == "plain" else 0.0
            if kind == "zero_mean" or kind == "plain" and rng.random() < 0.5:
                means[year, cat] = rng.choice((1.25, 3.3, 9.1))
            elif kind == "zero_zero_mean":
                means[year, cat] = 0.0
    units = [(f"U{i}", f"S/0{i % 2}") for i in range(8)]
    published = units[:6]
    cells = [(year, [cat]) for year, cat in medians if medians[year, cat] == 0]
    cells += [(rng.choice(years), rng.sample(cats, rng.randint(1, 3))) for _ in range(300)]
    pubs = []
    for n, (year, cell) in enumerate(cells):
        life = rng.random() < 0.5
        authors = rng.randint(1, 3) if life and rng.random() < 0.7 else rng.randint(1, 8)
        positions = rng.sample(range(1, authors + 1), rng.randint(0, min(3, authors)))
        fallback = [means.get((year, c)) for c in cell]
        usable = sum(medians[year, c] for c in cell) > 0 or (
            None not in fallback and sum(fallback) > 0
        )
        citations = rng.choice((1, 3, 12, 40)) if usable else 0
        dmu, sds = rng.choice(published)
        pubs.append(
            [f"P{n}", dmu, sds, year, citations, ";".join(cell), authors,
             ";".join(map(str, positions)), int(life)]
        )
    write_csv(out / "staff.csv", STAFF_HEADER, [[d, s, 1, 2, 0.5] for d, s in units])
    write_csv(out / "pubs.csv", PUB_HEADER, pubs)
    write_csv(
        out / "medians.csv",
        ["year", "category", "median", "mean"],
        [[y, c, m, means.get((y, c), "")] for (y, c), m in medians.items()],
    )
    return out / "staff.csv", out / "pubs.csv", out / "medians.csv"


def _outcome(run):
    """``("ok", {key: ss.hex()}, publication_count)`` or ``("error", message)``."""
    try:
        ss, count = run()
    except DataError as exc:
        return ("error", str(exc))
    return ("ok", {key: value.hex() for key, value in ss.items()}, count)


def _both_outcomes(staff, pubs, medians_path):
    with open(staff, newline="", encoding="utf-8") as fh:
        staff_keys = [(r["dmu_id"], r["sds_id"]) for r in csv.DictReader(fh)]
    with open(medians_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    table = MedianTable(
        entries={(int(r["year"]), r["category"]): float(r["median"]) for r in rows},
        means={(int(r["year"]), r["category"]): float(r["mean"]) for r in rows if r["mean"]},
    )

    def columnar():
        dataset = ingest(staff, pubs, medians_path)
        return dataset.ss, dataset.publication_count

    return _outcome(columnar), _outcome(lambda: reference_ingest_ss(staff_keys, pubs, table))


class TestColumnarIngestOracle:
    """``ingest`` against a row-by-row copy of the loop it replaced."""

    @pytest.mark.parametrize("seed", range(6))
    def test_ss_is_bit_identical(self, tmp_path, seed):
        staff, pubs, medians = _synthetic_census(random.Random(seed), tmp_path)
        columnar, reference = _both_outcomes(staff, pubs, medians)
        assert columnar == reference
        assert columnar[0] == "ok" and columnar[2] == 306
        assert columnar[1][("U7", "S/01")] == (0.0).hex()  # unpublished

    def test_records_are_built_only_for_new_cells_and_bylines(self, tmp_path, monkeypatch):
        import bibdea.io

        staff, pubs, medians = _synthetic_census(random.Random(0), tmp_path)
        built = []

        def counting_record(**fields):
            built.append(fields["pub_id"])
            return PublicationRecord(**fields)

        monkeypatch.setattr(bibdea.io, "PublicationRecord", counting_record)
        ingest(staff, pubs, medians)
        cells, bylines, expected = set(), set(), []
        with open(pubs, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                cell = (row["year"], row["categories"])
                byline = (row["total_authors"], row["dmu_positions"], row["life_science"])
                if cell not in cells or byline not in bylines:
                    expected.append(row["pub_id"])
                cells.add(cell)
                bylines.add(byline)
        assert built == expected
        assert len(built) < 306

    CORRUPTIONS = {
        "pub_id": ["", "P0"],
        "dmu_id": ["Ghost", "U7"],
        "year": ["2006", "20x5", "", "2004"],
        "citations": ["0", "5", "-3", "x", "", "40"],
        "categories": ["", "C1;C9", "C0;C0", ";C1", "C4;C3"],
        "total_authors": ["0", "1", "2", "20", "x"],
        "dmu_positions": ["", "1;1", "9", "0", "2;1", "x"],
        "life_science": ["1", "0", "2", ""],
        "median": ["0", "3.5"],
        "mean": ["", "0", "2.2"],
    }

    @pytest.mark.parametrize("seed", range(2))
    def test_single_cell_corruptions_fail_alike(self, tmp_path, seed):
        rng = random.Random(f"corrupt:{seed}")
        staff, pubs, medians = _synthetic_census(rng, tmp_path)
        clean = {path: path.read_text() for path in (pubs, medians)}
        errors = 0
        for _ in range(40):
            column = rng.choice(sorted(self.CORRUPTIONS))
            path = medians if column in ("median", "mean") else pubs
            lines = clean[path].splitlines()
            header = lines[0].split(",")
            row = rng.randrange(1, len(lines))
            cells = lines[row].split(",")
            cells[header.index(column)] = rng.choice(self.CORRUPTIONS[column])
            lines[row] = ",".join(cells)
            path.write_text("\n".join(lines) + "\n")
            columnar, reference = _both_outcomes(staff, pubs, medians)
            assert columnar == reference, (column, lines[row])
            errors += columnar[0] == "error"
            path.write_text(clean[path])
        assert errors >= 10


class TestMedianTableBuilder:
    def test_even_count_midpoint(self):
        table = build_median_table(
            [(2005, "A", 1.0), (2005, "A", 2.0), (2005, "A", 3.0), (2005, "A", 4.0)]
        )
        assert table.median(2005, "A") == pytest.approx(2.5)
        assert table.mean(2005, "A") == pytest.approx(2.5)

    def test_odd_count(self):
        table = build_median_table([(2005, "A", 1.0), (2005, "A", 7.0), (2005, "A", 2.0)])
        assert table.median(2005, "A") == pytest.approx(2.0)

    def test_means_enable_zero_median_fallback(self):
        from bibdea import standardize_citations

        table = build_median_table(
            [(2005, "A", 0.0), (2005, "A", 0.0), (2005, "A", 0.0), (2005, "A", 8.0)]
        )
        assert table.median(2005, "A") == 0.0
        assert standardize_citations(4, 2005, ["A"], table) == pytest.approx(2.0)


class TestLoadConfig:
    def test_defaults(self):
        config = load_config()
        assert config.costs == CostVector()
        assert config.quadrant_threshold == 0.5
        assert config.min_active_universities == 24

    def test_fixture_file(self, fixtures_dir):
        config = load_config(fixtures_dir / "config.json")
        assert config.census_date == "2009-06-30"
        assert config.reporting_precision == 3

    def test_partial_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"costs": {"ap": 50.0}, "quadrant_threshold": 0.6}')
        config = load_config(path)
        assert config.costs.ap_cost == 50.0
        assert config.costs.fp_cost == CostVector().fp_cost
        assert config.quadrant_threshold == 0.6

    def test_env_var_fallback(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg.json"
        path.write_text('{"reporting_precision": 5}')
        monkeypatch.setenv(CONFIG_ENV_VAR, str(path))
        assert load_config().reporting_precision == 5

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"quadrant": 0.4}')
        with pytest.raises(DataError):
            load_config(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{")
        with pytest.raises(DataError):
            load_config(path)

    def test_invalid_threshold_rejected(self):
        with pytest.raises(DataError):
            AssessmentConfig(quadrant_threshold=1.5)

    def test_precision_floor(self):
        with pytest.raises(DataError):
            AssessmentConfig(reporting_precision=0)

    @pytest.mark.parametrize("precision", [18, 2**31])
    def test_precision_ceiling(self, precision):
        # past 2**31 the formatter itself fails, in emit
        with pytest.raises(DataError):
            AssessmentConfig(reporting_precision=precision)
        AssessmentConfig(reporting_precision=17)

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'{"census_date": "\xff"}', "cfg.json line 1: not UTF-8"),
            (b'{"reporting_precision": 1' + b"0" * 5000 + b"}", "cfg.json: invalid JSON"),
            (b"[" * 100_000, "cfg.json: invalid JSON"),
        ],
        ids=["undecodable", "past_int_digit_limit", "past_recursion_limit"],
    )
    def test_unreadable_json_is_a_data_error(self, tmp_path, content, message):
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        with pytest.raises(DataError) as err:
            load_config(path)
        assert message in str(err.value)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("reporting_precision", 2.5),
            ("reporting_precision", True),
            ("min_active_universities", 24.0),
            ("min_active_universities", False),
            ("quadrant_threshold", True),
            ("quadrant_threshold", "0.5"),
            ("min_fraction_publishing", None),
            ("census_date", 2009),
        ],
    )
    def test_mistyped_field_rejected(self, field, value):
        with pytest.raises(DataError) as err:
            AssessmentConfig(**{field: value})
        assert field in str(err.value)


class TestRunAssessment:
    def test_benchmark_report(self, fixtures_dir):
        dataset = ingest(fixtures_dir / "pharm_chem_staff.csv")
        report = run_assessment(dataset)
        result = report.sds_results["CHIM/08"]
        assert len(result.rows) == 28
        by_dmu = {r.dmu_id: r for r in result.rows}
        for name, _ss, _fp, _ap, _rf, te, ae, ce in PHARM_CHEM:
            assert by_dmu[name].te == pytest.approx(te, abs=0.01)
            assert by_dmu[name].ae == pytest.approx(ae, abs=0.01)
            assert by_dmu[name].ce == pytest.approx(ce, abs=0.01)
        assert (
            result.quadrants.both_low,
            result.quadrants.high_ae_low_te,
            result.quadrants.both_high,
            result.quadrants.high_te_low_ae,
        ) == (1, 14, 13, 0)
        assert report.eligibility[0].included

    def test_percentile_endpoints(self, fixtures_dir):
        dataset = ingest(fixtures_dir / "pharm_chem_staff.csv")
        report = run_assessment(dataset)
        rows = report.sds_results["CHIM/08"].rows
        best_ce = max(rows, key=lambda r: r.ce)
        worst_ce = min(rows, key=lambda r: r.ce)
        assert best_ce.ce_pct == 100.0
        assert worst_ce.ce_pct == 0.0

    def test_small_sds_excluded_for_robustness(self, fixtures_dir):
        dataset = ingest(
            fixtures_dir / "lab_staff.csv",
            fixtures_dir / "lab_pubs.csv",
            fixtures_dir / "lab_medians.csv",
        )
        report = run_assessment(dataset)
        entry = report.eligibility[0]
        assert not entry.included
        assert "robustness" in entry.failed_criteria
        assert report.sds_results == {}

    def test_no_filter_includes_everything(self, fixtures_dir):
        dataset = ingest(
            fixtures_dir / "lab_staff.csv",
            fixtures_dir / "lab_pubs.csv",
            fixtures_dir / "lab_medians.csv",
        )
        report = run_assessment(dataset, apply_filter=False)
        rows = report.sds_results["TEST/01"].rows
        by_dmu = {r.dmu_id: r for r in rows}
        # hand-computed output values for the fixture publications
        assert by_dmu["UnivA"].ss == pytest.approx(3.28)
        assert by_dmu["UnivB"].ss == pytest.approx(0.5)
        assert not report.eligibility[0].filter_applied

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                # staff-years of a hundredth or more: far smaller ones
                # overflow dea's scaling of x / y, a defect of its own
                st.one_of(st.just(0.0), st.floats(0.01, 5)),
                st.one_of(st.just(0.0), st.floats(0.01, 5)),
                st.floats(0.1, 5),
                st.one_of(st.just(0.0), st.floats(0.1, 20)),
            ),
            min_size=1,
            max_size=10,
        ),
        st.floats(0.1, 10),
        st.sampled_from([0.5, 1.0]),
    )
    def test_copies_of_a_unit_rank_alike(self, units, factor, threshold):
        # A duplicate scores the same floats; a copy with inputs and output
        # scaled by one factor may score a few ulps off, which must not split
        # a tie or change a quadrant.
        fp, ap, rf, ss = units[0]
        members = {f"U{i}": u for i, u in enumerate(units)}
        members["Duplicate"] = (fp, ap, rf, ss)
        members["Scaled"] = (fp * factor, ap * factor, rf * factor, ss * factor)
        staff = {(d, "S/01"): DmuInput(d, "S/01", *u[:3]) for d, u in members.items()}
        dataset = AssessmentDataset(
            staff=staff, ss={(d, "S/01"): u[3] for d, u in members.items()}
        )
        config = AssessmentConfig(quadrant_threshold=threshold)
        report = run_assessment(dataset, config, apply_filter=False)
        rows = {r.dmu_id: r for r in report.sds_results["S/01"].rows}
        unit = rows["U0"]
        triple = (unit.te, unit.ae, unit.ce)
        assert (rows["Duplicate"].te, rows["Duplicate"].ae, rows["Duplicate"].ce) == triple
        scaled = (rows["Scaled"].te, rows["Scaled"].ae, rows["Scaled"].ce)
        assert scaled == pytest.approx(triple, rel=0, abs=TIE_TOL)

        def quadrant(row):
            scores = EfficiencyScores(te=row.te, ae=row.ae, ce=row.ce)
            return efficiency_matrix({row.dmu_id: scores}, threshold)

        for copy in (rows["Duplicate"], rows["Scaled"]):
            assert (copy.te_pct, copy.ae_pct, copy.ce_pct) == (
                unit.te_pct,
                unit.ae_pct,
                unit.ce_pct,
            )
            assert quadrant(copy) == quadrant(unit)

    def test_overflowing_staff_cost_is_a_data_error(self, tmp_path):
        rows = [["U1", "A/01", 1e307, 0, 0, 1.0], ["U2", "A/01", 1, 1, 1, 1.0]]
        staff = write_csv(tmp_path / "staff.csv", STAFF_HEADER + ["ss"], rows)
        with pytest.raises(DataError, match="A/01/U1: staff cost overflows"):
            run_assessment(ingest(staff), apply_filter=False)

    def test_empty_dataset_errors(self):
        with pytest.raises(DataError):
            run_assessment(AssessmentDataset(staff={}, ss={}))

    def test_dataset_needs_one_ss_per_staff_row(self):
        staff = {("U", "S"): DmuInput("U", "S", 1, 0, 0)}
        with pytest.raises(DataError):
            AssessmentDataset(staff=staff, ss={})
        with pytest.raises(DataError):
            AssessmentDataset(staff=staff, ss={("U", "S"): 1.0, ("V", "S"): 1.0})

    def test_report_covers_exactly_the_included_staff(self, tmp_path, fixtures_dir):
        rows = [
            ["U1", "BIG/01", 1, 1, 1, 1.0],
            ["U2", "BIG/01", 2, 1, 1, 2.0],
            ["U3", "SMALL/01", 1, 1, 1, 1.0],
        ]
        staff = write_csv(tmp_path / "staff.csv", STAFF_HEADER + ["ss"], rows)
        config = AssessmentConfig(min_active_universities=2)
        report = run_assessment(ingest(staff), config)
        included_sds = {e.sds_id for e in report.eligibility if e.included}
        assert included_sds == {"BIG/01"}
        reported = {
            (r.dmu_id, r.sds_id)
            for res in report.sds_results.values()
            for r in res.rows
        }
        assert reported == {("U1", "BIG/01"), ("U2", "BIG/01")}

    def test_institution_aggregates(self, tmp_path):
        rows = [
            ["U1", "A/01", 0, 5, 0, 2.0],
            ["U2", "A/01", 1, 0, 0, 1.0],
            ["U1", "B/01", 1, 0, 0, 1.0],
            ["U2", "B/01", 0, 0, 5, 1.0],
        ]
        staff = write_csv(tmp_path / "staff.csv", STAFF_HEADER + ["ss"], rows)
        config = AssessmentConfig(min_active_universities=1)
        report = run_assessment(ingest(staff), config)
        u1 = report.institution("U1")
        assert len(u1.rows) == 2
        weights = [r.staff_cost for r in u1.rows]
        expected = sum(r.te * w for r, w in zip(u1.rows, weights)) / sum(weights)
        assert u1.aggregate.te == pytest.approx(expected)
        assert u1.aggregate.te_pct is not None
        with pytest.raises(DataError):
            report.institution("U9")


class TestEmit:
    @pytest.fixture
    def report(self, fixtures_dir):
        return run_assessment(ingest(fixtures_dir / "pharm_chem_staff.csv"))

    def test_csv_table_shape(self, report, tmp_path):
        emit(report, ["csv"], tmp_path)
        path = tmp_path / "scores_CHIM_08.csv"
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 28
        for column in ("dmu_id", "ss", "fp_years", "ap_years", "rf_years", "te", "ae", "ce"):
            assert column in rows[0]
        assert (tmp_path / "institutions.csv").exists()
        assert (tmp_path / "eligibility.csv").exists()

    def test_deterministic_bytes(self, report, tmp_path):
        first = tmp_path / "one"
        second = tmp_path / "two"
        files_one = emit(report, ["json", "csv", "svg"], first)
        files_two = emit(report, ["json", "csv", "svg"], second)
        assert [p.name for p in files_one] == [p.name for p in files_two]
        for a, b in zip(files_one, files_two):
            assert a.read_bytes() == b.read_bytes()

    def test_json_roundtrips_through_ingest(self, report, tmp_path):
        emit(report, ["json"], tmp_path)
        payload = json.loads((tmp_path / "report.json").read_text())
        rows = payload["sds"]["CHIM/08"]["rows"]
        staff = tmp_path / "roundtrip_staff.csv"
        write_csv(
            staff,
            STAFF_HEADER + ["ss"],
            [
                [
                    r["dmu_id"],
                    r["sds_id"],
                    repr(r["fp_years"]),
                    repr(r["ap_years"]),
                    repr(r["rf_years"]),
                    repr(r["ss"]),
                ]
                for r in rows
            ],
        )
        dataset = ingest(staff)
        for r in rows:
            key = (r["dmu_id"], r["sds_id"])
            assert dataset.ss[key] == r["ss"]  # exact, full precision
            assert dataset.staff[key].fp_years == r["fp_years"]

    def test_svg_files_written(self, report, tmp_path):
        files = emit(report, ["svg"], tmp_path)
        names = {p.name for p in files}
        assert "matrix_CHIM_08.svg" in names
        assert "hist_ce_CHIM_08.svg" in names
        content = (tmp_path / "hist_ce_CHIM_08.svg").read_text()
        assert content.startswith("<svg")

    def test_unknown_format_rejected(self, report, tmp_path):
        with pytest.raises(DataError):
            emit(report, ["pdf"], tmp_path)

    def test_out_dir_created(self, report, tmp_path):
        target = tmp_path / "deep" / "nested"
        emit(report, ["json"], target)
        assert (target / "report.json").exists()


def _odd_census(path):
    """A staff file whose unit and SDS ids hold non-ASCII characters, quotes,
    backslashes, commas and a line break, with zero outputs and tied units."""
    rng = random.Random("odd ids")
    units = ["Università di Bari", "東京大学", 'Napoli "Federico II"', "C:\\units\\a",
             "Roma, Tor Vergata", "line\nbreak", "Zürich", "plain"]
    sds_ids = ["BIO/01", 'MED "02"', "ING\\03", "FIS,04", "ÆØÅ/05", "TINY/06"]
    rows = []
    for sds_id in sds_ids:
        members = units[:1] if sds_id == "TINY/06" else rng.sample(units, rng.randint(3, 8))
        for dmu_id in members:
            years = [rng.randint(0, 40) / 10 for _ in range(2)] + [rng.randint(1, 40) / 10]
            ss = rng.uniform(0.1, 30) if rng.random() < 0.8 else 0.0
            rows.append([dmu_id, sds_id, *years, ss])
        rows.append([members[0] + " (copy)", sds_id, *rows[-len(members)][2:]])
    return write_csv(path, STAFF_HEADER + ["ss"], rows)


class TestReportJson:
    """``emit``'s report.json, byte for byte against the standard library's
    indented, key-sorted encoding of the report's fields."""

    @staticmethod
    def assert_matches_reference(report, out):
        emit(report, ["json"], out)
        assert (out / "report.json").read_bytes() == reference_report_json(report).encode()

    @pytest.mark.parametrize("config", [None, "config.json"])
    def test_benchmark_fixture(self, fixtures_dir, tmp_path, config):
        config = load_config(fixtures_dir / config) if config else None
        report = run_assessment(ingest(fixtures_dir / "pharm_chem_staff.csv"), config)
        self.assert_matches_reference(report, tmp_path)

    @pytest.mark.parametrize("apply_filter", [True, False])
    def test_computed_fixture(self, fixtures_dir, tmp_path, apply_filter):
        dataset = ingest(
            fixtures_dir / "lab_staff.csv",
            fixtures_dir / "lab_pubs.csv",
            fixtures_dir / "lab_medians.csv",
        )
        report = run_assessment(dataset, apply_filter=apply_filter)
        self.assert_matches_reference(report, tmp_path)

    def test_single_sds_view(self, fixtures_dir, tmp_path):
        report = run_assessment(ingest(fixtures_dir / "pharm_chem_staff.csv"))
        single = dataclasses.replace(report, institutions=(), eligibility=())
        self.assert_matches_reference(single, tmp_path)

    def test_values_the_pipeline_never_writes(self, fixtures_dir, tmp_path):
        # integers, booleans and non-finite floats are written as json.dumps
        # writes them
        report = run_assessment(ingest(fixtures_dir / "pharm_chem_staff.csv"))
        result = report.sds_results["CHIM/08"]
        first = dataclasses.replace(
            result.rows[0], fp_years=2, ap_years=True, ss=math.inf, ce=-math.inf, te=math.nan
        )
        odd = dataclasses.replace(
            report,
            quadrant_threshold=1,
            sds_results={"CHIM/08": dataclasses.replace(result, rows=(first, *result.rows[1:]))},
        )
        self.assert_matches_reference(odd, tmp_path)

    def test_ids_that_need_escaping(self, tmp_path):
        staff = _odd_census(tmp_path / "staff.csv")
        report = run_assessment(ingest(staff), AssessmentConfig(min_active_universities=3))
        included = {e.sds_id for e in report.eligibility if e.included}
        assert "TINY/06" not in included and len(included) >= 4
        assert len(report.institutions) > 5
        self.assert_matches_reference(report, tmp_path)
        payload = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert 'MED "02"' in payload["sds"]
        assert {"東京大学", "line\nbreak"} <= {i["dmu_id"] for i in payload["institutions"]}
