import csv
import json

import pytest

from bibdea import (
    AssessmentConfig,
    CostVector,
    DataError,
    MedianTable,
    PublicationRecord,
    build_median_table,
    emit,
    ingest,
    load_config,
    run_assessment,
    scientific_strength,
)
from bibdea.io import CONFIG_ENV_VAR

from benchmarks import PHARM_CHEM


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
        assert "Ghost" in str(err.value)

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
        assert "CatB" in str(err.value)

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

    def test_empty_dataset_errors(self):
        from bibdea import AssessmentDataset

        with pytest.raises(DataError):
            run_assessment(AssessmentDataset(staff={}, ss={}))

    def test_dataset_needs_one_ss_per_staff_row(self):
        from bibdea import AssessmentDataset, DmuInput

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
