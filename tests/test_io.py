import csv
import dataclasses
import itertools
import json
import math
import random
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibdea import (
    AggregateScores,
    AssessmentConfig,
    AssessmentDataset,
    AssessmentReport,
    CostVector,
    DataError,
    DmuInput,
    EfficiencyScores,
    Histogram,
    InstitutionResult,
    MedianTable,
    PublicationRecord,
    QuadrantSummary,
    ScoreRow,
    SdsResult,
    build_median_table,
    efficiency_matrix,
    emit,
    fractional_count,
    ingest,
    load_config,
    productivity_ratio,
    run_assessment,
    scientific_strength,
    staff_cost,
)
from bibdea import dea
from bibdea.analytics import TIE_TOL
from bibdea.cli import main
from bibdea.report import EligibilityEntry

from benchmarks import PHARM_CHEM
from oracles import (
    reference_csv_tables,
    reference_ingest_ss,
    reference_report_json,
    reference_results,
)


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


_SVG_TEXT = "{http://www.w3.org/2000/svg}text"

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
        assert len(dataset.units) == 28
        assert dataset.ss[dataset.units.index(("Ferrara", "CHIM/08"))] == pytest.approx(64.026)

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
        ss = dict(zip(dataset.units, dataset.ss.tolist()))
        assert set(records) == {("UnivA", "TEST/01"), ("UnivB", "TEST/01")}
        for key, unit_records in records.items():
            assert ss[key] == scientific_strength(unit_records, medians)
        assert ss[("UnivC", "TEST/01")] == 0.0

    def test_orphan_publication(self, tmp_path, fixtures_dir):
        pubs = write_csv(
            tmp_path / "pubs.csv",
            PUB_HEADER,
            [["p1", "Ghost", "TEST/01", 2005, 3, "CatA", 1, "1", 0]],
        )
        with pytest.raises(DataError) as err:
            ingest(fixtures_dir / "lab_staff.csv", pubs, fixtures_dir / "lab_medians.csv")
        assert "('Ghost', 'TEST/01') at pubs.csv line 2" in str(err.value)

    @pytest.mark.parametrize("given", ["publications", "medians", "both"])
    def test_ss_column_with_publications_or_medians_is_a_conflict(
        self, tmp_path, fixtures_dir, given
    ):
        # Neither file exists: the conflict is raised before either is opened.
        pubs = None if given == "medians" else tmp_path / "pubs.csv"
        medians = None if given == "publications" else tmp_path / "medians.csv"
        with pytest.raises(DataError) as err:
            ingest(fixtures_dir / "pharm_chem_staff.csv", pubs, medians)
        assert str(err.value) == (
            "staff file has an ss column, so no publications or medians file is read"
        )

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

    @pytest.mark.parametrize(
        "label, row", [("median", [2004, "B", -1, 3]), ("mean", [2004, "B", 1, -3])]
    )
    def test_negative_median_or_mean_names_its_line(self, tmp_path, fixtures_dir, label, row):
        rows = [[2005, "A", 5, ""], [2006, "A", 0, 2.5], row, [2005, "B", -1, ""]]
        medians = write_csv(tmp_path / "medians.csv", ["year", "category", "median", "mean"], rows)
        with pytest.raises(DataError) as err:
            ingest(fixtures_dir / "lab_staff.csv", fixtures_dir / "lab_pubs.csv", medians)
        assert str(err.value) == f"medians.csv line 4: negative reference {label} for (2004, 'B')"

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
        # each row adds 1e308 / 5 to UnivA, and twelve of them overflow a
        # float; the error names UnivA's last contributing line
        row = ["p", "UnivA", "TEST/01", 2005, "1" + "0" * 308, "CatA", 1, "1", 0]
        pubs = write_csv(tmp_path / "pubs.csv", PUB_HEADER, [row] * 12)
        with pytest.raises(DataError) as err:
            ingest(fixtures_dir / "lab_staff.csv", pubs, fixtures_dir / "lab_medians.csv")
        assert str(err.value) == (
            "pubs.csv line 13: scientific strength of ('UnivA', 'TEST/01') overflows a float"
        )

    def test_row_without_a_byline_position_adds_nothing(self, tmp_path):
        # p1's 1000 citations over a median of 1e-306 are past the float
        # range, but UnivA holds none of its byline positions
        units = [["UnivA", "TEST/01", 1, 1, 1], ["UnivB", "TEST/01", 1, 1, 1]]
        staff = write_csv(tmp_path / "staff.csv", STAFF_HEADER, units)
        rows = [
            ["p1", "UnivA", "TEST/01", 2005, 1000, "CatA", 2, "", 0],
            ["p2", "UnivB", "TEST/01", 2005, 3, "CatA", 2, "1", 0],
        ]
        pubs = write_csv(tmp_path / "pubs.csv", PUB_HEADER, rows)
        medians = tmp_path / "medians.csv"
        medians.write_text("year,category,median,mean\n2005,CatA,1e-306,\n")
        ss = {("UnivA", "TEST/01"): (0.0).hex(), ("UnivB", "TEST/01"): (3 / 1e-306 / 2).hex()}
        assert _both_outcomes(staff, pubs, medians) == (("ok", ss, 2),) * 2

    def test_exact_sum_past_the_float_range_names_the_last_line(self, tmp_path, fixtures_dir):
        # UnivA's terms are M, h and h. Added in file order they stay at M,
        # since M + h rounds back to M, but their exact sum is past the
        # float range. Its uncited last row contributes nothing.
        big, half = sys.float_info.max, sys.float_info.max * 2**-54
        assert big + half == big
        rows = [
            ["p1", "UnivA", "TEST/01", 2005, int(big), "CatA", 1, "1", 0],
            ["p2", "UnivB", "TEST/01", 2005, 3, "CatA", 1, "1", 0],
            ["p3", "UnivA", "TEST/01", 2005, int(half), "CatA", 1, "1", 0],
            ["p4", "UnivA", "TEST/01", 2005, int(half), "CatA", 1, "1", 0],
            ["p5", "UnivB", "TEST/01", 2005, 3, "CatA", 1, "1", 0],
            ["p6", "UnivA", "TEST/01", 2005, 0, "CatA", 1, "1", 0],
        ]
        pubs = write_csv(tmp_path / "pubs.csv", PUB_HEADER, rows)
        medians = tmp_path / "medians.csv"
        medians.write_text("year,category,median,mean\n2005,CatA,1,\n")
        staff = fixtures_dir / "lab_staff.csv"
        message = "pubs.csv line 5: scientific strength of ('UnivA', 'TEST/01') overflows a float"
        with pytest.raises(DataError) as err:
            ingest(staff, pubs, medians)
        assert str(err.value) == message
        assert _both_outcomes(staff, pubs, medians) == (("error", message),) * 2

    # A row's own fault is raised at its row; a fault that only the whole
    # file shows, after the pass: unknown keys, then uncovered pairs, then a
    # cited row without a divisor, then an SS past the float range.
    @pytest.mark.parametrize(
        "at, fault, message",
        [
            (
                3,
                ["p5", "UnivA", "TEST/01", 2005, 3, "CatA", 0, "1", 0],
                "pubs.csv line 5: p5: total_authors must be >= 1",
            ),
            (
                2,
                ["p5", "Ghost", "TEST/01", 2005, 3, "CatA", 1, "1", 0],
                "publications reference unknown staff rows: ('Ghost', 'TEST/01') at pubs.csv line 4",
            ),
        ],
        ids=["bad_total_authors", "unknown_key"],
    )
    def test_faults_come_before_a_missing_divisor(self, tmp_path, fixtures_dir, at, fault, message):
        rows = [
            ["p1", "UnivA", "TEST/01", 2006, 3, "CatA", 1, "1", 0],  # zero median, no mean
            ["p2", "UnivA", "TEST/01", 2005, 3, "CatA", 1, "1", 0],
            ["p3", "UnivB", "TEST/01", 2005, 3, "CatA", 1, "1", 0],
            ["p4", "UnivB", "TEST/01", 2005, 3, "CatA", 1, "1", 0],
        ]
        pubs = write_csv(tmp_path / "pubs.csv", PUB_HEADER, rows)
        medians = tmp_path / "medians.csv"
        medians.write_text("year,category,median,mean\n2005,CatA,1,\n2006,CatA,0,\n")
        staff = fixtures_dir / "lab_staff.csv"
        with pytest.raises(DataError, match="^pubs.csv line 2: zero median divisor for year 2006"):
            ingest(staff, pubs, medians)
        pubs = write_csv(pubs, PUB_HEADER, rows[:at] + [fault] + rows[at + 1 :])
        with pytest.raises(DataError) as err:
            ingest(staff, pubs, medians)
        assert str(err.value) == message
        assert _both_outcomes(staff, pubs, medians) == (("error", message),) * 2

    @pytest.mark.parametrize("cell", ["CatA;CatA", "CatA;CatB;CatA"])
    def test_repeated_category_names_the_row(self, tmp_path, fixtures_dir, cell):
        rows = [["p1", "UnivA", "TEST/01", 2005, 3, "CatA", 1, "1", 0],
                ["p2", "UnivA", "TEST/01", 2005, 3, cell, 1, "1", 0]]
        pubs = write_csv(tmp_path / "pubs.csv", PUB_HEADER, rows)
        with pytest.raises(DataError) as err:
            ingest(fixtures_dir / "lab_staff.csv", pubs, fixtures_dir / "lab_medians.csv")
        assert str(err.value) == "pubs.csv line 3: p2: duplicate subject categories"

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

    # the staff file and AssessmentDataset share the key rule
    @pytest.mark.parametrize("key", [["", "S"], ["U", ""], ["", ""]], ids=["dmu", "sds", "both"])
    def test_empty_key_names_its_line(self, tmp_path, key):
        rows = [["U", "S", 1, 0, 0, 1.0], [*key, 1, 0, 0, 1.0]]
        staff = write_csv(tmp_path / "staff.csv", STAFF_HEADER + ["ss"], rows)
        with pytest.raises(DataError) as err:
            ingest(staff)
        assert str(err.value) == "staff.csv line 3: empty dmu_id or sds_id"

    def test_negative_ss_names_its_line(self, tmp_path):
        rows = [["U", "S", 1, 0, 0, 1.0], ["V", "S", 1, 0, 0, -2]]
        staff = write_csv(tmp_path / "staff.csv", STAFF_HEADER + ["ss"], rows)
        with pytest.raises(DataError) as err:
            ingest(staff)
        assert str(err.value) == "staff.csv line 3: negative ss -2.0"

    def test_header_without_rows_is_no_staff(self, tmp_path):
        staff = write_csv(tmp_path / "staff.csv", STAFF_HEADER + ["ss"], [])
        with pytest.raises(DataError) as err:
            ingest(staff)
        assert str(err.value) == "staff.csv: no staff rows"

    def test_duplicate_median_names_its_line(self, tmp_path, fixtures_dir):
        medians = write_csv(
            tmp_path / "medians.csv",
            ["year", "category", "median"],
            [[2005, "CatA", 5], [2005, "CatB", 7], [2005, "CatA", 6]],
        )
        with pytest.raises(DataError) as err:
            ingest(fixtures_dir / "lab_staff.csv", fixtures_dir / "lab_pubs.csv", medians)
        assert str(err.value) == "medians.csv line 4: duplicate median for (2005, 'CatA')"

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

    @pytest.mark.parametrize("with_ss", [True, False])
    @pytest.mark.parametrize(
        "years, problem",
        [
            ("1,-0.5,2", "staff-years must be finite and >= 0"),
            ("0,0,0", "zero total staff input"),
        ],
    )
    def test_staff_years_fault_names_its_line(
        self, tmp_path, fixtures_dir, with_ss, years, problem
    ):
        # a blank line, good rows, the faulty row, then a row with the other fault
        other = "0,0,0" if years != "0,0,0" else "0,-1,1"
        ss = ",1.5" if with_ss else ""
        lines = [
            ",".join(STAFF_HEADER) + (",ss" if with_ss else ""),
            f"UnivA,TEST/01,1,0,0{ss}",
            "",
            f"UnivB,TEST/01,0,1,0{ss}",
            f"UnivC,TEST/01,{years}{ss}",
            f"UnivD,TEST/01,{other}{ss}",
        ]
        staff = tmp_path / "staff.csv"
        staff.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError) as err:
            ingest(staff, fixtures_dir / "lab_pubs.csv", fixtures_dir / "lab_medians.csv")
        assert str(err.value) == f"staff.csv line 5: TEST/01/UnivC: {problem}"

    def test_ingest_and_assessment_build_no_dmu_input(self, fixtures_dir, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ingest and run_assessment hold the staff as columns")

        monkeypatch.setattr(DmuInput, "__post_init__", refuse)
        for files in (
            ["pharm_chem_staff.csv"],
            ["lab_staff.csv", "lab_pubs.csv", "lab_medians.csv"],
        ):
            dataset = ingest(*(fixtures_dir / name for name in files))
            report = run_assessment(dataset, apply_filter=False)
            assert sum(len(r.rows) for r in report.sds_results.values()) == len(dataset.units)

    def test_missing_file_is_an_io_error(self, tmp_path):
        with pytest.raises(OSError):
            ingest(tmp_path / "nope.csv")


_ARABIC_INDIC_DIGITS = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


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

    def test_row_without_an_extra_named_cell_is_short(self, tmp_path, fixtures_dir):
        # every column the publications scan reads is present in the last row
        fixture, row = self.FILES["publications"]
        lines = (fixtures_dir / fixture).read_text().splitlines()
        lines = [lines[0] + ",note", *(line + ",x" for line in lines[1:]), "", row.rstrip("\n")]
        pubs = tmp_path / fixture
        pubs.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError) as err:
            ingest(fixtures_dir / "lab_staff.csv", pubs, fixtures_dir / "lab_medians.csv")
        assert str(err.value) == f"{fixture} line {len(lines)}: 9 cells, header has 10"

    @pytest.mark.parametrize("role", sorted(FILES))
    def test_extra_cells_and_blank_lines_are_ignored(self, tmp_path, fixtures_dir, role):
        # an unknown column, named twice; a cell past the header's width; a blank line
        paths = {name: fixtures_dir / fixture for name, (fixture, _) in self.FILES.items()}
        expected = _fields(ingest(*paths.values()))
        header, first, *rest = paths[role].read_text().splitlines()
        lines = [header + ",note,note", first + ",a,b,extra", "", *(r + ",a,b" for r in rest)]
        paths[role] = tmp_path / paths[role].name
        paths[role].write_text("\n".join(lines) + "\n")
        assert _fields(ingest(*paths.values())) == expected

    def test_byte_order_marks_are_dropped(self, tmp_path, fixtures_dir):
        # as a spreadsheet saves "CSV UTF-8"
        paths = []
        for fixture, _ in self.FILES.values():
            paths.append(tmp_path / fixture)
            paths[-1].write_bytes(b"\xef\xbb\xbf" + (fixtures_dir / fixture).read_bytes())
        expected = ingest(*(fixtures_dir / fixture for fixture, _ in self.FILES.values()))
        assert _fields(ingest(*paths)) == _fields(expected)
        staff = tmp_path / "pharm_chem_staff.csv"
        staff.write_bytes(b"\xef\xbb\xbf" + (fixtures_dir / staff.name).read_bytes())
        assert _fields(ingest(staff)) == _fields(ingest(fixtures_dir / staff.name))
        # the line of an undecodable byte is counted as without the mark
        extra, message = self._fault("undecodable", self.FILES["staff"][1])
        with open(paths[0], "ab") as fh:
            fh.write(extra)
        line = (fixtures_dir / paths[0].name).read_text().count("\n") + 1
        with pytest.raises(DataError, match=f"{paths[0].name} line {line}: {message}"):
            ingest(*paths)

    # int() and float() read "0_5" and non-ASCII digits, which no CSV number has
    @pytest.mark.parametrize(
        "spell",
        [lambda raw: "0_" + raw, lambda raw: raw.translate(_ARABIC_INDIC_DIGITS)],
        ids=["separator", "non-ascii"],
    )
    @pytest.mark.parametrize(
        "role, cell, column",
        [
            ("staff", 2, "fp_years"),
            ("publications", 3, "year"),
            ("publications", 4, "citations"),
            ("publications", 6, "total_authors"),
            ("publications", 7, "dmu_positions"),
            ("medians", 0, "year"),
            ("medians", 2, "median"),
        ],
    )
    def test_number_outside_csv_syntax_is_bad(
        self, tmp_path, fixtures_dir, role, cell, column, spell
    ):
        fixture, row = self.FILES[role]
        cells = row.rstrip("\n").split(",")
        raw = cells[cell] = spell(cells[cell])
        with pytest.raises(DataError) as err:
            self._ingest(tmp_path, fixtures_dir, role, (",".join(cells) + "\n").encode())
        line = (fixtures_dir / fixture).read_text().count("\n") + 1
        assert str(err.value) == f"{fixture} line {line}: bad {column} value {raw!r}"

    @pytest.mark.parametrize("raw", ["0_2", "\u0662", "2\u00a0"])
    def test_ss_and_mean_outside_csv_syntax_are_bad(self, tmp_path, raw):
        staff = tmp_path / "staff.csv"
        staff.write_text(f"dmu_id,sds_id,fp_years,ap_years,rf_years,ss\nU,S,1,0,0,{raw}\n")
        with pytest.raises(DataError) as err:
            ingest(staff)
        assert str(err.value) == f"staff.csv line 2: bad ss value {raw!r}"
        medians = tmp_path / "medians.csv"
        medians.write_text(f"year,category,median,mean\n2005,A,0,{raw}\n")
        staff.write_text("dmu_id,sds_id,fp_years,ap_years,rf_years\nU,S,1,0,0\n")
        pubs = write_csv(tmp_path / "pubs.csv", PUB_HEADER, [])
        with pytest.raises(DataError) as err:
            ingest(staff, pubs, medians)
        assert str(err.value) == f"medians.csv line 2: bad mean value {raw!r}"

    # A column that is read, listed or optional, is named once: no cell of
    # it is silently left unread.
    @pytest.mark.parametrize(
        "role, column",
        [
            ("staff", "fp_years"),
            ("staff", "ss"),
            ("publications", "citations"),
            ("medians", "median"),
            ("medians", "mean"),
        ],
    )
    def test_repeated_read_column_is_a_data_error(self, tmp_path, fixtures_dir, role, column):
        fixture = self.FILES[role][0]
        header, *rows = (fixtures_dir / fixture).read_text().splitlines()
        names = header.split(",")
        added = [column] * (2 - names.count(column)) + ["note", "note"]
        lines = [",".join([*names, *added]), *(row + ",x" * len(added) for row in rows)]
        paths = {name: fixtures_dir / f for name, (f, _) in self.FILES.items()}
        paths[role] = tmp_path / fixture
        paths[role].write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError) as err:
            ingest(*paths.values())
        assert str(err.value) == f"{fixture}: repeated columns [{column!r}]"


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(st.integers(-2, 12), st.just(100_001)),
    st.lists(st.integers(-1, 14), max_size=5),
    st.booleans(),
)
def test_ingest_scores_a_byline_as_fractional_count(total, positions, life_science):
    # citations equal to the median make the row's SS its byline share
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        staff = tmp / "staff.csv"
        staff.write_text("dmu_id,sds_id,fp_years,ap_years,rf_years\nU,S,1,0,0\n")
        medians = tmp / "medians.csv"
        medians.write_text("year,category,median\n2005,A,4\n")
        byline = [total, ";".join(map(str, positions)), int(life_science)]
        pubs = write_csv(tmp / "pubs.csv", PUB_HEADER, [["p", "U", "S", 2005, 4, "A", *byline]])
        try:
            expected = fractional_count(total, positions, life_science)
        except DataError as exc:
            with pytest.raises(DataError) as err:
                ingest(staff, pubs, medians)
            assert str(err.value) == f"pubs.csv line 2: p: {exc}"
        else:
            assert ingest(staff, pubs, medians).ss.tolist() == [expected]


def _fields(dataset) -> tuple:
    """An ``AssessmentDataset``'s field values, its floats by ``float.hex``."""
    hexed = [[v.hex() for v in column.ravel().tolist()] for column in (dataset.years, dataset.ss)]
    return (dataset.units, *hexed, dataset.ss_mode, dataset.publication_count)


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
        return dict(zip(dataset.units, dataset.ss.tolist())), dataset.publication_count

    return _outcome(columnar), _outcome(lambda: reference_ingest_ss(staff_keys, pubs, table))


def _corrupted(text, edits):
    """``text`` of a CSV file with the cell of each ``(row, column, value)``
    edit replaced; row 0 is the header."""
    lines = text.splitlines()
    header = lines[0].split(",")
    for row, column, value in edits:
        cells = lines[row].split(",")
        cells[header.index(column)] = value
        lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


class TestColumnarIngestOracle:
    """``ingest`` against a row-by-row copy of the loop it replaced."""

    @pytest.mark.parametrize("seed", range(6))
    def test_ss_is_bit_identical(self, tmp_path, seed):
        staff, pubs, medians = _synthetic_census(random.Random(seed), tmp_path)
        columnar, reference = _both_outcomes(staff, pubs, medians)
        assert columnar == reference
        assert columnar[0] == "ok" and columnar[2] == 306
        assert columnar[1][("U7", "S/01")] == (0.0).hex()  # unpublished

    def test_keys_are_checked_once_and_no_record_is_built(self, tmp_path, monkeypatch):
        import bibdea.io

        staff, pubs, medians = _synthetic_census(random.Random(0), tmp_path)
        checked_cells, checked_bylines, checked_citations, built = [], [], [], []
        cell_entry, byline_share = bibdea.io._cell_entry, bibdea.io._byline_share
        citation_count, check_record = bibdea.io._citation_count, PublicationRecord.__post_init__

        def counting_cell(year, categories, *rest):
            checked_cells.append((year, categories))
            return cell_entry(year, categories, *rest)

        def counting_byline(*raw):
            checked_bylines.append(raw)
            return byline_share(*raw)

        def counting_citations(raw):
            checked_citations.append(raw)
            return citation_count(raw)

        def counting_record(record):
            built.append(record.pub_id)
            check_record(record)

        monkeypatch.setattr(bibdea.io, "_cell_entry", counting_cell)
        monkeypatch.setattr(bibdea.io, "_byline_share", counting_byline)
        monkeypatch.setattr(bibdea.io, "_citation_count", counting_citations)
        monkeypatch.setattr(PublicationRecord, "__post_init__", counting_record)
        ingest(staff, pubs, medians)
        with open(pubs, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        cells = [(r["year"], r["categories"]) for r in rows]
        bylines = [(r["total_authors"], r["dmu_positions"], r["life_science"]) for r in rows]
        assert checked_cells == list(dict.fromkeys(cells))
        assert checked_bylines == list(dict.fromkeys(bylines))
        assert checked_citations == list(dict.fromkeys(r["citations"] for r in rows))
        assert built == []

        # A later row whose cell and byline are known, given bad citations or
        # a bad byline, raises the row-by-row message of the one record built:
        # its own, which names its pub_id.
        later = next(
            i for i in range(200, len(rows)) if cells[i] in cells[:i] and bylines[i] in bylines[:i]
        )
        clean = pubs.read_text()
        for column, value in (("citations", "-3"), ("total_authors", "0")):
            pubs.write_text(_corrupted(clean, [(later + 1, column, value)]))
            built.clear()
            with pytest.raises(DataError, match=f"line {later + 2}: {rows[later]['pub_id']}: "):
                ingest(staff, pubs, medians)
            assert built == [rows[later]["pub_id"]]
            columnar, reference = _both_outcomes(staff, pubs, medians)
            assert columnar == reference

    CORRUPTIONS = {
        "pub_id": ["", "P0"],
        "dmu_id": ["Ghost", "U7"],
        "year": ["2006", "20x5", "", "2004", "2_004"],
        "citations": ["0", "5", "-3", "x", "", "40", "4_0"],
        "categories": ["", "C1;C9", "C0;C0", ";C1", "C4;C3", "C1;C1"],
        "total_authors": ["0", "1", "2", "20", "x", "\u0662"],
        "dmu_positions": ["", "1;1", "9", "0", "2;1", "x", "1;\u0661"],
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
            row = rng.randrange(1, len(clean[path].splitlines()))
            edit = (row, column, rng.choice(self.CORRUPTIONS[column]))
            path.write_text(_corrupted(clean[path], [edit]))
            columnar, reference = _both_outcomes(staff, pubs, medians)
            assert columnar == reference, edit
            errors += columnar[0] == "error"
            path.write_text(clean[path])
        assert errors >= 10

    # A bad value of each check of a byline, a (year, categories) cell and
    # citations: a row with two of them fails on the first in row order.
    FIELD_FAULTS = [
        [("dmu_positions", "x"), ("life_science", "2"), ("total_authors", "x"),
         ("total_authors", "0")],
        [("year", "20x5"), ("categories", "")],
        [("citations", "x"), ("citations", "-3")],
    ]
    # Each pair fails: a bad cell with a bad byline, bad citations with a new
    # cell, an orphan with a bad row, and two faults of different fields.
    CORRUPTION_PAIRS = [
        *(
            pair
            for a, b in itertools.combinations(FIELD_FAULTS, 2)
            for pair in itertools.product(a, b)
        ),
        (("year", "20x5"), ("total_authors", "0")),
        (("categories", ""), ("dmu_positions", "1;1")),
        (("year", "2006"), ("life_science", "2")),
        (("citations", "-3"), ("categories", "C4;C3")),
        (("citations", "x"), ("year", "2006")),
        (("dmu_id", "Ghost"), ("total_authors", "x")),
        (("dmu_id", "Ghost"), ("citations", "-3")),
    ]
    # A fault for each of a row's three cached keys: byline, (year,
    # categories) cell and citations. Where no number cell is malformed, the
    # record's own order picks citations over categories over the byline.
    CORRUPTION_TRIPLES = [
        *itertools.product(*FIELD_FAULTS),
        (("dmu_positions", "x"), ("citations", "-3"), ("categories", "C1;C1")),
        (("citations", "-3"), ("categories", "C1;C1"), ("total_authors", "0")),
    ]

    @pytest.mark.parametrize("seed", range(2))
    def test_two_corruptions_fail_alike(self, tmp_path, seed):
        rng = random.Random(f"corrupt two:{seed}")
        staff, pubs, medians = _synthetic_census(rng, tmp_path)
        clean = pubs.read_text()
        rows = len(clean.splitlines()) - 1
        columns = sorted(set(self.CORRUPTIONS) - {"median", "mean"})
        drawn = [
            tuple((c, rng.choice(self.CORRUPTIONS[c])) for c in rng.sample(columns, 2))
            for _ in range(20)
        ]
        errors = 0
        faulty = self.CORRUPTION_PAIRS + drawn + self.CORRUPTION_TRIPLES
        for first, *rest in faulty:
            row = rng.randrange(1, rows)
            later = rng.randrange(row + 1, rows + 1)
            for edits in (
                [(row, *first), *((row, *fault) for fault in rest)],
                [(row, *first), *((later, *fault) for fault in rest)],
                [*((row, *fault) for fault in rest), (later, *first)],
            ):
                pubs.write_text(_corrupted(clean, edits))
                columnar, reference = _both_outcomes(staff, pubs, medians)
                assert columnar == reference, edits
                errors += columnar[0] == "error"
        assert errors >= 3 * (len(self.CORRUPTION_PAIRS) + len(self.CORRUPTION_TRIPLES))


def _shuffled_copy(rng, path, out):
    """A copy of the CSV file at ``path`` under ``out``, its rows shuffled
    and, in a publications file, the categories of each cell permuted."""
    header, *rows = path.read_text().splitlines()
    rng.shuffle(rows)
    columns = header.split(",")
    if "categories" in columns:
        i = columns.index("categories")
        for n, row in enumerate(rows):
            cells = row.split(",")
            categories = cells[i].split(";")
            cells[i] = ";".join(rng.sample(categories, len(categories)))
            rows[n] = ",".join(cells)
    (out / path.name).write_text("\n".join([header, *rows]) + "\n")
    return out / path.name


def _assess_files(files, out):
    """The bytes of each file that ``bibdea assess`` writes for ``files``."""
    staff, pubs, medians = map(str, files)
    argv = ["assess", "--staff", staff, "--publications", pubs, "--medians", medians,
            "--no-filter", "--format", "json,csv,svg", "--out", str(out)]
    assert main(argv) == 0
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


class TestOrderIndependence:
    """Each SS is an exactly rounded sum, so no order of the input rows or
    of a cell's categories moves a score."""

    @pytest.mark.parametrize("seed", range(3))
    def test_shuffled_census_writes_the_same_files(self, tmp_path, seed):
        rng = random.Random(f"shuffle:{seed}")
        for name in ("in", "shuffled"):
            (tmp_path / name).mkdir()
        files = _synthetic_census(rng, tmp_path / "in")
        shuffled = [_shuffled_copy(rng, path, tmp_path / "shuffled") for path in files]
        pubs = files[1].read_text().splitlines()
        moved = shuffled[1].read_text().splitlines()
        assert sorted(pubs) != sorted(moved)  # some cell's categories were permuted
        expected = _assess_files(files, tmp_path / "out")
        assert len(expected) == 13  # report.json, 4 CSVs, 8 SVGs
        assert _assess_files(shuffled, tmp_path / "shuffled_out") == expected

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_ingest_ss_is_scientific_strength_in_any_order(self, data):
        table = MedianTable(
            entries={(2005, "A"): 0.1, (2005, "B"): 0.3, (2005, "C"): 0.7, (2005, "Z"): 0.0},
            means={(2005, "Z"): 2.3},
        )
        units = ["U0", "U1", "U2"]
        records = {}
        for n in range(data.draw(st.integers(1, 24), label="publications")):
            authors = data.draw(st.integers(1, 6))
            record = PublicationRecord(
                pub_id=f"P{n}",
                year=2005,
                citations=data.draw(st.integers(0, 50)),
                categories=data.draw(st.lists(st.sampled_from("ABCZ"), min_size=1, max_size=3,
                                              unique=True)),
                total_authors=authors,
                dmu_author_positions=data.draw(st.lists(st.integers(1, authors), unique=True)),
                life_science=data.draw(st.booleans()),
            )
            records[record] = data.draw(st.sampled_from(units))
        rows = [
            [r.pub_id, unit, "S", r.year, r.citations, ";".join(r.categories), r.total_authors,
             ";".join(map(str, r.dmu_author_positions)), int(r.life_science)]
            for r, unit in data.draw(st.permutations(list(records.items())), label="file order")
        ]
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            staff = write_csv(tmp / "staff.csv", STAFF_HEADER, [[u, "S", 1, 0, 0] for u in units])
            medians = write_csv(
                tmp / "medians.csv",
                ["year", "category", "median", "mean"],
                [[y, c, m, table.means.get((y, c), "")] for (y, c), m in table.entries.items()],
            )
            pubs = write_csv(tmp / "pubs.csv", PUB_HEADER, rows)
            dataset = ingest(staff, pubs, medians)
        ss = dict(zip(dataset.units, dataset.ss.tolist()))
        for unit in units:
            mine = [r for r, u in records.items() if u == unit]
            order = data.draw(st.permutations(mine), label=f"{unit} order")
            permuted = [
                dataclasses.replace(r, categories=data.draw(st.permutations(r.categories)))
                for r in order
            ]
            assert ss[unit, "S"].hex() == scientific_strength(permuted, table).hex()


class TestMedianTableBuilder:
    # citation counts are ints, as in a PublicationRecord
    def test_even_count_midpoint(self):
        table = build_median_table([(2005, "A", 1), (2005, "A", 2), (2005, "A", 3), (2005, "A", 4)])
        assert table.median(2005, "A") == pytest.approx(2.5)
        assert table.mean(2005, "A") == pytest.approx(2.5)

    def test_odd_count(self):
        table = build_median_table([(2005, "A", 1), (2005, "A", 7), (2005, "A", 2)])
        assert table.median(2005, "A") == pytest.approx(2.0)

    def test_means_enable_zero_median_fallback(self):
        from bibdea import standardize_citations

        table = build_median_table([(2005, "A", 0), (2005, "A", 0), (2005, "A", 0), (2005, "A", 8)])
        assert table.median(2005, "A") == 0.0
        assert standardize_citations(4, 2005, ["A"], table) == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "entry, problem",
        [
            ((2005, "A", "3"), "citations must be an integer"),
            ((2005, "A", 3.0), "citations must be an integer"),
            ((2005, "A", True), "citations must be an integer"),
            ((2005, "A", -1), "citations must be >= 0"),
            ((2005.0, "A", 3), "year must be an integer"),
            (("2005", "A", 3), "year must be an integer"),
            ((True, "A", 3), "year must be an integer"),
        ],
    )
    def test_entries_a_publication_record_rejects(self, entry, problem):
        # a string count used to raise TypeError, and a float count was taken
        with pytest.raises(DataError, match=f"^{re.escape(repr(entry[:2]))}: {problem}$"):
            build_median_table([(2005, "A", 1), entry])


class TestLoadConfig:
    def test_defaults(self):
        config = load_config()
        assert config.costs == CostVector()
        assert config.quadrant_threshold == 0.5
        assert config.min_active_universities == 24

    def test_fixture_file(self, fixtures_dir):
        # the fixture spells out every setting at its default
        assert load_config(fixtures_dir / "config.json") == AssessmentConfig()

    def test_partial_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"costs": {"ap": 50.0}, "quadrant_threshold": 0.6}')
        config = load_config(path)
        assert config.costs.ap_cost == 50.0
        assert config.costs.fp_cost == CostVector().fp_cost
        assert config.quadrant_threshold == 0.6

    def test_no_path_gives_the_defaults_whatever_the_env(self, tmp_path, monkeypatch):
        # load_config(None) used to fall back to the file BIBDEA_CONFIG named
        path = tmp_path / "cfg.json"
        path.write_text('{"quadrant_threshold": 0.6}')
        monkeypatch.setenv("BIBDEA_CONFIG", str(path))
        assert load_config() == AssessmentConfig()

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

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("[0.5]", "config must be a JSON object"),
            ('{"costs": [1, 2, 3]}', "costs must be an object with fp/ap/rf keys"),
            ('{"costs": {"fp": 100, "pa": 80}}', "unknown cost keys ['pa']"),
        ],
        ids=["not-an-object", "costs-not-an-object", "unknown-cost-key"],
    )
    def test_config_shape_errors_name_the_file(self, tmp_path, text, problem):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(DataError) as err:
            load_config(path)
        assert str(err.value) == f"cfg.json: {problem}"

    def test_byte_order_mark_is_dropped(self, tmp_path, fixtures_dir):
        path = tmp_path / "cfg.json"
        path.write_bytes(b"\xef\xbb\xbf" + (fixtures_dir / "config.json").read_bytes())
        assert load_config(path) == load_config(fixtures_dir / "config.json")

    def test_invalid_threshold_rejected(self):
        with pytest.raises(DataError):
            AssessmentConfig(quadrant_threshold=1.5)

    # Tables print 3 decimals and reports carry no census date, so any value
    # of these two former settings, valid or not, is an unknown key.
    @pytest.mark.parametrize(
        "key, value",
        [
            ("reporting_precision", 3),
            ("reporting_precision", 0),
            ("reporting_precision", -1),
            ("reporting_precision", 18),
            ("reporting_precision", 2**31),
            ("census_date", "2009-06-30"),
        ],
    )
    def test_removed_settings_are_unknown_keys(self, tmp_path, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: value, "quadrant_threshold": 0.6}))
        with pytest.raises(DataError) as err:
            load_config(path)
        assert str(err.value) == f"cfg.json: unknown config keys ['{key}']"

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'{"quadrant_threshold": "\xff"}', "cfg.json line 1: not UTF-8"),
            (b'{"min_active_universities": 1' + b"0" * 5000 + b"}", "cfg.json: invalid JSON"),
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
    def test_mistyped_field_rejected(self, field, value, tmp_path):
        # reporting_precision and census_date are no settings: unknown keys
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({field: value}))
        with pytest.raises(DataError) as err:
            load_config(path)
        assert field in str(err.value)

    # analytics.efficiency_matrix and eligibility_filter apply the same rules
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("quadrant_threshold", "0.5", "quadrant_threshold must be a number, not '0.5'"),
            ("quadrant_threshold", 1.5, "quadrant_threshold must lie in [0, 1]"),
            ("min_fraction_publishing", math.nan, "min_fraction_publishing must lie in [0, 1]"),
            ("min_active_universities", 2.0, "min_active_universities must be an integer, not 2.0"),
            ("min_active_universities", -1, "min_active_universities must be >= 0"),
        ],
    )
    def test_field_messages(self, field, value, message):
        with pytest.raises(DataError) as err:
            AssessmentConfig(**{field: value})
        assert str(err.value) == message

    # run_assessment used to fail on them with an AttributeError
    @pytest.mark.parametrize(
        "costs", [(1, 2, 3), {"fp": 1.0, "ap": 1.0, "rf": 1.0}, None], ids=["tuple", "dict", "None"]
    )
    def test_costs_must_be_a_cost_vector(self, costs):
        with pytest.raises(DataError, match="^costs must be a CostVector, not "):
            AssessmentConfig(costs=costs)


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
        dataset = AssessmentDataset(
            [(d, "S/01") for d in members],
            [u[:3] for u in members.values()],
            [u[3] for u in members.values()],
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

    def test_scores_without_peers_or_score_objects(self, fixtures_dir, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the pipeline prints no peers and needs no score objects")

        monkeypatch.setattr(dea, "_peers", refuse)
        monkeypatch.setattr(EfficiencyScores, "__post_init__", refuse)
        report = run_assessment(ingest(fixtures_dir / "pharm_chem_staff.csv"))
        assert len(report.sds_results["CHIM/08"].rows) == 28

    def test_ce_divides_by_the_printed_staff_cost(self, fixtures_dir):
        # ae recomputed from the report's own ss, te and staff_cost by the
        # closed form of ce: the lowest cost per unit of output in the SDS
        report = run_assessment(ingest(fixtures_dir / "pharm_chem_staff.csv"))
        rows = report.sds_results["CHIM/08"].rows
        best = min(r.staff_cost / r.ss for r in rows if r.ss > 0)
        for r in rows:
            ce = min(r.ss * best / r.staff_cost, 1.0)
            ae = min(1.0, ce / r.te) if r.te else 0.0
            assert ae.hex() == r.ae.hex(), r.dmu_id
            assert r.ce == r.te * r.ae

    def test_staff_cost_and_productivity_ratio_are_the_columns(self, fixtures_dir):
        dataset = ingest(fixtures_dir / "pharm_chem_staff.csv")
        years = dict(zip(dataset.units, dataset.years.tolist()))
        for row in run_assessment(dataset).sds_results["CHIM/08"].rows:
            dmu = DmuInput(row.dmu_id, row.sds_id, *years[row.dmu_id, row.sds_id])
            assert staff_cost(dmu).hex() == row.staff_cost.hex()
            assert productivity_ratio(row.ss, dmu).hex() == row.ss_per_staff_year.hex()
        # exact inputs are taken as floats
        exact = DmuInput("U", "S", 1, Fraction(1, 3), 2)
        cost = staff_cost(exact, CostVector(3, 2, 1))
        ratio = productivity_ratio(Fraction(1, 2), exact)
        assert type(cost) is float and cost == 1.0 * 3.0 + (1 / 3) * 2.0 + 2.0 * 1.0
        assert type(ratio) is float and ratio == 0.5 / (1.0 + 1 / 3 + 2.0)

    def test_exact_staff_years_are_reported_as_floats(self, tmp_path):
        units = [("U1", "S/01"), ("U2", "S/01"), ("U3", "S/01")]
        exact = [[Fraction(1, 3), 1, 2], [1, 0, 0], [2, Fraction(5, 2), 1]]
        written = {}
        for name, years in (("exact", exact), ("float", [list(map(float, r)) for r in exact])):
            dataset = AssessmentDataset(units, years, [1.0, 2.0, 0.5])
            report = run_assessment(dataset, apply_filter=False)
            rows = report.sds_results["S/01"].rows
            assert {type(v) for r in rows for v in r[3:6]} == {float}
            written[name] = emit(report, ["json", "csv"], tmp_path / name)
        assert [p.name for p in written["exact"]] == [p.name for p in written["float"]]
        for exact_file, float_file in zip(written["exact"], written["float"]):
            assert exact_file.read_bytes() == float_file.read_bytes(), exact_file.name

    def test_overflowing_staff_cost_is_a_data_error(self, tmp_path):
        rows = [["U1", "A/01", 1e307, 0, 0, 1.0], ["U2", "A/01", 1, 1, 1, 1.0]]
        staff = write_csv(tmp_path / "staff.csv", STAFF_HEADER + ["ss"], rows)
        with pytest.raises(DataError, match="A/01/U1: staff cost overflows"):
            run_assessment(ingest(staff), apply_filter=False)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"apply_filter": 0}, "apply_filter must be a bool, not 0"),
            ({"apply_filter": "no"}, "apply_filter must be a bool, not 'no'"),
            ({"apply_filter": np.False_}, "apply_filter must be a bool, not np.False_"),
            ({"config": {}}, "config must be an AssessmentConfig or None, not {}"),
            (
                {"config": {"quadrant_threshold": 0.4}},
                "config must be an AssessmentConfig or None, not {'quadrant_threshold': 0.4}",
            ),
        ],
        ids=["zero", "string", "numpy_bool", "empty_dict", "dict"],
    )
    def test_arguments_of_another_type_are_data_errors(self, fixtures_dir, kwargs, message):
        dataset = ingest(fixtures_dir / "pharm_chem_staff.csv")
        with pytest.raises(DataError) as err:
            run_assessment(dataset, **kwargs)
        assert str(err.value) == message

    def test_empty_dataset_errors(self):
        with pytest.raises(DataError):
            run_assessment(AssessmentDataset((), np.empty((0, 3)), ()))

    def test_dataset_needs_one_ss_per_staff_row(self):
        with pytest.raises(DataError, match="columns of unequal length"):
            AssessmentDataset([("U", "S")], [[1, 0, 0]], [])
        with pytest.raises(DataError, match="columns of unequal length"):
            AssessmentDataset([("U", "S")], [[1, 0, 0]], [1.0, 1.0])

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


def _hexed(obj) -> tuple:
    """A NamedTuple's or a dataclass's field values, floats by ``float.hex``."""
    values = tuple(obj) if isinstance(obj, tuple) else dataclasses.astuple(obj)
    return tuple(v.hex() if isinstance(v, float) else v for v in values)


class TestScoreColumns:
    """The pipeline's rows and aggregates, carried as columns, against the
    reference that builds them one unit at a time."""

    @staticmethod
    def assert_matches_reference(dataset, config, apply_filter=True):
        report = run_assessment(dataset, config, apply_filter)
        sds_rows, institutions = reference_results(dataset, config, apply_filter)
        assert {k: [_hexed(r) for r in res.rows] for k, res in report.sds_results.items()} == {
            k: [_hexed(r) for r in rows] for k, rows in sds_rows.items()
        }
        assert [inst.dmu_id for inst in report.institutions] == list(institutions)
        for inst in report.institutions:
            rows, aggregate = institutions[inst.dmu_id]
            assert [_hexed(r) for r in inst.rows] == [_hexed(r) for r in rows]
            assert _hexed(inst.aggregate) == _hexed(aggregate)
            # the same objects as the SDS rows
            for row in inst.rows:
                assert any(row is r for r in report.sds_results[row.sds_id].rows)
        return report

    @pytest.mark.parametrize("config", [None, "config.json"])
    def test_benchmark_fixture(self, fixtures_dir, config):
        config = load_config(fixtures_dir / config) if config else AssessmentConfig()
        dataset = ingest(fixtures_dir / "pharm_chem_staff.csv")
        self.assert_matches_reference(dataset, config)

    @pytest.mark.parametrize("apply_filter", [True, False])
    def test_computed_fixture(self, fixtures_dir, apply_filter):
        dataset = ingest(
            fixtures_dir / "lab_staff.csv",
            fixtures_dir / "lab_pubs.csv",
            fixtures_dir / "lab_medians.csv",
        )
        self.assert_matches_reference(dataset, AssessmentConfig(), apply_filter)

    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(st.sampled_from(["U1", "U2", "U3"]), st.sampled_from(["A/01", "B/01"])),
            st.tuples(
                # 1e306 full-professor years cost a finite 1.1e308, two of
                # them past the float range
                st.sampled_from([1e306]) | st.floats(0.1, 5),
                st.floats(0, 5),
                st.floats(0, 5),
                st.floats(0, 10),
            ),
            min_size=1,
        )
    )
    def test_institutions_are_the_scalar_aggregates(self, units):
        dataset = AssessmentDataset(
            list(units), [u[:3] for u in units.values()], [u[3] for u in units.values()]
        )
        config = AssessmentConfig()
        _, institutions = reference_results(dataset, config, apply_filter=False)
        overflowing = [k for k, (_, agg) in institutions.items() if agg.total_weight == math.inf]
        if not overflowing:
            self.assert_matches_reference(dataset, config, apply_filter=False)
            return
        message = f"institution {overflowing[0]!r}: staff cost summed over its SDSs overflows"
        with pytest.raises(DataError, match=message):
            run_assessment(dataset, config, apply_filter=False)

    def test_rows_behave_as_a_tuple(self, fixtures_dir):
        report = run_assessment(ingest(fixtures_dir / "pharm_chem_staff.csv"))
        rows = report.sds_results["CHIM/08"].rows
        assert isinstance(rows, tuple)
        assert len(rows) == 28
        as_tuple = tuple(rows)
        assert rows == as_tuple and as_tuple == rows and hash(rows) == hash(as_tuple)
        assert rows[1:3] == as_tuple[1:3] and rows[-1] is as_tuple[-1]
        assert repr(rows) == repr(as_tuple)
        inst = report.institution(as_tuple[0].dmu_id)
        assert inst.rows == (as_tuple[0],) and inst.rows[0] is as_tuple[0]


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
        ss = dict(zip(dataset.units, dataset.ss.tolist()))
        years = dict(zip(dataset.units, dataset.years.tolist()))
        for r in rows:
            key = (r["dmu_id"], r["sds_id"])
            assert ss[key] == r["ss"]  # exact, full precision
            assert years[key][0] == r["fp_years"]

    def test_svg_files_written(self, report, tmp_path):
        files = emit(report, ["svg"], tmp_path)
        names = {p.name for p in files}
        assert "matrix_CHIM_08.svg" in names
        assert "hist_ce_CHIM_08.svg" in names
        content = (tmp_path / "hist_ce_CHIM_08.svg").read_text()
        assert content.startswith("<svg")

    def test_svg_titles_escape_the_sds_id(self, tmp_path):
        rows = [[f"U{i}", "R&D<1>", 1 + i, 1, 1, 1.0 + i] for i in range(3)]
        staff = write_csv(tmp_path / "staff.csv", STAFF_HEADER + ["ss"], rows)
        report = run_assessment(ingest(staff), apply_filter=False)
        files = emit(report, ["svg"], tmp_path / "out")
        assert len(files) == 4
        for path in files:
            title = ElementTree.fromstring(path.read_bytes()).find(_SVG_TEXT)
            assert title.text.startswith("R&D<1> "), path.name

    def test_unknown_format_rejected(self, report, tmp_path):
        with pytest.raises(DataError):
            emit(report, ["pdf"], tmp_path)

    def test_no_format_is_rejected_before_the_directory_is_made(self, report, tmp_path):
        with pytest.raises(DataError, match=r"^no output formats; available: \['json'"):
            emit(report, [], tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_out_dir_created(self, report, tmp_path):
        target = tmp_path / "deep" / "nested"
        emit(report, ["json"], target)
        assert (target / "report.json").exists()

    @staticmethod
    def assert_csv_matches_reference(report, out):
        written = emit(report, ["csv"], out)
        expected = reference_csv_tables(report)
        assert [p.name for p in written] == list(expected)
        for path in written:
            assert path.read_bytes() == expected[path.name].encode(), path.name

    @pytest.mark.parametrize("config", [None, "config.json"])
    def test_csv_benchmark_fixture(self, fixtures_dir, tmp_path, config):
        config = load_config(fixtures_dir / config) if config else None
        report = run_assessment(ingest(fixtures_dir / "pharm_chem_staff.csv"), config)
        self.assert_csv_matches_reference(report, tmp_path)

    @pytest.mark.parametrize("apply_filter", [True, False])
    def test_csv_computed_fixture(self, fixtures_dir, tmp_path, apply_filter):
        dataset = ingest(
            fixtures_dir / "lab_staff.csv",
            fixtures_dir / "lab_pubs.csv",
            fixtures_dir / "lab_medians.csv",
        )
        report = run_assessment(dataset, apply_filter=apply_filter)
        assert any(not e.included for e in report.eligibility) == apply_filter
        self.assert_csv_matches_reference(report, tmp_path)

    def test_csv_ids_that_need_quoting(self, tmp_path):
        staff = _odd_census(tmp_path / "staff.csv")
        report = run_assessment(ingest(staff), AssessmentConfig(min_active_universities=3))
        self.assert_csv_matches_reference(report, tmp_path / "out")

    def test_csv_single_sds_view(self, report, tmp_path):
        # emit takes any report, here one with no institutions
        single = dataclasses.replace(report, institutions=())
        self.assert_csv_matches_reference(single, tmp_path)
        assert (tmp_path / "institutions.csv").read_text() == (
            "dmu_id,n_sds,staff_cost,te,ae,ce,te_pct,ae_pct,ce_pct\n"
        )

    def test_views_swapped_between_results(self, tmp_path):
        # an institution's rows as an SDS's rows, and the reverse
        staff = _odd_census(tmp_path / "staff.csv")
        report = run_assessment(ingest(staff), AssessmentConfig(min_active_universities=3))
        first, *rest = report.institutions
        (sds_id, result), *_ = report.sds_results.items()
        swapped = dataclasses.replace(
            report,
            sds_results={sds_id: dataclasses.replace(result, rows=first.rows)},
            institutions=(dataclasses.replace(first, rows=result.rows), *rest),
        )
        self.assert_csv_matches_reference(swapped, tmp_path / "csv")
        TestReportJson.assert_matches_reference(swapped, tmp_path / "json")
        assert len(emit(swapped, ["svg"], tmp_path / "svg")) == 4

    def test_rows_that_share_no_object_emit_the_same_bytes(self, tmp_path):
        # The pipeline's institution rows are its SDS rows' objects, whose
        # text report.json reuses; rebuilt, every row is written on its own.
        staff = _odd_census(tmp_path / "staff.csv")
        report = run_assessment(ingest(staff), AssessmentConfig(min_active_universities=3))

        def rebuilt(result):
            return dataclasses.replace(result, rows=tuple(row._replace() for row in result.rows))

        copy = dataclasses.replace(
            report,
            sds_results={k: rebuilt(result) for k, result in report.sds_results.items()},
            institutions=tuple(map(rebuilt, report.institutions)),
        )
        assert copy == report
        sds_rows = {id(row) for result in copy.sds_results.values() for row in result.rows}
        assert not sds_rows & {id(row) for inst in copy.institutions for row in inst.rows}
        emit(report, ["json", "csv"], tmp_path / "pipeline")
        for path in emit(copy, ["json", "csv"], tmp_path / "rebuilt"):
            assert path.read_bytes() == (tmp_path / "pipeline" / path.name).read_bytes()

    def test_csv_single_institution(self, tmp_path):
        rows = [["U1", "ONE/01", 1, 1, 1, 1.0], ["U1", "TWO/01", 1, 0, 0, 0.0]]
        staff = write_csv(tmp_path / "staff.csv", STAFF_HEADER + ["ss"], rows)
        report = run_assessment(ingest(staff), apply_filter=False)
        self.assert_csv_matches_reference(report, tmp_path / "out")
        lines = (tmp_path / "out" / "institutions.csv").read_text().splitlines()
        assert lines[1].startswith("U1,2,") and lines[1].endswith(",,,")


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


# Finite values a hand-built report may hold where the pipeline writes a
# float; the non-finite ones raise (TestReportJson's explicit cases).
_ODD_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, sys.float_info.max]),
    st.integers(-(10**20), 10**20),
    st.booleans(),
)
_ODD_PCTS = st.none() | _ODD_NUMBERS
# with the text of an empty rows list, as is and quoted, which a writer that
# splices rows into the text where it reads so would trip on
_ODD_IDS = st.text(max_size=6) | st.sampled_from(
    ['"quoted"', "line\nbreak", "Università", "東京", '"rows": []', 'x\\"rows\\": []']
)
_SCORE_ROWS = st.builds(
    ScoreRow,
    **{
        name: _ODD_IDS if name.endswith("_id") else _ODD_PCTS if name.endswith("_pct")
        else _ODD_NUMBERS
        for name in ScoreRow._fields
    },
)
_HISTOGRAMS = st.builds(
    Histogram,
    counts=st.lists(st.integers(0, 10**6), max_size=5).map(tuple),
    median=_ODD_NUMBERS,
    bin_width=_ODD_NUMBERS,
)
_SDS_RESULTS = st.builds(
    SdsResult,
    sds_id=_ODD_IDS,
    rows=st.lists(_SCORE_ROWS, max_size=4).map(tuple),
    histograms=st.fixed_dictionaries({"te": _HISTOGRAMS, "ae": _HISTOGRAMS, "ce": _HISTOGRAMS}),
    quadrants=st.builds(QuadrantSummary, *[st.integers(0, 10**6)] * 4),
)
_AGGREGATES = st.builds(
    AggregateScores,
    te=_ODD_NUMBERS,
    ae=_ODD_NUMBERS,
    ce=_ODD_NUMBERS,
    total_weight=_ODD_NUMBERS,
    te_pct=_ODD_PCTS,
    ae_pct=_ODD_PCTS,
    ce_pct=_ODD_PCTS,
)
_ELIGIBILITY = st.builds(
    EligibilityEntry,
    sds_id=_ODD_IDS,
    included=st.booleans(),
    universities_active=st.integers(0, 10**6),
    fraction_publishing=_ODD_NUMBERS,
    failed_criteria=st.lists(_ODD_IDS, max_size=2).map(tuple),
    filter_applied=st.booleans(),
)


@st.composite
def _odd_reports(draw):
    """A report put together by hand: 0-3 SDSs of 0-4 rows, 0-3 institutions
    whose rows are SDS rows or rows of their own."""
    sds_results = draw(st.dictionaries(_ODD_IDS, _SDS_RESULTS, max_size=3))
    pool = [row for res in sds_results.values() for row in res.rows]
    rows = st.sampled_from(pool) | _SCORE_ROWS if pool else _SCORE_ROWS
    institutions = st.builds(
        InstitutionResult,
        dmu_id=_ODD_IDS,
        rows=st.lists(rows, max_size=3).map(tuple),
        aggregate=_AGGREGATES,
    )
    return AssessmentReport(
        ss_mode=draw(st.sampled_from(["passthrough", "computed"])),
        quadrant_threshold=draw(_ODD_NUMBERS),
        eligibility=tuple(draw(st.lists(_ELIGIBILITY, max_size=3))),
        sds_results=sds_results,
        institutions=tuple(draw(st.lists(institutions, max_size=3))),
    )


def _hand_report(sds_rows, institution_rows):
    """A report put together by hand from each SDS's rows and each
    institution's rows, with one histogram and aggregate throughout."""
    hist = Histogram((1, 0, 0, 0, 1), 0.5)
    return AssessmentReport(
        ss_mode="passthrough",
        quadrant_threshold=0.5,
        eligibility=(),
        sds_results={
            sds_id: SdsResult(
                sds_id, rows, dict.fromkeys(("te", "ae", "ce"), hist), QuadrantSummary(0, 0, 1, 0)
            )
            for sds_id, rows in sds_rows.items()
        },
        institutions=tuple(
            InstitutionResult(dmu_id, rows, AggregateScores(0.8, 0.5, 0.4, 200.0))
            for dmu_id, rows in institution_rows.items()
        ),
    )


def _hand_row(dmu_id, sds_id):
    scores = (0.8, 0.5, 0.4, 200.0, 1.0, 50.0, 0.0, 100.0)
    return ScoreRow(dmu_id, sds_id, 1.5, 1.0, 0.5, 0.0, *scores)


class TestReportJson:
    """``emit``'s report.json, byte for byte against the standard library's
    compact, key-sorted encoding of the report's fields; a report holding a
    non-finite float is a ``ValueError`` instead, since strict JSON readers
    reject ``NaN`` and ``Infinity``."""

    @settings(max_examples=100, deadline=None)
    @given(report=_odd_reports())
    def test_reports_put_together_by_hand(self, report, tmp_path_factory):
        self.assert_matches_reference(report, tmp_path_factory.getbasetemp() / "by_hand")

    @staticmethod
    def assert_matches_reference(report, out):
        reference = reference_report_json(report)
        non_finite = []  # the reference's NaN, Infinity and -Infinity tokens
        json.loads(reference, parse_constant=non_finite.append)
        if non_finite:
            with pytest.raises(ValueError, match="^Out of range float values"):
                emit(report, ["json"], out)
        else:
            emit(report, ["json"], out)
            assert (out / "report.json").read_bytes() == reference.encode()

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
        # integers and booleans are written as json.dumps writes them, and
        # non-finite floats raise
        report = run_assessment(ingest(fixtures_dir / "pharm_chem_staff.csv"))
        result = report.sds_results["CHIM/08"]
        first = result.rows[0]._replace(
            fp_years=2, ap_years=True, ss_per_staff_year=(0.5, {"b": [], "a": [None, "x"]})
        )
        for row in first, first._replace(ss=math.inf, ce=-math.inf, te=math.nan):
            odd = dataclasses.replace(
                report,
                quadrant_threshold=1,
                sds_results={"CHIM/08": dataclasses.replace(result, rows=(row, *result.rows[1:]))},
            )
            self.assert_matches_reference(odd, tmp_path)

    def test_single_unit_sds_has_no_percentiles(self, tmp_path):
        rows = [
            ["U1", "ONE/01", 1, 1, 1, 1.0],
            ["U1", "TWO/01", 1, 0, 0, 1.0],
            ["U2", "TWO/01", 2, 1, 0, 3.0],
        ]
        staff = write_csv(tmp_path / "staff.csv", STAFF_HEADER + ["ss"], rows)
        report = run_assessment(ingest(staff), apply_filter=False)
        (row,) = report.sds_results["ONE/01"].rows
        assert (row.te_pct, row.ae_pct, row.ce_pct) == (None, None, None)
        self.assert_matches_reference(report, tmp_path)

    def test_finite_and_non_finite_score_columns(self, tmp_path):
        # FIN/01's score columns are all finite, ODD/01's te and ce are not;
        # U3 has one row, U1 and U2 one in each SDS
        rows = [
            ["U1", "FIN/01", 1, 1, 1, 1.0],
            ["U2", "FIN/01", 2, 1, 0, 3.0],
            ["U3", "FIN/01", 1, 2, 1, 2.0],
            ["U1", "ODD/01", 1, 0, 1, 1.0],
            ["U2", "ODD/01", 2, 1, 1, 4.0],
        ]
        staff = write_csv(tmp_path / "staff.csv", STAFF_HEADER + ["ss"], rows)
        report = run_assessment(ingest(staff), apply_filter=False)
        odd = report.sds_results["ODD/01"]
        first, second = odd.rows
        changed = {
            id(first): first._replace(te=math.nan, ce=-math.inf),
            id(second): second._replace(te=math.inf),
        }
        report = dataclasses.replace(
            report,
            sds_results={
                **report.sds_results,
                "ODD/01": dataclasses.replace(odd, rows=tuple(changed.values())),
            },
            institutions=tuple(
                dataclasses.replace(inst, rows=tuple(changed.get(id(r), r) for r in inst.rows))
                for inst in report.institutions
            ),
        )
        assert [(i.dmu_id, len(i.rows)) for i in report.institutions] == [
            ("U1", 2),
            ("U2", 2),
            ("U3", 1),
        ]
        self.assert_matches_reference(report, tmp_path)

    @staticmethod
    def census_report(fixtures_dir, tmp_path, census):
        if census == "odd":
            dataset = ingest(_odd_census(tmp_path / "staff.csv"))
        elif census == "lab":
            dataset = ingest(*(fixtures_dir / f"lab_{f}.csv" for f in ("staff", "pubs", "medians")))
        else:
            dataset = ingest(fixtures_dir / "pharm_chem_staff.csv")
        return run_assessment(dataset, apply_filter=census == "pharm_chem")

    @pytest.mark.parametrize("census", ["pharm_chem", "lab", "odd"])
    def test_file_is_the_compact_key_sorted_encoding_of_its_content(
        self, fixtures_dir, tmp_path, census
    ):
        # a check of the layout that does not go through the reference
        report = self.census_report(fixtures_dir, tmp_path, census)
        (path,) = emit(report, ["json"], tmp_path / "out")
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
        assert "\n" not in text[:-1] and text.isascii()

    @pytest.mark.parametrize("census", ["pharm_chem", "lab", "odd"])
    def test_institution_rows_reference_their_sds_rows(self, fixtures_dir, tmp_path, census):
        # Each score row is written once, under its SDS; an institution names
        # the SDS of each of its rows, in the order of InstitutionResult.rows
        report = self.census_report(fixtures_dir, tmp_path, census)
        out = tmp_path / "out"
        emit(report, ["json", "csv"], out)
        payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
        with open(out / "institutions.csv", newline="", encoding="utf-8") as fh:
            n_sds = [int(line["n_sds"]) for line in csv.DictReader(fh)]
        entries = payload["institutions"]
        assert [e["dmu_id"] for e in entries] == [i.dmu_id for i in report.institutions]
        assert [len(e["rows"]) for e in entries] == n_sds
        for entry, inst in zip(entries, report.institutions, strict=True):
            assert all(list(ref) == ["sds_id"] for ref in entry["rows"])
            assert [ref["sds_id"] for ref in entry["rows"]] == [r.sds_id for r in inst.rows]
            for ref, row in zip(entry["rows"], inst.rows):
                sds_rows = payload["sds"][ref["sds_id"]]["rows"]
                assert [r for r in sds_rows if r["dmu_id"] == entry["dmu_id"]] == [row._asdict()]
        if census == "odd":
            assert max(n_sds) > 1

    def test_institution_without_rows(self, tmp_path):
        row = _hand_row("U1", "S/01")
        report = _hand_report({"S/01": (row,)}, {"U1": (row,), "U2": ()})
        self.assert_matches_reference(report, tmp_path)
        payload = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert [e["rows"] for e in payload["institutions"]] == [[{"sds_id": "S/01"}], []]

    def test_sds_ids_that_need_escaping_in_institution_rows(self, tmp_path):
        ids = ['"rows": []', "東京/01", 'MED "02"', 'x\\"rows\\": []']
        rows = {sds_id: (_hand_row("U1", sds_id), _hand_row("U2", sds_id)) for sds_id in ids}
        report = _hand_report(rows, {
            "U1": tuple(rows[s][0] for s in reversed(ids)),
            "U2": (rows[ids[2]][1], rows[ids[0]][1]),
        })
        self.assert_matches_reference(report, tmp_path)
        payload = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert [[r["sds_id"] for r in e["rows"]] for e in payload["institutions"]] == [
            ids[::-1],
            [ids[2], ids[0]],
        ]

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
