"""File ingestion and report emission.

Input files are UTF-8 CSV (a leading byte order mark is dropped) with a
mandatory header row and period decimal separators. A number cell holds
ASCII only, with no ``_`` separator:

  staff:        dmu_id, sds_id, fp_years, ap_years, rf_years [, ss]
  publications: pub_id, dmu_id, sds_id, year, citations, categories,
                total_authors, dmu_positions, life_science
                (categories / dmu_positions are semicolon-joined)
  medians:      year, category, median [, mean]

The staff file is read into columns, with no object per row. Its optional
``ss`` column switches the dataset to passthrough mode, in which the staff
file is the one input file and a publications or medians file is an
error; otherwise both are required, and each publication's contribution
is kept with its staff row as it is read. A staff row's SS is the
``math.fsum`` of its contributions, exactly rounded, so it depends on
neither the order of the publication rows nor the Python version; a row in
which the unit holds no byline position contributes nothing, however large
its standardized citations. The optional ``mean`` column feeds the
zero-median fallback.

One function, ``_csv_rows``, holds the shape rule of all three files. A
column that is read (a listed one, or the optional ``ss`` or ``mean``)
must be named once in the header: a repeated one is a data error naming
the file. Unknown extra columns, repeated or not, and cells past the
header's width are ignored, which lets emitted score tables be
re-ingested; blank lines are skipped. A row with fewer cells than the
header, bytes that are not UTF-8 and a cell over the csv module's field
limit (131,072 characters) are data errors naming the file and line.

The publications file is read in one ``csv.reader`` pass, and no cell is
parsed per row. Each distinct raw (year, categories) cell, (total_authors,
dmu_positions, life_science) byline and citations cell is checked on its
own, once, on the first row that has it, and only a valid one is kept: the
cell's divisor, the byline's fractional count or the citation count. A bad
row raises at its own line: its first malformed number cell, in the order
dmu_positions, life_science, year, citations, total_authors; otherwise the
``DataError`` of the ``PublicationRecord`` built from it. No record is
built for a valid row.
Faults that only the whole file shows are raised after the pass, the first
in this order: unknown staff keys, uncovered (year, category) pairs, the
first cited row without a usable divisor, an SS past the float range.

Emission is deterministic: identical inputs produce byte-identical output.
"""

import contextlib
import csv
import dataclasses
import json
import math
import operator
import os
import re
import statistics
from array import array
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .bibliometrics import citation_divisor, divide_citations, fractional_count
from .model import (
    AssessmentDataset,
    CostVector,
    DataError,
    MedianTable,
    PublicationRecord,
    categories_problem,
    citations_problem,
    staff_years_problems,
    unit_key_problem,
    year_problem,
)
from .report import AssessmentConfig, AssessmentReport, ScoreRow, SdsResult

_YEARS = ("fp_years", "ap_years", "rf_years")
_STAFF_COLUMNS = ("dmu_id", "sds_id", *_YEARS)
_PUB_COLUMNS = (
    "pub_id",
    "dmu_id",
    "sds_id",
    "year",
    "citations",
    "categories",
    "total_authors",
    "dmu_positions",
    "life_science",
)
_MEDIAN_COLUMNS = ("year", "category", "median")


@contextlib.contextmanager
def _csv_rows(path: Path, required: tuple[str, ...], optional: str | None = None):
    """Open the CSV file at ``path`` and yield its rows, checked by the one
    shape rule of the module docstring: the header names each ``required``
    column, and each column read (those and ``optional``, if present) once.
    A row is ``(line, cells)``: the cells of the required columns, then
    that of ``optional`` if the header has it.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, [])
            missing = [c for c in required if c not in header]
            if missing:
                raise DataError(f"{path.name}: missing columns {missing}")
            read = (*required, optional) if optional in header else required
            repeated = [c for c in read if header.count(c) > 1]
            if repeated:
                raise DataError(f"{path.name}: repeated columns {repeated}")
            yield _cells(reader, path, operator.itemgetter(*map(header.index, read)), len(header))
        except UnicodeDecodeError as exc:
            raise DataError(
                f"{path.name} line {_undecodable_line(path)}: not UTF-8 ({exc.reason})"
            ) from None
        except csv.Error as exc:
            raise DataError(f"{path.name} line {reader.line_num}: {exc}") from None


def _cells(reader, path: Path, fields, width: int):
    for row in reader:
        if len(row) >= width:
            yield reader.line_num, fields(row)
        elif row:
            line = reader.line_num
            raise DataError(f"{path.name} line {line}: {len(row)} cells, header has {width}")


def _undecodable_line(path: Path) -> int:
    # The decoder reads ahead in blocks, so the line is found from the bytes.
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return data.count(b"\n", 0, exc.start) + 1
    return 0


def _number(kind: type, raw: str) -> int | float | None:
    """``kind(raw)``, int or float, or None if ``raw`` is no finite number in
    CSV syntax: ``int`` and ``float`` also take ``_`` separators and
    non-ASCII digits and spaces, which no such number has."""
    if raw.isascii() and "_" not in raw:
        try:
            value = kind(raw)
        except ValueError:
            return None
        if value - value == 0:  # not inf or nan, whose difference is nan
            return value
    return None


def _parse(kind: type, raw: str, path: Path, line: int, column: str) -> int | float:
    if (value := _number(kind, raw)) is None:
        raise DataError(f"{path.name} line {line}: bad {column} value {raw!r}")
    return value


def _read_staff(path: Path):
    """Each key's row in file order, the staff-years array and the ss column or None."""
    index: dict[tuple[str, str], int] = {}
    years, ss, lines = [], [], []
    with _csv_rows(path, _STAFF_COLUMNS, "ss") as rows:
        for line, (dmu, sds, fp, ap, rf, *ss_cell) in rows:
            key = (dmu, sds)
            if problem := unit_key_problem(key):
                raise DataError(f"{path.name} line {line}: {problem}")
            if key in index:
                raise DataError(f"{path.name} line {line}: duplicate staff row for {key}")
            index[key] = len(lines)
            lines.append(line)
            years.append([_parse(float, v, path, line, c) for c, v in zip(_YEARS, (fp, ap, rf))])
            for raw in ss_cell:  # one cell if the header has the ss column, else none
                if not raw.strip():
                    raise DataError(f"{path.name} line {line}: ss column present but value missing")
                value = _parse(float, raw, path, line, "ss")
                if value < 0:
                    raise DataError(f"{path.name} line {line}: negative ss {value}")
                ss.append(value)
    if not index:
        raise DataError(f"{path.name}: no staff rows")
    years = np.array(years)
    if problems := staff_years_problems(years):
        i, problem = problems[0]
        dmu_id, sds_id = list(index)[i]
        raise DataError(f"{path.name} line {lines[i]}: {sds_id}/{dmu_id}: {problem}")
    return index, years, ss or None  # every row has an ss cell, or none has


def _scan_publications(
    path: Path, index: dict[tuple[str, str], int], medians: MedianTable
) -> tuple[int, list[float]]:
    """Check the publications file and score each staff row of ``index``.

    Returns the row count and each staff row's SS, in ``index`` order: the
    ``math.fsum`` of its rows' contributions, 0.0 for a row without any.
    Checks and faults are as the module docstring says. The caches hold valid
    entries only: a row whose key its entry function rejects raises
    :func:`_row_fault`, which builds the row's record. Unknown keys and
    uncovered pairs are named with their first lines, the cited row by its
    line, an SS past the float range by its staff row's last cited line.
    """
    cells: dict[tuple[str, str], tuple] = {}  # -> (divisor, year, categories)
    bylines: dict[tuple[str, str, str], float] = {}  # -> fractional count
    counts: dict[str, int] = {}  # raw citations -> count
    orphans: dict[tuple[str, str], int] = {}  # -> first line
    missing: dict[tuple[int, str], int] = {}  # -> first line
    undivided = None  # (line, citations, cell) of the first cited row without a divisor
    count = 0
    terms = [array("d") for _ in index]  # 8 bytes a term, where a float object takes 24
    last = [0] * len(index)  # each staff row's last cited line
    with _csv_rows(path, _PUB_COLUMNS) as rows:
        for line, row in rows:
            _, dmu, sds, year, cit, cat, authors, pos, life = row
            count += 1
            if (cell := cells.get((year, cat))) is None:
                if (cell := _cell_entry(year, cat, medians, missing, line)) is None:
                    raise _row_fault(path, line, row)
                cells[year, cat] = cell
            if (share := bylines.get((authors, pos, life))) is None:
                if (share := _byline_share(authors, pos, life)) is None:
                    raise _row_fault(path, line, row)
                bylines[authors, pos, life] = share
            if (citations := counts.get(cit)) is None:
                if (citations := _citation_count(cit)) is None:
                    raise _row_fault(path, line, row)
                counts[cit] = citations
            if (i := index.get((dmu, sds))) is None:
                orphans.setdefault((dmu, sds), line)
            elif citations:  # an uncited row adds +0.0, which moves no sum
                if divisor := cell[0]:
                    if share:  # no byline position adds nothing, even over a tiny divisor
                        terms[i].append(citations / divisor * share)
                    last[i] = line
                elif undivided is None:  # None, or a zero mean fallback
                    undivided = line, citations, cell
    for found, message in (
        (orphans, "publications reference unknown staff rows"),
        (missing, "median table does not cover"),
    ):
        if found:
            located = (f"{key} at {path.name} line {line}" for key, line in sorted(found.items()))
            raise DataError(f"{message}: {'; '.join(located)}")
    if undivided is not None:
        line, citations, cell = undivided
        try:
            divide_citations(citations, *cell)
        except DataError as exc:  # always: the error names the cell
            raise DataError(f"{path.name} line {line}: {exc}") from None
    ss = []
    for key, unit_terms, line in zip(index, terms, last):
        try:
            total = math.fsum(unit_terms)
        except OverflowError:  # finite terms whose exact sum rounds past the float range
            total = math.inf
        if not total < math.inf:  # a term is inf: a quotient past the float range
            raise DataError(
                f"{path.name} line {line}: scientific strength of {key} overflows a float"
            )
        ss.append(total)
    return count, ss


def _cell_entry(
    year: str, categories: str, medians: MedianTable, missing: dict, line: int
) -> tuple | None:
    """``(divisor, year, categories)`` of a raw (year, categories) cell, or
    None if a row with it is bad; notes its uncovered pairs in ``missing``
    at ``line`` unless seen before."""
    year, categories = _number(int, year), tuple(c for c in categories.split(";") if c)
    if year is None or categories_problem(categories):
        return None
    uncovered = [(year, c) for c in categories if not medians.covers(year, c)]
    for pair in uncovered:
        missing.setdefault(pair, line)
    divisor = None if uncovered else citation_divisor(year, categories, medians)
    return divisor, year, categories


def _byline_share(total_authors: str, positions: str, life_science: str) -> float | None:
    """Fractional count of a raw byline, or None if a row with it is bad."""
    held = [_number(int, p) for p in positions.split(";") if p]
    flag = life_science.strip()
    total = _number(int, total_authors)
    if None in held or flag not in ("0", "1") or total is None:
        return None
    try:
        return fractional_count(total, held, flag == "1")
    except DataError:
        return None


def _citation_count(citations: str) -> int | None:
    """The count of a raw citations cell, or None if a row with it is bad."""
    count = _number(int, citations)
    return None if count is None or citations_problem(count) else count


def _row_fault(path: Path, line: int, cells: tuple[str, ...]) -> DataError:
    """The error of a bad publications row, from its cells as
    :func:`_csv_rows` yields them, by the rule of the module docstring: a
    malformed number cell raises here; the record's error is returned with
    the line prefixed."""
    pub_id, _, _, year, citations, categories, total_authors, positions, life_science = cells
    held = [_parse(int, p, path, line, "dmu_positions") for p in positions.split(";") if p]
    flag = life_science.strip()
    if flag not in ("0", "1"):
        raise DataError(f"{path.name} line {line}: life_science must be 0 or 1")
    year = _parse(int, year, path, line, "year")
    citations = _parse(int, citations, path, line, "citations")
    total = _parse(int, total_authors, path, line, "total_authors")
    categories = [c for c in categories.split(";") if c]
    try:
        PublicationRecord(pub_id, year, citations, categories, total, held, flag == "1")
    except DataError as exc:
        return DataError(f"{path.name} line {line}: {exc}")
    raise AssertionError(f"{path.name} line {line}: an entry check rejected a valid record")


def _read_medians(path: Path) -> MedianTable:
    entries: dict[tuple[int, str], float] = {}
    means: dict[tuple[int, str], float] = {}
    with _csv_rows(path, _MEDIAN_COLUMNS, "mean") as rows:
        for line, (year, category, median, *mean) in rows:
            key = (_parse(int, year, path, line, "year"), category)
            if key in entries:
                raise DataError(f"{path.name} line {line}: duplicate median for {key}")
            entries[key] = _parse(float, median, path, line, "median")
            for raw in mean:  # one cell if the header has the mean column, else none
                if raw.strip():
                    means[key] = _parse(float, raw, path, line, "mean")
            if entries[key] < 0 or means.get(key, 0.0) < 0:
                label = "median" if entries[key] < 0 else "mean"
                raise DataError(f"{path.name} line {line}: negative reference {label} for {key}")
    return MedianTable(entries=entries, means=means)


def ingest(
    staff_path: str | os.PathLike,
    publications_path: str | os.PathLike | None = None,
    medians_path: str | os.PathLike | None = None,
) -> AssessmentDataset:
    """Load and cross-reference the input files into one validated dataset.

    This is where the output source is settled. A staff file with an ``ss``
    column is the one input file: a publications or medians path beside it
    is a :class:`DataError`, raised before either file is opened. Without
    one, both are required, and each staff row's SS is the exactly rounded
    sum (``math.fsum``) of its publication rows' contributions, whatever
    their order; no publication is kept, and staff rows without
    publications get 0.0.

    Referential checks: every publication's (dmu_id, sds_id) must match a
    staff row, and the median table must cover every (year, category) pair
    occurring in the publications. Their errors name the first line of each
    unknown key and uncovered pair.
    """
    index, years, ss = _read_staff(Path(staff_path))
    if ss is not None:
        if publications_path or medians_path:
            raise DataError(
                "staff file has an ss column, so no publications or medians file is read"
            )
        return AssessmentDataset(tuple(index), years, ss, "passthrough")
    if not publications_path:
        raise DataError(
            "staff file has no ss column and no publications file was given: no output source"
        )
    if not medians_path:
        raise DataError("computed output mode requires a medians file")
    medians = _read_medians(Path(medians_path))
    count, ss = _scan_publications(Path(publications_path), index, medians)
    return AssessmentDataset(tuple(index), years, ss, "computed", count)


def build_median_table(
    citations_by_key: Iterable[tuple[int, str, int]]
) -> MedianTable:
    """Build a reference table from raw per-publication citation counts.

    Medians use the midpoint of the two central order statistics for even
    counts; means, each from its exact int sum, are recorded alongside for
    the zero-median fallback. A year or count that a
    :class:`PublicationRecord` would reject is a :class:`DataError`.
    """
    grouped: dict[tuple[int, str], list[int]] = {}
    for year, category, citations in citations_by_key:
        if problem := year_problem(year) or citations_problem(citations):
            raise DataError(f"({year!r}, {category!r}): {problem}")
        grouped.setdefault((year, category), []).append(citations)
    return MedianTable(
        entries={key: float(statistics.median(vals)) for key, vals in grouped.items()},
        means={key: sum(vals) / len(vals) for key, vals in grouped.items()},
    )


def load_config(path: str | os.PathLike | None = None) -> AssessmentConfig:
    """Load the configuration file at ``path``; without one, the defaults."""
    if path is None:
        return AssessmentConfig()
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8-sig"))
    except UnicodeDecodeError as exc:
        raise DataError(
            f"{path.name} line {_undecodable_line(path)}: not UTF-8 ({exc.reason})"
        ) from None
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, or an integer past int()'s digit limit, or nesting
        # past the recursion limit
        raise DataError(f"{path.name}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise DataError(f"{path.name}: config must be a JSON object")
    unknown = sorted(set(raw) - {f.name for f in dataclasses.fields(AssessmentConfig)})
    if unknown:
        raise DataError(f"{path.name}: unknown config keys {unknown}")
    kwargs = dict(raw)
    costs = kwargs.pop("costs", {})
    if not isinstance(costs, dict):
        raise DataError(f"{path.name}: costs must be an object with fp/ap/rf keys")
    extra = sorted(set(costs) - {"fp", "ap", "rf"})
    if extra:
        raise DataError(f"{path.name}: unknown cost keys {extra}")
    try:
        if costs:
            kwargs["costs"] = CostVector(**{f"{k}_cost": v for k, v in costs.items()})
        return AssessmentConfig(**kwargs)
    except (TypeError, DataError) as exc:
        raise DataError(f"{path.name}: {exc}") from None


# --- emission ---

FORMATS = ("json", "csv", "svg")
# Decimals of a score in the CSV tables and the CLI's; report.json keeps full precision.
_TABLE_DECIMALS = 3


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", name)


def check_formats(formats: Iterable[str]) -> list[str]:
    """``formats`` as a list; none, or one not in ``FORMATS``, is a data error."""
    formats = list(formats)
    if not formats:
        raise DataError(f"no output formats; available: {list(FORMATS)}")
    unknown = sorted(set(formats) - set(FORMATS))
    if unknown:
        raise DataError(f"unknown output formats {unknown}; available: {list(FORMATS)}")
    return formats


def emit(
    report: AssessmentReport,
    formats: Iterable[str],
    out_dir: str | os.PathLike,
) -> list[Path]:
    """Write the report to ``out_dir``; returns the files written.

    Score tables print floats to 3 decimals; the JSON report keeps full
    precision so it can be re-ingested losslessly. Formats that
    :func:`check_formats` rejects, and two SDSs whose ids share a file name
    slug when csv or svg is written, are data errors raised before
    ``out_dir`` is made.
    """
    formats = check_formats(formats)
    if {"csv", "svg"} & set(formats):
        slugs: dict[str, str] = {}
        for sds_id in sorted(report.sds_results):
            other = slugs.setdefault(_slug(sds_id), sds_id)
            if other != sds_id:
                raise DataError(
                    f"SDS ids {other!r} and {sds_id!r} share the output file name "
                    f"slug {_slug(sds_id)!r}"
                )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if "json" in formats:
        path = out / "report.json"
        path.write_text(_report_json(report), encoding="utf-8")
        written.append(path)
    if "csv" in formats:
        written.extend(_emit_csv(report, out))
    if "svg" in formats:
        written.extend(_emit_svg(report, out))
    return written


def _report_json(report: AssessmentReport) -> str:
    """The text of report.json. Without ``indent``, ``json.dumps`` runs the
    stdlib's C encoder; the document is freed before the newline is added,
    so that it and two copies of the text are never held at once. A value
    that is not finite raises, never becomes a token that strict JSON
    readers reject."""
    return json.dumps(_report_document(report), sort_keys=True, allow_nan=False) + "\n"


def _report_document(report: AssessmentReport) -> dict:
    """The report's fields, with each score row under its SDS and an
    institution's rows as references ``{"sds_id": ...}`` to them."""
    return {
        "eligibility": list(map(vars, report.eligibility)),
        "institutions": [
            {
                "aggregate": vars(inst.aggregate),
                "dmu_id": inst.dmu_id,
                "rows": [{"sds_id": row.sds_id} for row in inst.rows],
            }
            for inst in report.institutions
        ],
        "quadrant_threshold": report.quadrant_threshold,
        "sds": {
            sds_id: {
                "histograms": {key: vars(h) for key, h in res.histograms.items()},
                "quadrants": vars(res.quadrants),
                "rows": [dict(zip(ScoreRow._fields, row)) for row in res.rows],
            }
            for sds_id, res in report.sds_results.items()
        },
        "ss_mode": report.ss_mode,
    }


_SCORE_HEADER = (
    "dmu_id",
    "sds_id",
    "ss",
    "fp_years",
    "ap_years",
    "rf_years",
    "te",
    "ae",
    "ce",
    "te_pct",
    "ae_pct",
    "ce_pct",
    "staff_cost",
    "ss_per_staff_year",
)
_INSTITUTION_HEADER = (
    "dmu_id",
    "n_sds",
    "staff_cost",
    "te",
    "ae",
    "ce",
    "te_pct",
    "ae_pct",
    "ce_pct",
)
# The staff_cost column is the aggregate's total weight.
_aggregate_values = operator.attrgetter("total_weight", *_INSTITUTION_HEADER[3:])
_ELIGIBILITY_HEADER = (
    "sds_id",
    "included",
    "universities_active",
    "fraction_publishing",
    "failed_criteria",
    "filter_applied",
)


def _score_columns(rows: Sequence[ScoreRow]) -> dict[str, tuple]:
    """The score rows' values, one tuple per ScoreRow field."""
    return dict(zip(ScoreRow._fields, zip(*rows) if rows else [()] * len(ScoreRow._fields)))


def _csv_tables(report: AssessmentReport):
    """Yield each CSV table as its file name, header and columns of values;
    flags are ints, so that they print as 1 and 0."""
    for sds_id, result in sorted(report.sds_results.items()):
        columns = _score_columns(result.rows)
        yield f"scores_{_slug(sds_id)}.csv", _SCORE_HEADER, [columns[n] for n in _SCORE_HEADER]
    institutions = report.institutions
    yield "institutions.csv", _INSTITUTION_HEADER, [
        [inst.dmu_id for inst in institutions],
        [len(inst.rows) for inst in institutions],
        *zip(*(_aggregate_values(inst.aggregate) for inst in institutions)),
    ]
    entries = report.eligibility
    yield "eligibility.csv", _ELIGIBILITY_HEADER, [
        [e.sds_id for e in entries],
        [int(e.included) for e in entries],
        [e.universities_active for e in entries],
        [e.fraction_publishing for e in entries],
        [";".join(e.failed_criteria) for e in entries],
        [int(e.filter_applied) for e in entries],
    ]


def _csv_column(values: Sequence) -> list[str]:
    """The cell of each value: None is empty, a float has ``_TABLE_DECIMALS``
    decimals and anything else is ``str``."""
    spec = f".{_TABLE_DECIMALS}f"
    return [
        "" if v is None else format(v, spec) if isinstance(v, float) else str(v) for v in values
    ]


def _emit_csv(report: AssessmentReport, out: Path) -> list[Path]:
    written = []
    for name, header, columns in _csv_tables(report):
        path = out / name
        cells = list(map(_csv_column, columns))
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(zip(*cells))
        written.append(path)
    return written


# Fixed-size canvases keep the generated graphics byte-stable.
_SVG_W, _SVG_H, _SVG_MARGIN = 360, 260, 40


def _svg_document(body: list[str], title: str) -> str:
    # xml.sax.saxutils.escape, without the urllib it imports
    title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">\n'
        f'<text x="{_SVG_W / 2:.1f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{title}</text>\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"


def _histogram_svg(result: SdsResult, measure: str) -> str:
    hist = result.histograms[measure]
    plot_w = _SVG_W - 2 * _SVG_MARGIN
    plot_h = _SVG_H - 2 * _SVG_MARGIN
    peak = max(max(hist.counts), 1)
    n = len(hist.counts)
    bar_w = plot_w / n
    body = [
        f'<line x1="{_SVG_MARGIN}" y1="{_SVG_H - _SVG_MARGIN}" x2="{_SVG_W - _SVG_MARGIN}" '
        f'y2="{_SVG_H - _SVG_MARGIN}" stroke="black"/>'
    ]
    for i, count in enumerate(hist.counts):
        h = plot_h * count / peak
        x = _SVG_MARGIN + i * bar_w
        y = _SVG_H - _SVG_MARGIN - h
        body.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w - 2:.1f}" height="{h:.1f}" '
            f'fill="#4477aa"/>'
        )
        body.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{y - 4:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{count}</text>'
        )
    for i in range(n + 1):
        x = _SVG_MARGIN + i * bar_w
        label = f"{i * hist.bin_width:.1f}"
        body.append(
            f'<text x="{x:.1f}" y="{_SVG_H - _SVG_MARGIN + 14}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{label}</text>'
        )
    title = f"{result.sds_id} {measure.upper()} distribution (median {hist.median:.3f})"
    return _svg_document(body, title)


def _matrix_svg(result: SdsResult, threshold: float) -> str:
    plot = _SVG_H - 2 * _SVG_MARGIN
    x0, y0 = _SVG_MARGIN, _SVG_H - _SVG_MARGIN

    def px(te: float) -> float:
        return x0 + te * plot

    def py(ae: float) -> float:
        return y0 - ae * plot

    body = [
        f'<rect x="{x0}" y="{y0 - plot}" width="{plot}" height="{plot}" '
        f'fill="none" stroke="black"/>',
        f'<line x1="{px(threshold):.1f}" y1="{y0}" x2="{px(threshold):.1f}" '
        f'y2="{y0 - plot}" stroke="#888" stroke-dasharray="4 3"/>',
        f'<line x1="{x0}" y1="{py(threshold):.1f}" x2="{x0 + plot}" '
        f'y2="{py(threshold):.1f}" stroke="#888" stroke-dasharray="4 3"/>',
        f'<text x="{x0 + plot / 2:.1f}" y="{_SVG_H - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">technical efficiency</text>',
        f'<text x="12" y="{y0 - plot / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11" '
        f'transform="rotate(-90 12 {y0 - plot / 2:.1f})">allocative efficiency</text>',
    ]
    for row in sorted(result.rows, key=operator.attrgetter("dmu_id")):
        body.append(
            f'<circle cx="{px(row.te):.1f}" cy="{py(row.ae):.1f}" r="3" '
            f'fill="#aa3344" fill-opacity="0.8"/>'
        )
    return _svg_document(body, f"{result.sds_id} efficiency matrix")


def _emit_svg(report: AssessmentReport, out: Path) -> list[Path]:
    written = []
    for sds_id, result in sorted(report.sds_results.items()):
        slug = _slug(sds_id)
        for measure in ("te", "ae", "ce"):
            path = out / f"hist_{measure}_{slug}.svg"
            path.write_text(_histogram_svg(result, measure), encoding="utf-8")
            written.append(path)
        path = out / f"matrix_{slug}.svg"
        path.write_text(_matrix_svg(result, report.quadrant_threshold), encoding="utf-8")
        written.append(path)
    return written
