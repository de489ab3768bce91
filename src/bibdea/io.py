"""File ingestion and report emission.

Input files are UTF-8 CSV with a mandatory header row and period decimal
separators:

  staff:        dmu_id, sds_id, fp_years, ap_years, rf_years [, ss]
  publications: pub_id, dmu_id, sds_id, year, citations, categories,
                total_authors, dmu_positions, life_science
                (categories / dmu_positions are semicolon-joined)
  medians:      year, category, median [, mean]

The optional ``ss`` column switches the whole dataset to passthrough mode;
otherwise output values are computed from publications and medians as the
publications are read, so every later stage sees one SS per staff row. The
optional ``mean`` column feeds the zero-median fallback. Unknown extra
columns and cells past the header's width are ignored, which lets emitted
score tables be re-ingested; blank lines are skipped. A row with fewer cells
than the header, bytes that are not UTF-8 and a cell over the csv module's
field limit (131,072 characters) are data errors naming the file and line.

The publications file is read in one ``csv.reader`` pass. Per row only the
citations are parsed and the staff key is looked up; the divisor of each
distinct (year, categories) cell and the fractional count of each distinct
(total_authors, dmu_positions, life_science) byline are validated and
computed once, on the first row that has them, so a bad row is still
reported at its own line with its own message.

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
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable

from .bibliometrics import citation_divisor, divide_citations, fractional_count
from .model import (
    MAX_CITATIONS,
    AssessmentDataset,
    CostVector,
    DataError,
    DmuInput,
    MedianTable,
    PublicationRecord,
)
from .report import AssessmentConfig, AssessmentReport, ScoreRow, SdsResult

CONFIG_ENV_VAR = "BIBDEA_CONFIG"

_STAFF_COLUMNS = ("dmu_id", "sds_id", "fp_years", "ap_years", "rf_years")
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
def _open_csv(path: Path, required: tuple[str, ...]):
    """Open a CSV file, check its header and yield ``(reader, column)``.

    ``column`` maps each header name to its cell index; a repeated name maps
    to its last cell. Bytes that are not UTF-8 and cells over the csv
    module's field limit are data errors naming the file and the line.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, [])
            missing = [c for c in required if c not in header]
            if missing:
                raise DataError(f"{path.name}: missing columns {missing}")
            yield reader, {name: i for i, name in enumerate(header)}
        except UnicodeDecodeError as exc:
            raise DataError(
                f"{path.name} line {_undecodable_line(path)}: not UTF-8 ({exc.reason})"
            ) from None
        except csv.Error as exc:
            raise DataError(f"{path.name} line {reader.line_num}: {exc}") from None


def _undecodable_line(path: Path) -> int:
    # The decoder reads ahead in blocks, so the line is found from the bytes.
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return data.count(b"\n", 0, exc.start) + 1
    return 0


def _rows(reader, column: dict[str, int], path: Path):
    """Yield ``(line, cells)`` per row of a CSV file opened by :func:`_open_csv`.

    Blank lines are skipped. A row with fewer cells than the header is a
    data error, so every column index is safe to use.
    """
    width = max(column.values()) + 1
    for row in reader:
        if len(row) < width:
            if not row:
                continue
            raise DataError(
                f"{path.name} line {reader.line_num}: {len(row)} cells, header has {width}"
            )
        yield reader.line_num, row


def _parse_float(raw: str, path: Path, line: int, column: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise DataError(f"{path.name} line {line}: bad {column} value {raw!r}")
    return value


def _parse_int(raw: str, path: Path, line: int, column: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise DataError(f"{path.name} line {line}: bad {column} value {raw!r}") from None


def _read_staff(path: Path):
    staff: dict[tuple[str, str], DmuInput] = {}
    ss: dict[tuple[str, str], float] = {}
    with _open_csv(path, _STAFF_COLUMNS) as (reader, column):
        i_dmu, i_sds, *i_years = (column[c] for c in _STAFF_COLUMNS)
        i_ss = column.get("ss")
        for line, row in _rows(reader, column, path):
            key = (row[i_dmu], row[i_sds])
            if not key[0] or not key[1]:
                raise DataError(f"{path.name} line {line}: empty dmu_id or sds_id")
            if key in staff:
                raise DataError(f"{path.name} line {line}: duplicate staff row for {key}")
            years = [
                _parse_float(row[i], path, line, c)
                for i, c in zip(i_years, _STAFF_COLUMNS[2:])
            ]
            try:
                staff[key] = DmuInput(*key, *years)
            except DataError as exc:
                raise DataError(f"{path.name} line {line}: {exc}") from None
            if i_ss is not None:
                if not row[i_ss].strip():
                    raise DataError(
                        f"{path.name} line {line}: ss column present but value missing"
                    )
                value = _parse_float(row[i_ss], path, line, "ss")
                if value < 0:
                    raise DataError(f"{path.name} line {line}: negative ss {value}")
                ss[key] = value
    if not staff:
        raise DataError(f"{path.name}: no staff rows")
    return staff, (ss if i_ss is not None else None)


def _parse_publication(
    row: list[str], column: dict[str, int], path: Path, line: int
) -> PublicationRecord:
    """Validate one publications row in full, as its own record."""

    def value(name: str) -> str:
        return row[column[name]]

    categories = tuple(c for c in value("categories").split(";") if c)
    positions = tuple(
        _parse_int(p, path, line, "dmu_positions") for p in value("dmu_positions").split(";") if p
    )
    flag = value("life_science").strip()
    if flag not in ("0", "1"):
        raise DataError(f"{path.name} line {line}: life_science must be 0 or 1")
    year = _parse_int(value("year"), path, line, "year")
    citations = _parse_int(value("citations"), path, line, "citations")
    total_authors = _parse_int(value("total_authors"), path, line, "total_authors")
    try:
        return PublicationRecord(
            pub_id=value("pub_id"),
            year=year,
            citations=citations,
            categories=categories,
            total_authors=total_authors,
            dmu_author_positions=positions,
            life_science=flag == "1",
        )
    except DataError as exc:
        raise DataError(f"{path.name} line {line}: {exc}") from None


def _scan_publications(
    path: Path,
    staff: dict[tuple[str, str], DmuInput],
    medians: MedianTable | None,
    ss: dict[tuple[str, str], float] | None,
):
    """Validate the publications file; with ``ss``, also add each row's
    contribution to its staff row's SS, in file order.

    Returns the row count. A row whose (year, categories) cell or byline is
    new, or whose citations are not a valid count, is validated in full as
    a ``PublicationRecord``, so the first bad row raises what a row-by-row
    check would. The row whose contribution makes its unit's SS overflow is
    an error. After the file, keys without a staff row and (year, category)
    pairs the medians do not cover are an error naming each one's first line.
    """
    cells: dict[tuple[str, str], tuple] = {}  # -> (divisor, year, categories)
    bylines: dict[tuple[str, str, str], float] = {}  # -> fractional count
    orphans: dict[tuple[str, str], int] = {}  # -> first line
    missing: dict[tuple[int, str], int] = {}  # -> first line
    count = 0
    with _open_csv(path, _PUB_COLUMNS) as (reader, column):
        i_dmu, i_sds, i_year, i_cit, i_cat, i_authors, i_pos, i_life = (
            column[c] for c in _PUB_COLUMNS[1:]
        )
        for line, row in _rows(reader, column, path):
            count += 1
            key = (row[i_dmu], row[i_sds])
            cell = cells.get((row[i_year], row[i_cat]))
            share = bylines.get((row[i_authors], row[i_pos], row[i_life]))
            try:
                citations = int(row[i_cit])
            except ValueError:
                citations = -1
            if cell is None or share is None or not 0 <= citations <= MAX_CITATIONS:
                record = _parse_publication(row, column, path, line)
                if cell is None:
                    cell = cells[row[i_year], row[i_cat]] = _cell_entry(
                        record, medians, missing, line
                    )
                if share is None:
                    share = bylines[row[i_authors], row[i_pos], row[i_life]] = (
                        fractional_count(
                            record.total_authors,
                            record.dmu_author_positions,
                            record.life_science,
                        )
                    )
            if key not in staff:
                orphans.setdefault(key, line)
            # Once a row is orphaned or uncovered, ingest fails with that
            # error after the file, so scoring stops.
            if ss is not None and not (orphans or missing):
                try:
                    total = ss[key] + divide_citations(citations, *cell) * share
                except DataError as exc:
                    raise DataError(f"{path.name} line {line}: {exc}") from None
                if not total < math.inf:
                    raise DataError(
                        f"{path.name} line {line}: scientific strength of {key} "
                        "overflows a float"
                    )
                ss[key] = total
    for found, message in (
        (orphans, "publications reference unknown staff rows"),
        (missing, "median table does not cover"),
    ):
        if found:
            located = (f"{key} at {path.name} line {line}" for key, line in sorted(found.items()))
            raise DataError(f"{message}: {'; '.join(located)}")
    return count


def _cell_entry(
    record: PublicationRecord, medians: MedianTable | None, missing: dict, line: int
) -> tuple:
    """``(divisor, year, categories)`` of a record's (year, categories) cell,
    noting its uncovered pairs in ``missing`` at ``line`` unless seen before."""
    year, categories = record.year, record.categories
    if medians is None:
        return None, year, categories
    uncovered = [(year, c) for c in categories if not medians.covers(year, c)]
    for pair in uncovered:
        missing.setdefault(pair, line)
    divisor = None if uncovered else citation_divisor(year, categories, medians)
    return divisor, year, categories


def _read_medians(path: Path) -> MedianTable:
    entries: dict[tuple[int, str], float] = {}
    means: dict[tuple[int, str], float] = {}
    with _open_csv(path, _MEDIAN_COLUMNS) as (reader, column):
        i_year, i_category, i_median = (column[c] for c in _MEDIAN_COLUMNS)
        i_mean = column.get("mean")
        for line, row in _rows(reader, column, path):
            key = (_parse_int(row[i_year], path, line, "year"), row[i_category])
            if key in entries:
                raise DataError(f"{path.name} line {line}: duplicate median for {key}")
            entries[key] = _parse_float(row[i_median], path, line, "median")
            if i_mean is not None and row[i_mean].strip():
                means[key] = _parse_float(row[i_mean], path, line, "mean")
    try:
        return MedianTable(entries=entries, means=means)
    except DataError as exc:
        raise DataError(f"{path.name}: {exc}") from None


def ingest(
    staff_path: str | os.PathLike,
    publications_path: str | os.PathLike | None = None,
    medians_path: str | os.PathLike | None = None,
) -> AssessmentDataset:
    """Load and cross-reference the input files into one validated dataset.

    This is where the output source is settled. Without an ``ss`` column,
    each publication row is added to its staff row's SS as it is read, so
    no publication is kept; staff rows without publications get 0.0.

    Referential checks: every publication's (dmu_id, sds_id) must match a
    staff row, and the median table must cover every (year, category) pair
    occurring in the publications. Their errors name the first line of each
    unknown key and uncovered pair.
    """
    staff, ss = _read_staff(Path(staff_path))
    medians = _read_medians(Path(medians_path)) if medians_path else None
    ss_mode = "passthrough" if ss is not None else "computed"
    if ss is None:
        if publications_path is None:
            raise DataError(
                "staff file has no ss column and no publications file was given: "
                "no output source"
            )
        if medians is None:
            raise DataError("computed output mode requires a medians file")
        ss = dict.fromkeys(staff, 0.0)

    publication_count = 0
    if publications_path:
        publication_count = _scan_publications(
            Path(publications_path), staff, medians, ss if ss_mode == "computed" else None
        )

    return AssessmentDataset(
        staff=staff, ss=ss, ss_mode=ss_mode, publication_count=publication_count
    )


def build_median_table(
    citations_by_key: Iterable[tuple[int, str, float]]
) -> MedianTable:
    """Build a reference table from raw per-publication citation counts.

    Medians use the midpoint of the two central order statistics for even
    counts; means are recorded alongside for the zero-median fallback.
    """
    grouped: dict[tuple[int, str], list[float]] = {}
    for year, category, citations in citations_by_key:
        grouped.setdefault((year, category), []).append(citations)
    return MedianTable(
        entries={key: float(statistics.median(vals)) for key, vals in grouped.items()},
        means={key: sum(vals) / len(vals) for key, vals in grouped.items()},
    )


def load_config(path: str | os.PathLike | None = None) -> AssessmentConfig:
    """Load configuration, falling back to $BIBDEA_CONFIG, then defaults."""
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR) or None
    if path is None:
        return AssessmentConfig()
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
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
    known = {
        "costs",
        "quadrant_threshold",
        "min_active_universities",
        "min_fraction_publishing",
        "reporting_precision",
        "census_date",
    }
    unknown = sorted(set(raw) - known)
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


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", name)


def _fmt(value, precision: int) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def emit(
    report: AssessmentReport,
    formats: Iterable[str],
    out_dir: str | os.PathLike,
) -> list[Path]:
    """Write the report to ``out_dir``; returns the files written.

    Score tables apply the configured reporting precision; the JSON report
    keeps full precision so it can be re-ingested losslessly.
    """
    formats = list(formats)
    unknown = sorted(set(formats) - set(FORMATS))
    if unknown:
        raise DataError(f"unknown output formats {unknown}; available: {list(FORMATS)}")
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


# report.json is the report's fields as ``json.dumps(..., sort_keys=True,
# indent=2)`` lays them out, byte for byte. The stdlib encodes indented JSON
# in pure Python, so the layout is written here directly: each score row
# once, from a template of its sorted field names, and the rest through a
# short generic writer.

_ROW_FIELDS = tuple(sorted(f.name for f in dataclasses.fields(ScoreRow)))
_row_values = operator.attrgetter(*_ROW_FIELDS)
# Score rows sit at the same depth under "sds" and under "institutions".
_ROW_TEMPLATE = (
    "{\n" + ",\n".join(f'          "{name}": %s' for name in _ROW_FIELDS) + "\n        }"
)


class _Encoded(str):
    """JSON text already laid out for its place in the document."""


def _json_scalar(value) -> str:
    """A string, number, boolean or None as ``json.dumps`` writes it."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (math.inf, -math.inf):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _json(value, indent: str) -> str:
    """``value`` laid out as ``json.dumps(value, sort_keys=True, indent=2)``
    does at the nesting depth ``indent``. A dataclass stands for the dict of
    its fields, and :class:`_Encoded` text is taken as it is."""
    if isinstance(value, _Encoded):
        return value
    if dataclasses.is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (
            f"{inner}{encode_basestring_ascii(key)}: {_json(item, inner)}"
            for key, item in sorted(value.items())
        )
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = (inner + _json(item, inner) for item in value)
        return "[\n" + ",\n".join(items) + "\n" + indent + "]"
    return _json_scalar(value)


def _report_json(report: AssessmentReport) -> str:
    """The text of report.json; institutions repeat their SDS rows' text."""
    rows: dict[int, _Encoded] = {}

    def encoded(row: ScoreRow) -> _Encoded:
        if id(row) not in rows:
            rows[id(row)] = _Encoded(_ROW_TEMPLATE % tuple(map(_json_scalar, _row_values(row))))
        return rows[id(row)]

    document = {
        "ss_mode": report.ss_mode,
        "census_date": report.census_date,
        "quadrant_threshold": report.quadrant_threshold,
        "reporting_precision": report.reporting_precision,
        "eligibility": report.eligibility,
        "sds": {
            sds_id: {
                "rows": [encoded(row) for row in res.rows],
                "histograms": res.histograms,
                "quadrants": res.quadrants,
            }
            for sds_id, res in report.sds_results.items()
        },
        "institutions": [
            {
                "dmu_id": inst.dmu_id,
                "rows": [encoded(row) for row in inst.rows],
                "aggregate": inst.aggregate,
            }
            for inst in report.institutions
        ],
    }
    return _json(document, "") + "\n"


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


def _write_csv(path: Path, header: tuple[str, ...], rows: list[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _emit_csv(report: AssessmentReport, out: Path) -> list[Path]:
    p = report.reporting_precision
    written = []
    for sds_id, result in sorted(report.sds_results.items()):
        path = out / f"scores_{_slug(sds_id)}.csv"
        rows = [
            [
                row.dmu_id,
                row.sds_id,
                _fmt(row.ss, p),
                _fmt(row.fp_years, p),
                _fmt(row.ap_years, p),
                _fmt(row.rf_years, p),
                _fmt(row.te, p),
                _fmt(row.ae, p),
                _fmt(row.ce, p),
                _fmt(row.te_pct, p),
                _fmt(row.ae_pct, p),
                _fmt(row.ce_pct, p),
                _fmt(row.staff_cost, p),
                _fmt(row.ss_per_staff_year, p),
            ]
            for row in result.rows
        ]
        _write_csv(path, _SCORE_HEADER, rows)
        written.append(path)

    path = out / "institutions.csv"
    rows = []
    for inst in report.institutions:
        agg = inst.aggregate
        rows.append(
            [
                inst.dmu_id,
                str(len(inst.rows)),
                _fmt(agg.total_weight, p),
                _fmt(agg.te, p),
                _fmt(agg.ae, p),
                _fmt(agg.ce, p),
                _fmt(agg.te_pct, p),
                _fmt(agg.ae_pct, p),
                _fmt(agg.ce_pct, p),
            ]
        )
    _write_csv(
        path,
        ("dmu_id", "n_sds", "staff_cost", "te", "ae", "ce", "te_pct", "ae_pct", "ce_pct"),
        rows,
    )
    written.append(path)

    path = out / "eligibility.csv"
    rows = [
        [
            e.sds_id,
            "1" if e.included else "0",
            str(e.universities_active),
            _fmt(e.fraction_publishing, p),
            ";".join(e.failed_criteria),
            "1" if e.filter_applied else "0",
        ]
        for e in report.eligibility
    ]
    _write_csv(
        path,
        (
            "sds_id",
            "included",
            "universities_active",
            "fraction_publishing",
            "failed_criteria",
            "filter_applied",
        ),
        rows,
    )
    written.append(path)
    return written


# Fixed-size canvases keep the generated graphics byte-stable.
_SVG_W, _SVG_H, _SVG_MARGIN = 360, 260, 40


def _svg_document(body: list[str], title: str) -> str:
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
    for row in sorted(result.rows, key=lambda r: r.dmu_id):
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
