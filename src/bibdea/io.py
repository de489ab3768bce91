"""File ingestion and report emission.

Input files are UTF-8 CSV with a mandatory header row and period decimal
separators:

  staff:        dmu_id, sds_id, fp_years, ap_years, rf_years [, ss]
  publications: pub_id, dmu_id, sds_id, year, citations, categories,
                total_authors, dmu_positions, life_science
                (categories / dmu_positions are semicolon-joined)
  medians:      year, category, median [, mean]

The optional ``ss`` column switches the whole dataset to passthrough mode;
otherwise output values are computed from publications and medians. The
optional ``mean`` column feeds the zero-median fallback. Unknown extra
columns are ignored, which lets emitted score tables be re-ingested.

Emission is deterministic: identical inputs produce byte-identical output.
"""

import csv
import json
import math
import os
import re
import statistics
from pathlib import Path
from typing import Iterable

from .model import (
    AssessmentDataset,
    CostVector,
    DataError,
    DmuInput,
    MedianTable,
    PublicationRecord,
)
from .report import AssessmentConfig, AssessmentReport, SdsResult

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


def _open_reader(path: Path, required: tuple[str, ...]):
    handle = open(path, newline="", encoding="utf-8")
    reader = csv.DictReader(handle)
    header = reader.fieldnames or []
    missing = [c for c in required if c not in header]
    if missing:
        handle.close()
        raise DataError(f"{path.name}: missing columns {missing}")
    return handle, reader


def _parse_float(raw: str, path: Path, line: int, column: str) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise DataError(f"{path.name} line {line}: bad {column} value {raw!r}")
    return value


def _parse_int(raw: str, path: Path, line: int, column: str) -> int:
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise DataError(f"{path.name} line {line}: bad {column} value {raw!r}") from None


def _read_staff(path: Path):
    staff: dict[tuple[str, str], DmuInput] = {}
    ss: dict[tuple[str, str], float] = {}
    handle, reader = _open_reader(path, _STAFF_COLUMNS)
    has_ss = "ss" in (reader.fieldnames or [])
    with handle:
        for row in reader:
            line = reader.line_num
            key = (row["dmu_id"], row["sds_id"])
            if not key[0] or not key[1]:
                raise DataError(f"{path.name} line {line}: empty dmu_id or sds_id")
            if key in staff:
                raise DataError(f"{path.name} line {line}: duplicate staff row for {key}")
            years = [_parse_float(row[c], path, line, c) for c in _STAFF_COLUMNS[2:]]
            try:
                staff[key] = DmuInput(row["dmu_id"], row["sds_id"], *years)
            except DataError as exc:
                raise DataError(f"{path.name} line {line}: {exc}") from None
            if has_ss:
                if not (row.get("ss") or "").strip():
                    raise DataError(
                        f"{path.name} line {line}: ss column present but value missing"
                    )
                value = _parse_float(row["ss"], path, line, "ss")
                if value < 0:
                    raise DataError(f"{path.name} line {line}: negative ss {value}")
                ss[key] = value
    if not staff:
        raise DataError(f"{path.name}: no staff rows")
    return staff, (ss if has_ss else None)


def _read_publications(path: Path):
    publications: dict[tuple[str, str], list[PublicationRecord]] = {}
    handle, reader = _open_reader(path, _PUB_COLUMNS)
    with handle:
        for row in reader:
            line = reader.line_num
            categories = tuple(c for c in row["categories"].split(";") if c)
            raw_positions = row["dmu_positions"]
            positions = tuple(
                _parse_int(p, path, line, "dmu_positions")
                for p in raw_positions.split(";")
                if p
            )
            flag = row["life_science"].strip()
            if flag not in ("0", "1"):
                raise DataError(f"{path.name} line {line}: life_science must be 0 or 1")
            try:
                record = PublicationRecord(
                    pub_id=row["pub_id"],
                    year=_parse_int(row["year"], path, line, "year"),
                    citations=_parse_int(row["citations"], path, line, "citations"),
                    categories=categories,
                    total_authors=_parse_int(row["total_authors"], path, line, "total_authors"),
                    dmu_author_positions=positions,
                    life_science=flag == "1",
                )
            except DataError as exc:
                raise DataError(f"{path.name} line {line}: {exc}") from None
            publications.setdefault((row["dmu_id"], row["sds_id"]), []).append(record)
    return {key: tuple(records) for key, records in publications.items()}


def _read_medians(path: Path) -> MedianTable:
    entries: dict[tuple[int, str], float] = {}
    means: dict[tuple[int, str], float] = {}
    handle, reader = _open_reader(path, _MEDIAN_COLUMNS)
    has_mean = "mean" in (reader.fieldnames or [])
    with handle:
        for row in reader:
            line = reader.line_num
            key = (_parse_int(row["year"], path, line, "year"), row["category"])
            if key in entries:
                raise DataError(f"{path.name} line {line}: duplicate median for {key}")
            entries[key] = _parse_float(row["median"], path, line, "median")
            if has_mean and (row.get("mean") or "").strip():
                means[key] = _parse_float(row["mean"], path, line, "mean")
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

    Referential checks: every publication's (dmu_id, sds_id) must match a
    staff row, and the median table must cover every (year, category) pair
    occurring in the publications.
    """
    staff, ss = _read_staff(Path(staff_path))
    publications = (
        _read_publications(Path(publications_path)) if publications_path else {}
    )
    medians = _read_medians(Path(medians_path)) if medians_path else None

    orphans = sorted(key for key in publications if key not in staff)
    if orphans:
        raise DataError(f"publications reference unknown staff rows: {orphans}")

    if ss is None:
        if publications_path is None:
            raise DataError(
                "staff file has no ss column and no publications file was given: "
                "no output source"
            )
        if medians is None:
            raise DataError("computed output mode requires a medians file")
    if medians is not None:
        missing = sorted(
            {
                (record.year, category)
                for records in publications.values()
                for record in records
                for category in record.categories
                if not medians.covers(record.year, category)
            }
        )
        if missing:
            raise DataError(f"median table does not cover: {missing}")

    return AssessmentDataset(staff=staff, ss=ss, publications=publications, medians=medians)


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
    except json.JSONDecodeError as exc:
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
        payload = json.dumps(report.to_dict(), sort_keys=True, indent=2)
        path.write_text(payload + "\n", encoding="utf-8")
        written.append(path)
    if "csv" in formats:
        written.extend(_emit_csv(report, out))
    if "svg" in formats:
        written.extend(_emit_svg(report, out))
    return written


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
