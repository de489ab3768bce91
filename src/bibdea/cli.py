"""Command-line interface.

Verbs:
  assess              full pipeline over every SDS, written to --out (the
                      one verb that writes files)
  sds-report SDS      score table of one SDS, printed
  institution-report U  one university across its SDSs, with the cost-weighted
                        aggregate row
  validate            ingest and cross-reference only

Exit codes: 0 success, 1 data error (including usage), 2 solver error,
3 I/O error.
"""

import argparse
import sys

from . import io
from .model import DataError, SolverError
from .report import AssessmentReport, ScoreRow, run_assessment

EXIT_OK = 0
EXIT_DATA = 1
EXIT_SOLVER = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are user input errors; keep exit code 2 for the solver.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_DATA, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bibdea", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, no_filter=True):
        """The input options, and --no-filter if the verb applies eligibility."""
        p.add_argument("--staff", required=True, help="staff-years CSV")
        p.add_argument("--publications", help="publications CSV (computed mode)")
        p.add_argument("--medians", help="reference medians CSV (computed mode)")
        p.add_argument("--config", help="config JSON (default: built-in settings)")
        if no_filter:
            p.add_argument(
                "--no-filter",
                action="store_true",
                help="assess every SDS, ignoring the eligibility criteria",
            )

    p = sub.add_parser("assess", help="run the full assessment")
    add_common(p)
    p.add_argument("--out", default="report", help="output directory (default: report)")
    p.add_argument(
        "--format",
        default="json,csv",
        help="comma-joined subset of json,csv,svg (default json,csv)",
    )

    p = sub.add_parser("sds-report", help="score table of one SDS")
    p.add_argument("sds_id")
    add_common(p)

    p = sub.add_parser("institution-report", help="one university across its SDSs")
    p.add_argument("dmu_id")
    add_common(p)

    p = sub.add_parser("validate", help="ingest and cross-reference only")
    add_common(p, no_filter=False)
    return parser


def _load(args) -> tuple:
    # The config first, so that its faults show whatever the input files hold
    return io.load_config(args.config), io.ingest(args.staff, args.publications, args.medians)


def _assess(args) -> AssessmentReport:
    config, dataset = _load(args)
    return run_assessment(dataset, config, apply_filter=not args.no_filter)


def _print_rows(rows: tuple[ScoreRow, ...], precision: int) -> None:
    def cell(value, width=9):
        if value is None:
            return " " * width
        return f"{value:>{width}.{precision}f}"

    name_w = max(12, max(len(r.dmu_id) for r in rows))
    print(
        f"{'dmu_id':<{name_w}} {'ss':>9} {'fp':>7} {'ap':>7} {'rf':>7} "
        f"{'te':>9} {'ae':>9} {'ce':>9} {'te%':>9} {'ae%':>9} {'ce%':>9}"
    )
    for r in rows:
        print(
            f"{r.dmu_id:<{name_w}} {cell(r.ss)} {r.fp_years:>7.1f} {r.ap_years:>7.1f} "
            f"{r.rf_years:>7.1f} {cell(r.te)} {cell(r.ae)} {cell(r.ce)} "
            f"{cell(r.te_pct)} {cell(r.ae_pct)} {cell(r.ce_pct)}"
        )


def _cmd_assess(args) -> int:
    formats = io.check_formats(f for f in args.format.split(",") if f)
    report = _assess(args)
    for entry in report.eligibility:
        status = "included" if entry.included else (
            "excluded (" + ", ".join(entry.failed_criteria) + ")"
        )
        print(f"{entry.sds_id}: {entry.universities_active} universities, {status}")
    written = io.emit(report, formats, args.out)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_sds_report(args) -> int:
    report = _assess(args)
    result = report.sds_results.get(args.sds_id)
    if result is None:
        known = sorted(report.sds_results)
        raise DataError(f"SDS {args.sds_id!r} not assessed; assessed SDSs: {known}")
    _print_rows(result.rows, report.reporting_precision)
    q = result.quadrants
    print(
        f"quadrants @ {report.quadrant_threshold}: both-low {q.both_low}, "
        f"high-AE/low-TE {q.high_ae_low_te}, both-high {q.both_high}, "
        f"high-TE/low-AE {q.high_te_low_ae}"
    )
    for measure in ("te", "ae", "ce"):
        hist = result.histograms[measure]
        print(f"{measure} median {hist.median:.{report.reporting_precision}f} "
              f"bins {list(hist.counts)}")
    return EXIT_OK


def _cmd_institution_report(args) -> int:
    report = _assess(args)
    inst = report.institution(args.dmu_id)
    precision = report.reporting_precision

    def pct(value):
        return "" if value is None else f"{value:.0f}"

    print(f"{'sds_id':<12} {'cost k€':>12} {'te':>8} {'te%':>5} {'ae':>8} {'ae%':>5} "
          f"{'ce':>8} {'ce%':>5}")
    for r in inst.rows:
        print(
            f"{r.sds_id:<12} {r.staff_cost:>12.{precision}f} {r.te:>8.{precision}f} "
            f"{pct(r.te_pct):>5} {r.ae:>8.{precision}f} {pct(r.ae_pct):>5} "
            f"{r.ce:>8.{precision}f} {pct(r.ce_pct):>5}"
        )
    agg = inst.aggregate
    print(
        f"{'total/average':<12} {agg.total_weight:>12.{precision}f} "
        f"{agg.te:>8.{precision}f} {pct(agg.te_pct):>5} {agg.ae:>8.{precision}f} "
        f"{pct(agg.ae_pct):>5} {agg.ce:>8.{precision}f} {pct(agg.ce_pct):>5}"
    )
    return EXIT_OK


def _cmd_validate(args) -> int:
    _, dataset = _load(args)
    dmu_ids, sds_ids = map(set, zip(*dataset.units))
    print(
        f"ok: {len(dmu_ids)} universities, {len(sds_ids)} SDSs, "
        f"{len(dataset.units)} staff rows, {dataset.publication_count} publications, "
        f"output mode {dataset.ss_mode}"
    )
    return EXIT_OK


_COMMANDS = {
    "assess": _cmd_assess,
    "sds-report": _cmd_sds_report,
    "institution-report": _cmd_institution_report,
    "validate": _cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
