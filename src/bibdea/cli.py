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
from .report import AssessmentReport, run_assessment

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


def _cell(value: float | None, precision: int) -> str:
    """A table cell: ``value`` to ``precision`` decimals, blank for None."""
    return "" if value is None else f"{value:.{precision}f}"


def _print_table(header: tuple, rows: list[tuple], widths: tuple[int, ...]) -> None:
    """Print ``header`` and ``rows``, tuples of string cells, in columns one
    space apart: the first left-aligned, the others right-aligned, each as
    wide as the larger of its ``widths`` entry and its widest cell."""
    lines = [header, *rows]
    widths = [max(w, *map(len, column)) for w, column in zip(widths, zip(*lines))]
    for first, *rest in lines:
        print(first.ljust(widths[0]), *map(str.rjust, rest, widths[1:]))


def _cmd_assess(args) -> int:
    formats = io.check_formats(f for f in args.format.split(",") if f)
    report = _assess(args)
    # Nothing is printed until the files are written, so a failed run prints nothing.
    written = io.emit(report, formats, args.out)
    for entry in report.eligibility:
        status = "included" if entry.included else (
            "excluded (" + ", ".join(entry.failed_criteria) + ")"
        )
        print(f"{entry.sds_id}: {entry.universities_active} universities, {status}")
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_sds_report(args) -> int:
    report = _assess(args)
    result = report.sds_results.get(args.sds_id)
    if result is None:
        known = sorted(report.sds_results)
        raise DataError(f"SDS {args.sds_id!r} not assessed; assessed SDSs: {known}")
    p = io._TABLE_DECIMALS
    _print_table(
        ("dmu_id", "ss", "fp", "ap", "rf", "te", "ae", "ce", "te%", "ae%", "ce%"),
        [
            (r.dmu_id, _cell(r.ss, p),
             *(_cell(v, 1) for v in (r.fp_years, r.ap_years, r.rf_years)),
             *(_cell(v, p) for v in (r.te, r.ae, r.ce, r.te_pct, r.ae_pct, r.ce_pct)))
            for r in result.rows
        ],
        (12, 9, 7, 7, 7, 9, 9, 9, 9, 9, 9),
    )
    q = result.quadrants
    print(
        f"quadrants @ {report.quadrant_threshold}: both-low {q.both_low}, "
        f"high-AE/low-TE {q.high_ae_low_te}, both-high {q.both_high}, "
        f"high-TE/low-AE {q.high_te_low_ae}"
    )
    for measure in ("te", "ae", "ce"):
        hist = result.histograms[measure]
        print(f"{measure} median {hist.median:.{p}f} bins {list(hist.counts)}")
    return EXIT_OK


def _cmd_institution_report(args) -> int:
    report = _assess(args)
    inst = report.institution(args.dmu_id)
    agg, p = inst.aggregate, io._TABLE_DECIMALS
    lines = [(r.sds_id, r.staff_cost, r.te, r.te_pct, r.ae, r.ae_pct, r.ce, r.ce_pct)
             for r in inst.rows]
    lines.append(("total/average", agg.total_weight, agg.te, agg.te_pct, agg.ae, agg.ae_pct,
                  agg.ce, agg.ce_pct))
    _print_table(
        ("sds_id", "cost k€", "te", "te%", "ae", "ae%", "ce", "ce%"),
        [(name, *map(_cell, values, (p, p, 0, p, 0, p, 0))) for name, *values in lines],
        (12, 12, 8, 5, 8, 5, 8, 5),
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
