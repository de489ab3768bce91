"""Output check for ``bibdea assess`` reports, independent of ``bibdea``.

Nothing here imports the package under test. The expected values come
from the input CSVs alone:

- ``te`` from ``scipy.optimize.linprog`` (HiGHS) on the envelopment
  program, ``ce`` from the constant-returns closed form
  ``y_i * min_j(c.x_j / y_j) / (c.x_i)``, and ``ae`` as ``ce / te``;
  zero-output units must score (0, 0, 0);
- ``ss`` from a plain-Python reimplementation of the field-standardized,
  fractionally counted citation rule (computed mode) or from the CSV
  column (passthrough mode);
- eligibility from a recount of the staff rows, and institution
  aggregates as cost-weighted means of the reported rows.

Percentiles, histograms and quadrants are checked only by invariants that
hold whether ties are decided exactly or within a tolerance ``TIE_TOL``, so
the check accepts both the current exact-tie rule and a tolerant one.

``expected(...)`` does the expensive part once; ``compare(report, exp)``
is cheap, which lets ``self_test`` show that corrupted copies of a report
are rejected.
"""

import bisect
import copy
import csv
import json
import math
import re
import statistics
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

DECOMPOSITION_TOL = 1e-6
SS_REL_TOL = 1e-9
TIE_TOL = 1e-9
COSTS = (111.700, 79.700, 56.650)  # k EUR per staff-year: fp, ap, rf
MIN_ACTIVE = 24
MIN_FRACTION = 0.5
QUADRANT_THRESHOLD = 0.5
BIN_WIDTH = 0.2
N_BINS = 5


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _position_weights(n: int, intramural: bool) -> list[float]:
    """Life-science byline credit: the ends get most, the middle shares a
    pool; overlapping roles on short bylines add up, then renormalize."""
    credit = [0.0] * n
    if intramural:
        ends, next_to_end, pool, middle = 0.40, 0.0, 0.20, range(1, n - 1)
    else:
        ends, next_to_end, pool, middle = 0.30, 0.15, 0.10, range(2, n - 2)
    credit[0] += ends
    credit[-1] += ends
    if next_to_end and n >= 2:
        credit[1] += next_to_end
        credit[-2] += next_to_end
    for k in middle:
        credit[k] += pool / len(middle)
    total = sum(credit)
    return [c / total for c in credit]


def recompute_ss(pubs_path: Path, medians_path: Path) -> dict[tuple[str, str], float]:
    medians, means = {}, {}
    for row in _rows(medians_path):
        key = (int(row["year"]), row["category"])
        medians[key] = float(row["median"])
        if (row.get("mean") or "").strip():
            means[key] = float(row["mean"])
    ss: dict[tuple[str, str], float] = {}
    for row in _rows(pubs_path):
        year, citations = int(row["year"]), int(row["citations"])
        cats = [c for c in row["categories"].split(";") if c]
        divisor = sum(medians[(year, c)] for c in cats) / len(cats)
        if divisor > 0:
            c_bar = citations / divisor
        elif citations == 0:
            c_bar = 0.0
        else:
            c_bar = citations / (sum(means[(year, c)] for c in cats) / len(cats))
        n = int(row["total_authors"])
        positions = [int(p) for p in row["dmu_positions"].split(";") if p]
        if row["life_science"].strip() == "1":
            weights = _position_weights(n, 1 in positions and n in positions)
            share = sum(weights[p - 1] for p in positions)
        else:
            share = len(positions) / n
        key = (row["dmu_id"], row["sds_id"])
        ss[key] = ss.get(key, 0.0) + c_bar * share
    return ss


def te_linprog(i: int, x: np.ndarray, y: np.ndarray) -> float:
    """min theta s.t. sum_j l_j y_j >= y_i, sum_j l_j x_jk <= theta x_ik, l >= 0.

    Rows are scaled by the assessed unit's own output and inputs so that
    HiGHS's feasibility tolerances act on numbers of order one."""
    n = len(y)
    a_ub = [np.concatenate(([0.0], -y / y[i]))]
    for k in range(x.shape[1]):
        scale = x[i, k] if x[i, k] > 0 else 1.0
        a_ub.append(np.concatenate(([-x[i, k] / scale], x[:, k] / scale)))
    c = np.zeros(n + 1)
    c[0] = 1.0
    res = linprog(
        c,
        A_ub=np.array(a_ub),
        b_ub=np.array([-1.0, 0.0, 0.0, 0.0]),
        bounds=[(0, None)] * (n + 1),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status != 0:
        raise RuntimeError(f"linprog status {res.status}: {res.message}")
    return float(res.fun)


def expected(files: dict) -> dict:
    """Everything the report must contain, computed from the inputs alone."""
    staff_rows = _rows(files["staff"])
    keys = [(r["dmu_id"], r["sds_id"]) for r in staff_rows]
    if "publications" in files:
        computed = recompute_ss(files["publications"], files["medians"])
        ss = {key: computed.get(key, 0.0) for key in keys}
    else:
        ss = {key: float(r["ss"]) for key, r in zip(keys, staff_rows)}
    by_sds: dict[str, list[dict]] = {}
    for r in staff_rows:
        by_sds.setdefault(r["sds_id"], []).append(r)

    eligibility, units = {}, {}
    for sds_id, rows in sorted(by_sds.items()):
        x = np.array([[float(r[k]) for k in ("fp_years", "ap_years", "rf_years")] for r in rows])
        y = np.array([ss[(r["dmu_id"], sds_id)] for r in rows])
        active = len(rows)
        publishing = sum(1 for v in y if v > 0) / active
        failed = []
        if publishing < MIN_FRACTION:
            failed.append("significance")
        if active < MIN_ACTIVE:
            failed.append("robustness")
        eligibility[sds_id] = {
            "included": not failed,
            "universities_active": active,
            "fraction_publishing": publishing,
            "failed_criteria": failed,
            "filter_applied": True,
        }
        if failed:
            continue
        cost = x @ np.array(COSTS)
        positive = y > 0
        cheapest = min(cost[positive] / y[positive]) if positive.any() else math.inf
        for i, r in enumerate(rows):
            if y[i] > 0:
                te = te_linprog(i, x, y)
                ce = y[i] * cheapest / cost[i]
            else:
                te = ce = 0.0
            units[(sds_id, r["dmu_id"])] = {
                "ss": float(y[i]),
                "inputs": tuple(float(v) for v in x[i]),
                "staff_cost": float(cost[i]),
                "te": te,
                "ce": ce,
            }
    return {
        "ss_mode": "computed" if "publications" in files else "passthrough",
        "eligibility": eligibility,
        "units": units,
    }


def _close(a, b, rel: float, abs_: float = 1e-12) -> bool:
    return a is not None and math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


def _percentile_ok(scores: list[float], pcts: list) -> list[bool]:
    """Per unit: is its rank in [0, 100], inside the band every tie rule
    allows, and above every unit scoring more than TIE_TOL lower?"""
    n = len(scores)
    if n < 2:
        return [p is None for p in pcts]
    if any(p is None for p in pcts):
        return [False] * n
    ordered = sorted(scores)
    ok = []
    for s, p in zip(scores, pcts):
        below = bisect.bisect_left(ordered, s - TIE_TOL)
        at_most = bisect.bisect_right(ordered, s + TIE_TOL) - 1
        low, high = 100.0 * below / (n - 1), 100.0 * at_most / (n - 1)
        ok.append(0 <= p <= 100 and low - 1e-9 <= p <= high + 1e-9)
    pairs = sorted(range(n), key=lambda k: scores[k])
    best_below, j = -math.inf, 0
    for k in pairs:
        while scores[pairs[j]] < scores[k] - TIE_TOL:
            best_below = max(best_below, pcts[pairs[j]])
            j += 1
        if not pcts[k] > best_below:
            ok[k] = False
    return ok


def _bins(s: float) -> set:
    """The histogram bins a score may land in under float noise."""
    lo, hi = ((v // BIN_WIDTH) for v in (s - TIE_TOL, s + TIE_TOL))
    return {min(max(int(b), 0), N_BINS - 1) for b in range(int(lo), int(hi) + 1)}


def _cells(te: float, ae: float) -> set:
    """The quadrants (te high?, ae high?) a unit may land in under float noise."""

    def high(v):
        return {v >= QUADRANT_THRESHOLD - TIE_TOL, v >= QUADRANT_THRESHOLD + TIE_TOL}

    return {(t, a) for t in high(te) for a in high(ae)}


def _tally_ok(counts: dict, options: list[set]) -> bool:
    """Counts per key sum to the units, and each lies between the units that
    can only fall under that key and those that may."""
    if sum(counts.values()) != len(options):
        return False
    return all(
        sum(1 for o in options if o == {key}) <= n <= sum(1 for o in options if key in o)
        for key, n in counts.items()
    )


def compare(report: dict, exp: dict) -> tuple[set, list[str]]:
    """Return the (sds_id, dmu_id) units that fail, and report-level problems."""
    bad: set = set()
    problems: list[str] = []
    units = exp["units"]
    if report.get("ss_mode") != exp["ss_mode"]:
        problems.append(f"ss_mode is {report.get('ss_mode')!r}, not {exp['ss_mode']!r}")

    got_elig = {e["sds_id"]: e for e in report.get("eligibility", [])}
    if sorted(got_elig) != sorted(exp["eligibility"]) or len(got_elig) != len(
        report.get("eligibility", [])
    ):
        problems.append("eligibility log lists other SDSs than the staff file")
    for sds_id, want in exp["eligibility"].items():
        got = got_elig.get(sds_id)
        if got is None:
            continue
        if (
            got["included"] != want["included"]
            or got["universities_active"] != want["universities_active"]
            or not _close(got["fraction_publishing"], want["fraction_publishing"], 1e-12)
            or list(got["failed_criteria"]) != want["failed_criteria"]
            or got["filter_applied"] != want["filter_applied"]
        ):
            problems.append(f"eligibility of {sds_id} disagrees with the recount")

    included = sorted(s for s, e in exp["eligibility"].items() if e["included"])
    sds = report.get("sds", {})
    if sorted(sds) != included:
        problems.append("assessed SDSs differ from the eligible ones")

    seen: dict = {}
    for sds_id, res in sds.items():
        rows = res["rows"]
        for r in rows:
            key = (sds_id, r["dmu_id"])
            want = units.get(key)
            if want is None or key in seen or r["sds_id"] != sds_id:
                bad.add(key)
                continue
            seen[key] = r
            inputs = (r["fp_years"], r["ap_years"], r["rf_years"])
            ok = (
                inputs == want["inputs"]
                and _close(r["ss"], want["ss"], SS_REL_TOL)
                and _close(r["staff_cost"], want["staff_cost"], 1e-9)
                and _close(r["ss_per_staff_year"], want["ss"] / sum(want["inputs"]), 1e-9)
            )
            if want["ss"] > 0:
                ok = ok and (
                    abs(r["te"] - want["te"]) <= DECOMPOSITION_TOL
                    and abs(r["ce"] - want["ce"]) <= DECOMPOSITION_TOL
                    and abs(r["ae"] - want["ce"] / want["te"]) <= DECOMPOSITION_TOL
                )
            else:
                ok = ok and r["te"] == r["ae"] == r["ce"] == 0
            if not ok:
                bad.add(key)
        for m in ("te", "ae", "ce"):
            scores = [r[m] for r in rows]
            for r, fine in zip(rows, _percentile_ok(scores, [r[f"{m}_pct"] for r in rows])):
                if not fine:
                    bad.add((sds_id, r["dmu_id"]))
            hist = res["histograms"][m]
            if (
                len(hist["counts"]) != N_BINS
                or not _tally_ok(dict(enumerate(hist["counts"])), [_bins(v) for v in scores])
                or hist["bin_width"] != BIN_WIDTH
                or not _close(hist["median"], statistics.median(scores), 1e-12)
            ):
                problems.append(f"{m} histogram of {sds_id} disagrees with the recount")
        q = res["quadrants"]
        quadrants = {
            (False, False): q["both_low"],
            (False, True): q["high_ae_low_te"],
            (True, False): q["high_te_low_ae"],
            (True, True): q["both_high"],
        }
        if not _tally_ok(quadrants, [_cells(r["te"], r["ae"]) for r in rows]):
            problems.append(f"quadrants of {sds_id} disagree with the recount")
    missing = [k for k in units if k not in seen]
    bad.update(missing)

    by_dmu: dict[str, list] = {}
    for (sds_id, dmu_id), r in seen.items():
        by_dmu.setdefault(dmu_id, []).append((sds_id, r))
    insts = report.get("institutions", [])
    if sorted(i["dmu_id"] for i in insts) != sorted(by_dmu):
        problems.append("institutions differ from the universities assessed")
    aggs = []
    for inst in insts:
        mine = by_dmu.get(inst["dmu_id"], [])
        agg = inst["aggregate"]
        costs = [units[(s, inst["dmu_id"])]["staff_cost"] for s, _ in mine]
        total = sum(costs)
        ok = sorted(r["sds_id"] for r in inst["rows"]) == sorted(s for s, _ in mine) and (
            _close(agg["total_weight"], total, 1e-9)
        )
        for m in ("te", "ae", "ce"):
            mean = sum(r[m] * c for (_, r), c in zip(mine, costs)) / total if total else 0.0
            ok = ok and _close(agg[m], mean, 1e-9)
        if not ok:
            problems.append(f"aggregate of institution {inst['dmu_id']} disagrees")
        aggs.append(agg)
    if len(aggs) >= 2:
        for m in ("te", "ae", "ce"):
            marks = _percentile_ok([a[m] for a in aggs], [a[f"{m}_pct"] for a in aggs])
            if not all(marks):
                problems.append(f"institution {m} percentiles break the rank invariants")
    return bad, problems


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", name)


def check_files(out: Path, report: dict, exp: dict) -> list[str]:
    """The emitted file set of ``--format json,csv``, and the CSV tables
    against the JSON report."""
    problems = []
    sds = report.get("sds", {})
    want = {"report.json", "institutions.csv", "eligibility.csv"}
    want |= {f"scores_{_slug(s)}.csv" for s in sds}
    got = {p.name for p in out.iterdir()}
    if got != want:
        problems.append(f"emitted files differ: {len(got - want)} extra, {len(want - got)} missing")
        return problems
    for sds_id, res in sds.items():
        table = _rows(out / f"scores_{_slug(sds_id)}.csv")
        expect = [(r["dmu_id"], f"{r['te']:.3f}", f"{r['ae']:.3f}", f"{r['ce']:.3f}")
                  for r in res["rows"]]
        if [(t["dmu_id"], t["te"], t["ae"], t["ce"]) for t in table] != expect:
            problems.append(f"scores CSV of {sds_id} disagrees with report.json")
    if len(_rows(out / "institutions.csv")) != len(report.get("institutions", [])):
        problems.append("institutions.csv row count disagrees with report.json")
    if len(_rows(out / "eligibility.csv")) != len(report.get("eligibility", [])):
        problems.append("eligibility.csv row count disagrees with report.json")
    return problems


def check(out: Path, exp: dict) -> tuple[int, list[str], dict]:
    """Check one emitted report; returns (mismatched units, problems, report)."""
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    bad, problems = compare(report, exp)
    return len(bad), problems + check_files(out, report, exp), report


def self_test(report: dict, exp: dict) -> dict[str, bool]:
    """Whether ``compare`` accepts ``report`` and rejects three corruptions:
    one te moved by 1e-4, one dropped row, one flipped eligibility flag."""

    def rejects(mutate) -> bool:
        broken = copy.deepcopy(report)
        mutate(broken)
        bad, problems = compare(broken, exp)
        return bool(bad or problems)

    first = sorted(report["sds"])[0]
    scored = next(r for r in report["sds"][first]["rows"] if r["te"] > 0)

    def nudge_te(r):
        row = next(x for x in r["sds"][first]["rows"] if x["dmu_id"] == scored["dmu_id"])
        row["te"] += 1e-4 if row["te"] < 0.5 else -1e-4

    def drop_row(r):
        r["sds"][first]["rows"].pop()

    def flip_flag(r):
        r["eligibility"][0]["included"] = not r["eligibility"][0]["included"]

    bad, problems = compare(report, exp)
    return {
        "accepts_report": not bad and not problems,
        "rejects_te_1e-4": rejects(nudge_te),
        "rejects_dropped_row": rejects(drop_row),
        "rejects_eligibility_flip": rejects(flip_flag),
    }
