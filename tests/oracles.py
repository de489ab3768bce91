"""Independent oracles used to cross-check the DEA scores and the ingest.

The package computes the scores from the frontier geometry without solving
any LP. The oracles here solve the envelopment LPs instead: by enumerating
basic solutions of the standard form directly, or with HiGHS from scipy
(a test-only dependency, imported on first use). The closed forms of the
constant-returns geometry are kept as a further reference.

``certify_te_by_duality`` solves no LP either: it checks the frontier's
facets as dual solutions and its peers as primal ones, so that every te
of a census can be certified in tier-1.

``reference_facets`` and ``reference_pareto_front`` are the frontier steps
as they were before the candidate planes were enumerated in one batch: one
anchor point at a time, and the Pareto test as one (n, n, 3) broadcast.

``reference_ingest_ss`` scores a publications file row by row, the way
ingest did before it read the file by columns and cached per distinct key,
and sums each unit's rows with ``math.fsum`` after the file.
``reference_report_json`` is report.json as the standard library encodes it,
and ``reference_csv_tables`` the CSV tables laid out one row, then one cell,
at a time.

``reference_percentile_rank``, ``reference_histogram``,
``reference_aggregate`` and ``reference_results`` are the report's ranks
and scores as they were computed before they were carried as columns: one
score, one row and one unit at a time.
"""

import csv
import dataclasses
import functools
import io
import itertools
import json
import math
import operator
import re
import statistics
from pathlib import Path

import numpy as np

from bibdea import (
    AggregateScores,
    DataError,
    DmuInput,
    Histogram,
    PublicationRecord,
    ScoreRow,
    SdsDataset,
    evaluate_sds,
    scientific_strength,
)
from bibdea import dea
from bibdea.analytics import TIE_TOL

_FEAS_TOL = 1e-9


def lp_minimum_by_enumeration(objective, constraints, senses, rhs) -> float | None:
    """Minimum objective over all basic feasible solutions, None if infeasible.

    Valid for bounded problems: with a bounded feasible region the optimum
    of a linear objective is attained at a basic feasible solution, so the
    exhaustive minimum equals the LP optimum.
    """
    n = len(objective)
    m = len(constraints)
    extra = []
    for i, sense in enumerate(senses):
        col = np.zeros(m)
        if sense == "<=":
            col[i] = 1.0
            extra.append(col)
        elif sense == ">=":
            col[i] = -1.0
            extra.append(col)
    A = np.hstack([np.array(constraints, dtype=float).reshape(m, n)] + [
        c.reshape(m, 1) for c in extra
    ]) if extra else np.array(constraints, dtype=float).reshape(m, n)
    b = np.array(rhs, dtype=float)
    c_ext = np.concatenate([np.array(objective, dtype=float), np.zeros(len(extra))])

    total_cols = A.shape[1]
    best = None
    for cols in itertools.combinations(range(total_cols), m):
        basis = A[:, cols]
        try:
            xb = np.linalg.solve(basis, b)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(xb)) or np.any(xb < -_FEAS_TOL):
            continue
        x = np.zeros(total_cols)
        x[list(cols)] = xb
        lhs = A @ x
        if np.max(np.abs(lhs - b)) > 1e-7:
            continue
        value = float(c_ext @ x)
        if best is None or value < best:
            best = value
    return best


def te_by_enumeration(dmu0: int, inputs: np.ndarray, outputs: np.ndarray) -> float:
    """Input-contraction score via basic-solution enumeration.

    Variables [theta, lam_1..lam_n]; output covered, inputs within theta
    times the assessed DMU's. Bounded because theta <= 1 is always feasible
    and theta >= 0.
    """
    n = len(outputs)
    objective = [1.0] + [0.0] * n
    constraints = [[0.0] + list(outputs)]
    senses = [">="]
    rhs = [outputs[dmu0]]
    for k in range(inputs.shape[1]):
        constraints.append([-inputs[dmu0, k]] + list(inputs[:, k]))
        senses.append("<=")
        rhs.append(0.0)
    value = lp_minimum_by_enumeration(objective, constraints, senses, rhs)
    assert value is not None, "envelopment program cannot be infeasible"
    return value


def ce_by_enumeration(
    dmu0: int, inputs: np.ndarray, outputs: np.ndarray, prices: np.ndarray
) -> float:
    """Cost efficiency via basic-solution enumeration of the cost LP.

    Variables [x_1..x_k, lam_1..lam_n]: the cheapest free input bundle x
    that lets the peers cover the DMU's output, over the DMU's actual cost.
    """
    n, k = inputs.shape
    objective = list(prices[:k]) + [0.0] * n
    constraints = [[0.0] * k + list(outputs)]
    senses = [">="]
    rhs = [outputs[dmu0]]
    for col in range(k):
        indicator = [0.0] * k
        indicator[col] = -1.0
        constraints.append(indicator + list(inputs[:, col]))
        senses.append("<=")
        rhs.append(0.0)
    value = lp_minimum_by_enumeration(objective, constraints, senses, rhs)
    assert value is not None, "cost program cannot be infeasible"
    return value / float(inputs[dmu0] @ prices[:k])


def highs_scores(inputs: np.ndarray, outputs: np.ndarray, prices: np.ndarray):
    """te and ce of every DMU, one HiGHS LP for each score."""
    from scipy.optimize import linprog

    options = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    n, k = inputs.shape

    def minimum(cost, a_ub, b_ub):
        res = linprog(cost, A_ub=a_ub, b_ub=b_ub, method="highs", options=options)
        assert res.status == 0, res.message
        return res.fun

    te, ce = np.zeros(n), np.zeros(n)
    for i in range(n):
        b_ub = np.r_[-outputs[i], np.zeros(k)]
        # min theta: peers cover y_i from at most theta * x_i
        a_ub = np.vstack([np.r_[0.0, -outputs], np.column_stack([-inputs[i], inputs.T])])
        te[i] = minimum(np.r_[1.0, np.zeros(n)], a_ub, b_ub)
        # min p.x: peers cover y_i from the free bundle x
        a_ub = np.vstack([np.r_[np.zeros(k), -outputs], np.column_stack([-np.eye(k), inputs.T])])
        ce[i] = minimum(np.r_[prices[:k], np.zeros(n)], a_ub, b_ub) / float(inputs[i] @ prices[:k])
    return te, ce


def certify_te_by_duality(x: np.ndarray, y: np.ndarray, cost: np.ndarray):
    """Certify every te of one SDS, staff-years ``x`` and outputs ``y``, as
    the envelopment LP's optimum, with no LP solver: the frontier and peers
    come from ``dea``, and the checks are this function's own products.

    Each facet ``v . z >= c`` that ``dea._scores`` keeps, found in the
    scaled coordinates of ``dea._points``, is a multiplier (dual) solution
    if ``v >= 0``, ``c > 0`` and ``v / scale . z_j >= c`` at every unit with
    output, ``z_j = x_j / y_j``: then te_i >= ``max c / (v / scale . z_i)``.
    The peers of ``dea._peers`` are an envelopment (primal) solution if they
    cover a unit's output from at most te times its inputs: then te_i is at
    most the reported te. Both bounds must meet it: the worst dual
    violation, dual gap and primal slack, each relative, are within
    ``_FEAS_TOL``.
    """
    (te, _, _), frontier = dea._scores("S", range(len(y)), x, y, cost)
    if frontier is None:
        assert not te.any()
        return
    pos, _, z, front, ratio, facets = frontier
    _, v, c, _ = facets
    te, x, y = te[pos], x[pos], y[pos]
    assert (v >= 0).all() and (c > 0).all() and (te > 0).all()
    q = x / y[:, None]
    scale = q[front].max(axis=0)
    height = (q / np.where(scale > 0, scale, 1.0)) @ v.T / c  # v / scale . z_j / c
    dual = (1 / height).max(axis=1)
    peer, weight = dea._peers(y, z, front, te, ratio, facets)
    made = (weight * y[peer]).sum(axis=1)
    used = (weight[..., None] * x[peer]).sum(axis=1)
    over = (used - te[:, None] * x).max(axis=1) / (te * x.max(axis=1))
    worst = (
        max(1 - height.min(), 0.0),
        float(np.abs(dual / te - 1).max()),
        max(float((1 - made / y).max()), float(over.max()), 0.0),
    )
    assert max(worst) <= _FEAS_TOL, worst


def ce_closed_form(
    dmu0: int, inputs: np.ndarray, outputs: np.ndarray, prices: np.ndarray
) -> float:
    """Cost efficiency under constant returns with a single output.

    The cheapest way to cover the DMU's output is to scale whichever peer
    has the lowest cost per unit of output, so
    ce = ss_0 * min_j(w.x_j / ss_j) / (w.x_0) over peers with ss_j > 0.
    """
    costs = inputs @ prices
    ratios = [costs[j] / outputs[j] for j in range(len(outputs)) if outputs[j] > 0]
    return outputs[dmu0] * min(ratios) / costs[dmu0]


def te_single_input_closed_form(dmu0: int, inputs_1d, outputs) -> float:
    """With one input, te is the DMU's output/input ratio over the best one."""
    rates = [o / x for o, x in zip(outputs, inputs_1d)]
    return rates[dmu0] / max(rates)


def reference_pareto_front(z: np.ndarray) -> np.ndarray:
    """Indices of the points of ``z`` that no other point dominates."""
    below, above = z[:, None] <= z[None], z[:, None] < z[None]
    return np.flatnonzero(~(below.all(axis=2) & above.any(axis=2)).any(axis=0))


def reference_facets(p: np.ndarray, tol: float):
    """``dea._facets(p)`` one anchor point at a time, each dot product added
    left to right: the generators, then per plane kept its unit ``v``, ``c``
    and triple."""
    m = len(p)
    gens = np.vstack([p, np.eye(3)])
    first, second = np.triu_indices(m + 3, 1)
    found = []
    for a in range(m):
        # direction from the anchor point a to each point, and each ray
        d = gens.copy()
        d[:m] -= p[a]
        pairs = first > a
        j, k = first[pairs], second[pairs]
        v = np.cross(d[j], d[k])
        v /= np.maximum(np.linalg.norm(v, axis=1, keepdims=True), np.finfo(float).tiny)
        v *= np.sign(v.sum(axis=1, keepdims=True))
        c = v[:, 0] * p[a, 0] + v[:, 1] * p[a, 1] + v[:, 2] * p[a, 2]
        # Height of every generator above each plane; for a ray, its slope.
        g0, g1, g2 = gens.T[:, :, None]
        height = g0 * v[:, 0] + g1 * v[:, 1] + g2 * v[:, 2]
        height[:m] -= c
        keep = (c > 0) & (height.min(axis=0) >= -tol * c)
        triples = np.column_stack([np.full_like(j, a), j, k])
        found.append((v[keep].clip(0.0), c[keep], triples[keep]))
    v, c, triples = (np.concatenate(parts) for parts in zip(*found))
    return gens, v, c, triples


def integer_cost_triples(
    target: float, prices: tuple[float, float, float], tol: float = 5e-4
) -> list[tuple[int, int, int]]:
    """All nonnegative integer staff-year triples whose cost hits ``target``.

    Bounds carry a +2 cushion so float floor-division can never drop an
    exact-match candidate.
    """
    fp_price, ap_price, rf_price = prices
    hits = []
    for fp in range(int(target / fp_price) + 2):
        fp_cost = fp * fp_price
        if fp_cost > target + tol:
            break
        for ap in range(int((target - fp_cost) / ap_price) + 2):
            base = fp_cost + ap * ap_price
            if base > target + tol:
                break
            rf = round((target - base) / rf_price)
            for candidate in (rf - 1, rf, rf + 1):
                if candidate < 0:
                    continue
                if math.isclose(
                    base + candidate * rf_price, target, abs_tol=tol, rel_tol=0.0
                ):
                    hits.append((fp, ap, candidate))
    return sorted(set(hits))


def _parse_int(raw, path, line, column):
    # ASCII digits with an optional sign and blanks around them; int() also
    # reads "_" separators and non-ASCII digits
    if not (isinstance(raw, str) and raw.isascii() and re.fullmatch("[+-]?[0-9]+", raw.strip())):
        raise DataError(f"{path.name} line {line}: bad {column} value {raw!r}")
    return int(raw)


def reference_ingest_ss(staff_keys, publications_path, medians):
    """``(ss, publication_count)`` of a computed-mode ingest, row by row.

    Every row becomes a validated ``PublicationRecord``, and each staff
    row's SS is the ``math.fsum`` of its records'
    ``scientific_strength((record,), medians)``. Raises the same
    ``DataError`` as ingest on the first bad row; after the file, for
    unknown staff rows and uncovered (year, category) pairs, each named
    with the first line that has it, then for the first row whose record
    ``scientific_strength`` rejects, then for the first staff key whose SS
    is past the float range, named with its last cited row.
    """
    path = Path(publications_path)
    terms = {key: [] for key in staff_keys}
    last = {}
    orphans, missing = {}, {}
    unscored = None
    count = 0
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            line = reader.line_num
            categories = tuple(c for c in row["categories"].split(";") if c)
            positions = tuple(
                _parse_int(p, path, line, "dmu_positions")
                for p in row["dmu_positions"].split(";")
                if p
            )
            flag = row["life_science"].strip()
            if flag not in ("0", "1"):
                raise DataError(f"{path.name} line {line}: life_science must be 0 or 1")
            year = _parse_int(row["year"], path, line, "year")
            citations = _parse_int(row["citations"], path, line, "citations")
            total_authors = _parse_int(row["total_authors"], path, line, "total_authors")
            try:
                record = PublicationRecord(
                    pub_id=row["pub_id"],
                    year=year,
                    citations=citations,
                    categories=categories,
                    total_authors=total_authors,
                    dmu_author_positions=positions,
                    life_science=flag == "1",
                )
            except DataError as exc:
                raise DataError(f"{path.name} line {line}: {exc}") from None
            count += 1
            key = (row["dmu_id"], row["sds_id"])
            uncovered = [(year, c) for c in categories if not medians.covers(year, c)]
            for pair in uncovered:
                missing.setdefault(pair, line)
            if key not in terms:
                orphans.setdefault(key, line)
            elif not uncovered:
                try:
                    terms[key].append(scientific_strength((record,), medians))
                except DataError as exc:
                    unscored = unscored or f"{path.name} line {line}: {exc}"
                    continue
                if record.citations:  # an uncited row contributes nothing
                    last[key] = line
    for found, message in (
        (orphans, "publications reference unknown staff rows"),
        (missing, "median table does not cover"),
    ):
        if found:
            located = [f"{key} at {path.name} line {line}" for key, line in sorted(found.items())]
            raise DataError(f"{message}: {'; '.join(located)}")
    if unscored:
        raise DataError(unscored)
    ss = {}
    for key, unit_terms in terms.items():
        try:
            ss[key] = math.fsum(unit_terms)
        except OverflowError:
            ss[key] = math.inf
        if not math.isfinite(ss[key]):
            raise DataError(
                f"{path.name} line {last[key]}: scientific strength of {key} overflows a float"
            )
    return ss, count


def reference_report_json(report) -> str:
    """report.json's text: the report's fields through ``dataclasses.asdict``
    and the standard library's compact, key-sorted encoder, with each score
    row under its SDS and an institution's rows as ``{"sds_id": ...}``."""
    document = {
        "ss_mode": report.ss_mode,
        "quadrant_threshold": report.quadrant_threshold,
        "eligibility": [dataclasses.asdict(e) for e in report.eligibility],
        "sds": {
            sds_id: {
                "rows": [r._asdict() for r in res.rows],
                "histograms": {
                    key: dataclasses.asdict(h) for key, h in sorted(res.histograms.items())
                },
                "quadrants": dataclasses.asdict(res.quadrants),
            }
            for sds_id, res in sorted(report.sds_results.items())
        },
        "institutions": [
            {
                "dmu_id": inst.dmu_id,
                "rows": [{"sds_id": r.sds_id} for r in inst.rows],
                "aggregate": dataclasses.asdict(inst.aggregate),
            }
            for inst in report.institutions
        ],
    }
    return json.dumps(document, sort_keys=True) + "\n"


_SCORE_COLUMNS = (
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


def reference_csv_tables(report) -> dict[str, str]:
    """The text of every CSV table, keyed by file name, written row by row:
    None as an empty cell, a float with 3 decimals, a flag as 1 or 0 and
    anything else through ``str``."""

    def fmt(value) -> str:
        if value is None:
            return ""
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    def table(header, rows) -> str:
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return text.getvalue()

    tables = {}
    for sds_id, result in sorted(report.sds_results.items()):
        slug = re.sub(r"[^A-Za-z0-9]+", "_", sds_id)
        tables[f"scores_{slug}.csv"] = table(
            _SCORE_COLUMNS,
            [[fmt(getattr(row, name)) for name in _SCORE_COLUMNS] for row in result.rows],
        )
    tables["institutions.csv"] = table(
        ("dmu_id", "n_sds", "staff_cost", "te", "ae", "ce", "te_pct", "ae_pct", "ce_pct"),
        [
            [inst.dmu_id, str(len(inst.rows))]
            + [
                fmt(getattr(inst.aggregate, name))
                for name in ("total_weight", "te", "ae", "ce", "te_pct", "ae_pct", "ce_pct")
            ]
            for inst in report.institutions
        ],
    )
    tables["eligibility.csv"] = table(
        (
            "sds_id",
            "included",
            "universities_active",
            "fraction_publishing",
            "failed_criteria",
            "filter_applied",
        ),
        [
            [
                e.sds_id,
                "1" if e.included else "0",
                str(e.universities_active),
                fmt(e.fraction_publishing),
                ";".join(e.failed_criteria),
                "1" if e.filter_applied else "0",
            ]
            for e in report.eligibility
        ],
    )
    return tables


def reference_percentile_rank(scores, target: float) -> float:
    """Rank of ``target`` within ``scores`` on a 0-100 scale, by one scan:
    scores more than ``TIE_TOL`` below it count fully, the others within
    ``TIE_TOL`` of it half."""
    low, high = target - TIE_TOL, target + TIE_TOL
    worse = sum(1 for s in scores if s < low)
    tied_others = sum(1 for s in scores if low <= s <= high) - 1
    return 100.0 * (worse + 0.5 * tied_others) / (len(scores) - 1)


def reference_histogram(scores, bin_width: float = 0.2) -> Histogram:
    """Scores over [0, 1] binned one at a time, by ``round(s / bin_width, 9)``."""
    n_bins = round(1.0 / bin_width)
    counts = [0] * n_bins
    for s in scores:
        counts[min(int(round(s / bin_width, 9)), n_bins - 1)] += 1
    return Histogram(tuple(counts), statistics.median(scores), bin_width)


def reference_aggregate(rows) -> AggregateScores:
    """Weighted mean of ``((te, ae, ce), weight)`` rows, each sum added
    left to right."""
    def left_to_right(values):
        return functools.reduce(operator.add, values, 0)

    total = left_to_right(w for _, w in rows)
    te, ae, ce = (left_to_right(t[k] * w for t, w in rows) / total for k in range(3))
    return AggregateScores(te=te, ae=ae, ce=ce, total_weight=total)


def reference_staff_cost(dmu, costs) -> float:
    """The unit's staff cost, its three terms added one at a time in Python."""
    return (
        dmu.fp_years * costs.fp_cost + dmu.ap_years * costs.ap_cost + dmu.rf_years * costs.rf_cost
    )


def reference_results(dataset, config, apply_filter: bool = True):
    """The score rows of each included SDS, and each institution's rows and
    aggregate, built one unit at a time from :func:`evaluate_sds`."""

    def pct(values):
        if len(values) < 2:
            return [None] * len(values)
        return [reference_percentile_rank(values, v) for v in values]

    by_sds: dict[str, list] = {}
    rows = zip(dataset.units, dataset.years.tolist(), dataset.ss.tolist())
    for (dmu_id, sds_id), years, ss in sorted(rows):
        by_sds.setdefault(sds_id, []).append((DmuInput(dmu_id, sds_id, *years), ss))
    sds_rows = {}
    for sds_id, members in sorted(by_sds.items()):
        ds = SdsDataset(sds_id=sds_id, members=tuple(members))
        publishing = sum(1 for _, ss in ds.members if ss > 0) / len(ds)
        if apply_filter and (
            len(ds) < config.min_active_universities
            or publishing < config.min_fraction_publishing
        ):
            continue
        scores = [s.as_triple() for s in evaluate_sds(ds, config.costs).values()]
        te, ae, ce = map(list, zip(*scores))
        sds_rows[sds_id] = tuple(
            ScoreRow(
                dmu.dmu_id,
                sds_id,
                ss,
                dmu.fp_years,
                dmu.ap_years,
                dmu.rf_years,
                *scores,
                reference_staff_cost(dmu, config.costs),
                ss / (dmu.fp_years + dmu.ap_years + dmu.rf_years),
                *ranks,
            )
            for (dmu, ss), *scores, ranks in zip(
                ds.members, te, ae, ce, zip(pct(te), pct(ae), pct(ce))
            )
        )
    by_dmu: dict[str, list] = {}
    for rows in sds_rows.values():
        for row in rows:
            by_dmu.setdefault(row.dmu_id, []).append(row)
    aggregates = {
        dmu_id: reference_aggregate([((r.te, r.ae, r.ce), r.staff_cost) for r in rows])
        for dmu_id, rows in sorted(by_dmu.items())
    }
    triples = [(a.te, a.ae, a.ce) for a in aggregates.values()]
    ranks = zip(*(pct(column) for column in zip(*triples)))
    institutions = {
        dmu_id: (
            tuple(by_dmu[dmu_id]),
            dataclasses.replace(agg, te_pct=t, ae_pct=a, ce_pct=c),
        )
        for (dmu_id, agg), (t, a, c) in zip(aggregates.items(), ranks)
    }
    return sds_rows, institutions
