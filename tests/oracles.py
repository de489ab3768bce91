"""Independent oracles used to cross-check the DEA scores and the ingest.

The package computes the scores from the frontier geometry without solving
any LP. The oracles here solve the envelopment LPs instead: by enumerating
basic solutions of the standard form directly, or with HiGHS from scipy
(a test-only dependency, imported on first use). The closed forms of the
constant-returns geometry are kept as a further reference.

``reference_ingest_ss`` scores a publications file row by row, the way
ingest did before it read the file by columns and cached per distinct key.
``reference_report_json`` is report.json as the standard library encodes it.
"""

import csv
import dataclasses
import itertools
import json
import math
from pathlib import Path

import numpy as np

from bibdea import DataError, PublicationRecord, scientific_strength

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
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise DataError(f"{path.name} line {line}: bad {column} value {raw!r}") from None


def reference_ingest_ss(staff_keys, publications_path, medians):
    """``(ss, publication_count)`` of a computed-mode ingest, row by row.

    Every row becomes a validated ``PublicationRecord``, and
    ``scientific_strength((record,), medians)`` is added to its staff row in
    file order. Raises the same ``DataError`` as ingest on the first bad row
    or SS overflow, then for unknown staff rows and uncovered (year, category)
    pairs, each named with the first line that has it.
    """
    path = Path(publications_path)
    ss = dict.fromkeys(staff_keys, 0.0)
    orphans, missing = {}, {}
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
            if key not in ss:
                orphans.setdefault(key, line)
            for c in record.categories:
                if not medians.covers(record.year, c):
                    missing.setdefault((record.year, c), line)
            if not (orphans or missing):
                try:
                    ss[key] += scientific_strength((record,), medians)
                except DataError as exc:
                    raise DataError(f"{path.name} line {line}: {exc}") from None
                if not math.isfinite(ss[key]):
                    raise DataError(
                        f"{path.name} line {line}: scientific strength of {key} "
                        "overflows a float"
                    )
    for found, message in (
        (orphans, "publications reference unknown staff rows"),
        (missing, "median table does not cover"),
    ):
        if found:
            located = [f"{key} at {path.name} line {line}" for key, line in sorted(found.items())]
            raise DataError(f"{message}: {'; '.join(located)}")
    return ss, count


def reference_report_json(report) -> str:
    """report.json's text: the report's fields through ``dataclasses.asdict``
    and the standard library's indented, key-sorted encoder."""
    document = {
        "ss_mode": report.ss_mode,
        "census_date": report.census_date,
        "quadrant_threshold": report.quadrant_threshold,
        "reporting_precision": report.reporting_precision,
        "eligibility": [dataclasses.asdict(e) for e in report.eligibility],
        "sds": {
            sds_id: {
                "rows": [dataclasses.asdict(r) for r in res.rows],
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
                "rows": [dataclasses.asdict(r) for r in inst.rows],
                "aggregate": dataclasses.asdict(inst.aggregate),
            }
            for inst in report.institutions
        ],
    }
    return json.dumps(document, sort_keys=True, indent=2) + "\n"
