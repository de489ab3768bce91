"""Seeded synthetic census inputs for the benchmark workloads.

Every generator takes a ``random.Random`` and an output directory, writes
the CSV files ``bibdea assess`` reads, and returns ``(files, params)``: the
input paths by role and the generator parameters (for provenance). The
same seed always produces byte-identical files.

SDS sizes are stratified over their range (one draw per equal-width
stratum, then shuffled), so the total number of units, and with it the
amount of work per invocation, barely moves from seed to seed while the
individual SDSs still differ.
"""

import csv
import random
from pathlib import Path

UNIVERSITY_POOL = 100
CATEGORY_POOL = 60
YEARS = range(2004, 2009)


def _stratified_sizes(rng, count: int, low: int, high: int) -> list[int]:
    span = high - low
    sizes = [low + int((k + rng.random()) * (span + 1) / count) for k in range(count)]
    rng.shuffle(sizes)
    return sizes


def _staff_years(rng) -> tuple[float, float, float]:
    fp = round(rng.gammavariate(2.0, 6.0), 1)
    ap = round(rng.gammavariate(2.0, 7.0), 1)
    rf = round(rng.gammavariate(1.5, 6.0), 1)
    if fp + ap + rf <= 0:
        fp = 1.0
    return fp, ap, rf


def _universities(rng, size: int) -> list[str]:
    return [f"U{k:03d}" for k in sorted(rng.sample(range(UNIVERSITY_POOL), size))]


def _write_csv(path: Path, header: tuple[str, ...], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


_STAFF_HEADER = ("dmu_id", "sds_id", "fp_years", "ap_years", "rf_years")


def _passthrough_rows(rng, sds_sizes, zero_share: list[float]):
    """Staff rows with an ``ss`` column; ``zero_share[i]`` is SDS i's share
    of zero-output units. Every SDS keeps at least two publishing units."""
    rows = []
    for i, size in enumerate(sds_sizes):
        sds_id = f"S{i // 10:02d}/{i % 10:02d}"
        members = _universities(rng, size)
        zero = set(rng.sample(range(size), min(size - 2, round(zero_share[i] * size))))
        for k, dmu_id in enumerate(members):
            fp, ap, rf = _staff_years(rng)
            if k in zero:
                ss = 0.0
            else:
                ss = max(0.001, round((fp + ap + rf) * rng.lognormvariate(-0.8, 0.7), 3))
            rows.append((dmu_id, sds_id, fp, ap, rf, ss))
    return rows


def census_passthrough(rng, out: Path, n_sds: int = 20):
    """The paper's main run: precomputed SS, SDSs of 24-100 units, plus a
    few SDSs that fail robustness (< 24 units) or significance (< 50%
    publishing), so the eligibility filter does real work."""
    n_small, n_quiet = 2, 2
    n_main = n_sds - n_small - n_quiet
    sizes = (
        _stratified_sizes(rng, n_main, 24, 100)
        + _stratified_sizes(rng, n_small, 8, 23)
        + _stratified_sizes(rng, n_quiet, 24, 60)
    )
    zero_share = [0.05] * (n_main + n_small) + [rng.uniform(0.6, 0.8) for _ in range(n_quiet)]
    order = list(range(n_sds))
    rng.shuffle(order)
    sizes = [sizes[k] for k in order]
    zero_share = [zero_share[k] for k in order]
    rows = _passthrough_rows(rng, sizes, zero_share)
    staff = out / "staff.csv"
    _write_csv(staff, _STAFF_HEADER + ("ss",), rows)
    params = {
        "n_sds": n_sds,
        "sds_size_range": [24, 100],
        "robustness_failures": n_small,
        "significance_failures": n_quiet,
        "zero_output_share": 0.05,
        "universities": UNIVERSITY_POOL,
        "units": len(rows),
    }
    return {"staff": staff}, params


def census_computed(rng, out: Path, n_sds: int = 20, n_pubs: int = 100_000):
    """SS computed from publications and reference medians: ingest and the
    bibliometrics layer take most of the time, DEA about a quarter. About a
    tenth of the (year, category) medians are zero, which exercises the
    mean fallback."""
    sizes = _stratified_sizes(rng, n_sds, 24, 60)
    units = []
    staff_rows = []
    for i, size in enumerate(sizes):
        sds_id = f"S{i // 10:02d}/{i % 10:02d}"
        home = rng.sample(range(CATEGORY_POOL), 4)
        for dmu_id in _universities(rng, size):
            fp, ap, rf = _staff_years(rng)
            staff_rows.append((dmu_id, sds_id, fp, ap, rf))
            if rng.random() >= 0.05:
                weight = (fp + ap + rf) * rng.lognormvariate(0.0, 0.5)
                units.append((dmu_id, sds_id, home, weight))
    staff = out / "staff.csv"
    _write_csv(staff, _STAFF_HEADER, staff_rows)

    zero_medians = set()
    median_rows = []
    for year in YEARS:
        for c in range(CATEGORY_POOL):
            if rng.random() < 0.1:
                zero_medians.add((year, c))
                median, mean = 0.0, round(rng.uniform(0.5, 3.0), 3)
            else:
                median = round(rng.uniform(1.0, 15.0) * 2) / 2
                mean = round(median * rng.uniform(1.1, 1.8), 3)
            median_rows.append((year, f"C{c:03d}", median, mean))
    medians = out / "medians.csv"
    _write_csv(medians, ("year", "category", "median", "mean"), median_rows)

    total_weight = sum(u[3] for u in units)
    pub_rows = []
    for dmu_id, sds_id, home, weight in units:
        for _ in range(max(1, round(n_pubs * weight / total_weight))):
            year = rng.choice(YEARS)
            cats = sorted(
                rng.sample(home, rng.randint(1, 3))
                if rng.random() < 0.8
                else rng.sample(range(CATEGORY_POOL), rng.randint(1, 3))
            )
            authors = rng.randint(1, 15)
            positions = sorted(rng.sample(range(1, authors + 1), rng.randint(1, min(3, authors))))
            citations = 0 if rng.random() < 0.25 else int(rng.expovariate(1 / 8))
            pub_rows.append(
                (
                    f"P{len(pub_rows):07d}",
                    dmu_id,
                    sds_id,
                    year,
                    citations,
                    ";".join(f"C{c:03d}" for c in cats),
                    authors,
                    ";".join(map(str, positions)),
                    1 if rng.random() < 0.4 else 0,
                )
            )
    pubs = out / "publications.csv"
    _write_csv(
        pubs,
        (
            "pub_id",
            "dmu_id",
            "sds_id",
            "year",
            "citations",
            "categories",
            "total_authors",
            "dmu_positions",
            "life_science",
        ),
        pub_rows,
    )
    params = {
        "n_sds": n_sds,
        "sds_size_range": [24, 60],
        "units": len(staff_rows),
        "publications": len(pub_rows),
        "categories": CATEGORY_POOL,
        "years": [YEARS[0], YEARS[-1]],
        "zero_median_pairs": len(zero_medians),
        "life_science_share": 0.4,
    }
    files = {"staff": staff, "publications": pubs, "medians": medians}
    return files, params


WORKLOADS = {
    "census_passthrough": census_passthrough,
    "census_computed": census_computed,
}


def generate(workload: str, seed: int, out: Path):
    """Write ``workload``'s inputs for ``seed`` into ``out``.

    Returns the input files by role and the generator parameters.
    """
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, out)
