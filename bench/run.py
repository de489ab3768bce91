"""Census benchmark for ``bibdea assess``.

Run from the repository root:

    python3 bench/run.py --workload census_passthrough --seed 1 --seconds 30 --trace 0

It generates the workload's inputs from the seed (``gen.py``), then runs
``bibdea assess`` on them in a closed loop, a single client starting one
fresh interpreter at a time (``child.py``), until ``--seconds`` have
passed. With ``--trace 1`` it alternates untraced and traced invocations.
Afterwards it checks the first report against oracles that do not import
``bibdea`` (``oracle.py``), checks that every other invocation wrote
byte-identical files, and shows that the check rejects corrupted copies of
the report.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (one operation is one ``assess``
invocation; it fails if it exits non-zero, prints a traceback, or writes
a report that fails the check or differs from the first) and ``metrics``:
the end-to-end medians with ``--trace 0``, the per-layer figures with
``--trace 1``. The line before it carries provenance, every sample, the
check's self-test and, where a run has enough samples, the highest tail
percentile with at least ten samples beyond it. Tails move with the
machine more than medians do, so they are not metrics.

Workloads (why each was chosen):
  census_passthrough  the paper's main run; DEA LPs do most of the work
  census_computed     SS computed from 100k publications; ingest and SS
                      take most of the time, DEA about a quarter
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import child
import gen
import oracle

BENCH = Path(__file__).resolve().parent
# Invocations stop after this long, so that a run ends within its time
# limit even when the program has become very slow.
LOOP_BUDGET_S = 140
# The oracle assumes the default configuration, so a config file named in
# the caller's environment must not reach the program; and the first
# invocation must be able to cache the compiled sources, so that setup_s
# times an import as an installed copy would do it.
CHILD_ENV = {
    k: v
    for k, v in os.environ.items()
    if k not in ("BIBDEA_CONFIG", "PYTHONDONTWRITEBYTECODE")
}


def _digest(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _provenance(args, files: dict, params: dict) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "generator": params,
        "inputs": {
            role: {
                "size": path.stat().st_size,
                "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            }
            for role, path in files.items()
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
    }


def _invoke(src: Path, mode: str, argv: list[str], timeout: float) -> dict | None:
    """Run one child; return its measurements, or None if it failed."""
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(src), mode, *argv],
            capture_output=True,
            text=True,
            timeout=timeout,
            env=CHILD_ENV,
        )
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0 or "Traceback" in proc.stderr or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def _tail(values: list[float]) -> dict | None:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    pct = 100 * (n - 10) // n if n > 10 else 0
    if pct <= 50:
        return None
    return {"percentile": pct, "value": statistics.quantiles(values, n=100)[pct - 1]}


def _layer_metrics(traced: list[dict], plain: list[dict], out: Path, files: dict, exp: dict):
    def med(field, name):
        return statistics.median(t[field][name] for t in traced)

    m = {}
    for name in sorted({t for t, _, _ in child.TARGETS}):
        m[f"{name}.calls"] = (med("calls", name), "count")
        m[f"{name}.s"] = (med("seconds", name), "s")
    m["io.ingest.mb"] = (sum(p.stat().st_size for p in files.values()) / 1e6, "MB")
    emitted = list(out.iterdir())
    m["io.emit.files"] = (len(emitted), "count")
    m["io.emit.mb"] = (sum(p.stat().st_size for p in emitted) / 1e6, "MB")
    m["bibliometrics.pubs"] = (statistics.median(t["pubs"] for t in traced), "count")
    m["report.self.s"] = (med("self_seconds", "report.run_assessment"), "s")
    scored = sum(1 for u in exp["units"].values() if u["ss"] > 0)
    m["dea.units_scored"] = (scored, "count")
    m["dea.us_per_unit"] = (1e6 * m["dea.evaluate_sds.s"][0] / scored if scored else 0.0, "us")
    m["simplex.lps_per_unit"] = (
        m["simplex.solve_lp.calls"][0] / scored if scored else 0.0,
        "count",
    )
    m["cli.main.s"] = (_median(traced, "wall_s"), "s")
    # Each traced invocation runs right after an untraced one; the ratio of
    # such pairs is less exposed to drift in machine speed than two medians.
    ratios = [t["wall_s"] / p["wall_s"] for p, t in zip(plain, traced)]
    m["trace.overhead_pct"] = (100.0 * (statistics.median(ratios) - 1.0), "%")
    top = ("io.ingest", "report.run_assessment", "io.emit")
    m["trace.covered_pct"] = (
        statistics.median(
            100.0 * sum(t["seconds"][n] for n in top) / t["wall_s"] for t in traced
        ),
        "%",
    )
    return m


def run(args) -> int:
    root = Path.cwd()
    src = root / "src"
    if not (src / "bibdea" / "cli.py").is_file():
        print(f"no bibdea sources under {src}", file=sys.stderr)
        return 2
    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _measure(args, src, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, src: Path, work: Path) -> int:
    files, params = gen.generate(args.workload, args.seed, work / "inputs")
    argv = ["assess", "--format", "json,csv"]
    for role, path in files.items():
        argv += [f"--{role}", str(path)]

    start = time.perf_counter()
    # Compile the sources once, as any installed copy would be.
    if _invoke(src, "import", [], LOOP_BUDGET_S) is None:
        print("bibdea does not import", file=sys.stderr)
        return 2

    plain, traced, setups = [], [], []
    reference, ref_digest = None, None
    attempted = failed = identical = 0
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or not plain or (args.trace and not traced):
        mode = "traced" if args.trace and len(plain) > len(traced) else "plain"
        out = work / f"out{attempted}"
        remaining = LOOP_BUDGET_S - (time.perf_counter() - start)
        if remaining <= 0:
            break
        attempted += 1
        sample = _invoke(src, mode, [*argv, "--out", str(out)], remaining)
        if sample is None:
            failed += 1
            if reference is None:
                break
            continue
        (traced if mode == "traced" else plain).append(sample)
        setups.append(sample["setup_s"])
        digest = _digest(out)
        if reference is None:
            reference, ref_digest = out, digest
            continue
        if digest == ref_digest:
            identical += 1
        else:
            failed += 1
        shutil.rmtree(out)

    problems, mismatched, checks = [], 0, {}
    if reference is not None:
        exp = oracle.expected(files)
        try:
            mismatched, problems, report = oracle.check(reference, exp)
            checks = oracle.self_test(report, exp)
        except (OSError, LookupError, TypeError, ValueError) as exc:
            problems = [f"report is malformed: {exc!r}"]
        if mismatched or problems:
            failed += 1 + identical
    correct = reference is not None and failed == 0 and all(checks.values())

    if args.trace:
        metrics = (
            _layer_metrics(traced, plain, reference, files, exp) if correct and traced else {}
        )
        metrics["check.mismatched_units"] = (mismatched, "count")
    else:
        metrics = {}
        if plain:
            metrics = {
                "assess_s": (_median(plain, "wall_s"), "s"),
                "assess_cpu_s": (_median(plain, "cpu_s"), "s"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (_median(plain, "peak_rss_mb"), "MB"),
            }
    detail = {
        "provenance": _provenance(args, files, params),
        "samples": {
            "assess_s": [p["wall_s"] for p in plain],
            "assess_cpu_s": [p["cpu_s"] for p in plain],
            "traced_s": [t["wall_s"] for t in traced],
            "setup_s": setups,
        },
        "tails": {
            "assess_s": _tail([p["wall_s"] for p in plain]),
            "assess_cpu_s": _tail([p["cpu_s"] for p in plain]),
        },
        "self_test": checks,
        "mismatched_units": mismatched,
        "problems": problems[:20],
    }
    print(json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
