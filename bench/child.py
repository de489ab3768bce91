"""One ``bibdea`` invocation in a fresh interpreter, measured from inside.

Usage: python3 bench/child.py SRC_DIR MODE [ARGS...]

MODE is ``plain`` (run ``bibdea.cli.main(ARGS)`` untraced), ``traced``
(the same, with the layer wrappers below installed) or ``import`` (import
only). The process exits with ``main``'s return code and prints one JSON
line: the import time, and for a run its wall and CPU seconds, peak RSS
and, when traced, per-layer call counts and inclusive seconds.

The wrappers live here so that the package under test stays unchanged.
Each name is patched where its caller looks it up, and looked up at run
time: a name that no longer exists is simply not wrapped and reads as 0
calls.
"""

import sys
import time

# (layer metric, module whose global the caller reads, attribute path)
TARGETS = (
    ("io.ingest", "bibdea.io", "ingest"),
    ("io.emit", "bibdea.io", "emit"),
    ("report.run_assessment", "bibdea.cli", "run_assessment"),
    ("report.build_sds_dataset", "bibdea.report", "build_sds_dataset"),
    ("bibliometrics.scientific_strength", "bibdea.report", "scientific_strength"),
    ("model.staff_for_sds", "bibdea.model", "AssessmentDataset.staff_for_sds"),
    ("model.validate_dataset", "bibdea.dea", "validate_dataset"),
    ("dea.evaluate_sds", "bibdea.report", "evaluate_sds"),
    ("dea.technical_efficiency", "bibdea.dea", "technical_efficiency"),
    ("dea.cost_efficiency", "bibdea.dea", "cost_efficiency"),
    ("simplex.solve_lp", "bibdea.dea", "solve_lp"),
    ("analytics.percentile", "bibdea.analytics", "percentile_scores"),
    ("analytics.percentile", "bibdea.analytics", "percentile_rank"),
    ("analytics.histogram", "bibdea.analytics", "histogram"),
    ("analytics.efficiency_matrix", "bibdea.analytics", "efficiency_matrix"),
    ("analytics.aggregate_weighted", "bibdea.analytics", "aggregate_weighted"),
)


class Tracer:
    """Call counts, inclusive and self seconds per layer metric.

    Inclusive seconds count only the outermost call of a metric, so a
    metric that wraps two names calling each other is not counted twice.
    Self seconds are a call's duration minus that of its wrapped children.
    """

    def __init__(self):
        self.calls = {name: 0 for name, _, _ in TARGETS}
        self.seconds = dict.fromkeys(self.calls, 0.0)
        self.self_seconds = dict.fromkeys(self.calls, 0.0)
        self.depth = dict.fromkeys(self.calls, 0)
        self.stack = []
        self.pubs = 0

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            frame = [0.0]
            self.stack.append(frame)
            self.depth[name] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.stack.pop()
                self.depth[name] -= 1
                self.calls[name] += 1
                if self.depth[name] == 0:
                    self.seconds[name] += elapsed
                self.self_seconds[name] += elapsed - frame[0]
                if self.stack:
                    self.stack[-1][0] += elapsed
                if name == "bibliometrics.scientific_strength" and args:
                    self.pubs += len(args[0])

        return traced

    def install(self):
        import importlib

        for name, module, path in TARGETS:
            try:
                owner = importlib.import_module(module)
            except ImportError:
                continue
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent, None)
            fn = getattr(owner, attr, None)
            if callable(fn):
                setattr(owner, attr, self.wrap(name, fn))


def main() -> int:
    src, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import bibdea.cli

    setup_s = time.perf_counter() - start

    import contextlib
    import json
    import os
    import resource

    if not os.path.abspath(bibdea.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"bibdea imported from {bibdea.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    code = 0
    if mode != "import":
        tracer = Tracer() if mode == "traced" else None
        if tracer:
            tracer.install()
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            cpu0, wall0 = time.process_time(), time.perf_counter()
            code = bibdea.cli.main(argv)
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        result.update(
            exit=code,
            wall_s=wall,
            cpu_s=cpu,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        if tracer:
            result.update(
                calls=tracer.calls,
                seconds=tracer.seconds,
                self_seconds=tracer.self_seconds,
                pubs=tracer.pubs,
            )
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
