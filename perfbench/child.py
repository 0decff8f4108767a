"""The program side of one benchmark measurement, in a fresh interpreter.

    child.py setup OUT SRC CONFIG
    child.py run OUT SRC CONFIG RESULTS [SPANS]

``setup`` imports surropt.cli, parses the workload config, plans the run
and builds each problem, then reports its CPU time since interpreter start.
``run`` does what `surropt run --config CONFIG --out RESULTS --jobs 1` does,
timed, then checks and re-scores the results. With SPANS it records the run
with the tracer and writes the spans there. Each mode writes one JSON object
to OUT.
"""

from __future__ import annotations

import contextlib
import io
import json
import logging
import resource
import sys
import time
from pathlib import Path


def setup(src: str, config: str) -> dict:
    sys.path.insert(0, src)
    t0 = time.monotonic()
    from surropt.cli import RunManifest, parse_config
    from surropt.problems import get_problem

    cfg = parse_config(config)
    RunManifest.plan(cfg)
    for key in cfg.problems:
        get_problem(key)
    return {"cpu_s": time.process_time(), "t0": t0, "t1": time.monotonic()}


def run(src: str, config: str, results: str, spans: str | None = None) -> dict:
    sys.path.insert(0, src)
    import surropt
    import surropt.optimizers
    from surropt.bench import score_results
    from surropt.cli import main as surropt_main
    from surropt.core import derive_seed

    import checks
    import tracing

    if not Path(surropt.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"surropt imported from {surropt.__file__}, not from {src}")
    fallbacks = checks.FallbackLog(surropt.optimizers.run_optimizer.__code__)
    logging.getLogger("surropt.optimizers").addHandler(fallbacks)
    tracer = tracing.Tracer()
    if spans:
        tracing.install(tracer)
    argv = ["run", "--config", config, "--out", results, "--jobs", "1"]

    t0, c0, w0 = time.monotonic(), time.process_time(), time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = surropt_main(argv)
    c1, w1, t1 = time.process_time(), time.perf_counter(), time.monotonic()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if code != 0:
        raise SystemExit(f"surropt run exited with {code}")

    suite_dir = next(p for p in Path(results).iterdir() if p.is_dir())
    r0 = time.thread_time()
    table = score_results(str(suite_dir))
    rescore_s = time.thread_time() - r0
    report = {
        "t0": t0, "t1": t1, "cpu_s": c1 - c0, "wall_s": w1 - w0, "peak_rss_mb": rss_mb,
        "rescore": checks.check_rescore(suite_dir, table),
        "cells": checks.check_cells(suite_dir, fallbacks.cells, derive_seed),
        "fallbacks": len(fallbacks.cells),
    }
    if spans:
        report["layers"], report["coverage_error"] = tracing.layer_metrics(
            tracer, len(fallbacks.cells), rescore_s)
        tracing.write_spans(tracer, spans)
    return report


if __name__ == "__main__":
    mode, out, *args = sys.argv[1:]
    result = setup(*args) if mode == "setup" else run(*args)
    Path(out).write_text(json.dumps(result))
