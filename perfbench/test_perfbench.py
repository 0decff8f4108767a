"""Self-tests of the benchmark: probe arithmetic, tracing, checks, metric names.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import csv
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import probe
import spec
import tracing

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

REF = probe.REF_UNIT_S


def test_factor_is_one_at_reference_speed():
    samples = [(t, REF) for t in range(20)]
    assert probe.speed_factor(samples, 0, 19) == pytest.approx(1.0)


HALF = 0.5 ** probe.ELASTICITY  # weight of CPU time at half reference speed


def test_half_speed_counts_half_to_the_elasticity():
    samples = [(t, 2 * REF) for t in range(20)]
    assert probe.speed_factor(samples, 0, 19) == pytest.approx(HALF)


def test_factor_averages_speed_ratios_not_unit_times():
    # half the window at reference speed, half at half speed: the CPU time
    # spent in each half counts 1 and HALF
    samples = [(t, REF if t < 10 else 2 * REF) for t in range(20)]
    assert probe.speed_factor(samples, 0, 19) == pytest.approx((1 + HALF) / 2)


def test_factor_uses_only_samples_inside_the_window():
    samples = [(t, REF if t < 10 else 4 * REF) for t in range(20)]
    assert probe.speed_factor(samples, 0, 9) == pytest.approx(1.0)
    assert probe.speed_factor(samples, 10, 19) == pytest.approx(HALF ** 2)


def test_short_window_borrows_nearest_samples():
    samples = [(t, REF if t < 10 else 2 * REF) for t in range(20)]
    # no sample inside (14.2, 14.4): the MIN_SAMPLES nearest are all slow
    assert probe.speed_factor(samples, 14.2, 14.4) == pytest.approx(HALF)


def test_trim_drops_outlier_samples():
    samples = [(t, REF) for t in range(40)] + [(40, REF / 100), (41, 100 * REF)]
    assert len(samples) * probe.TRIM >= 2
    assert probe.speed_factor(samples, 0, 41) == pytest.approx(1.0)


def test_no_samples_is_an_error():
    with pytest.raises(ValueError):
        probe.speed_factor([], 0, 1)


def test_probe_sample_is_positive():
    assert probe.sample() > 0


def test_benchmark_json_matches_spec():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(spec.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        k: v[0] for k, v in spec.END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        k: v[0] for k, v in spec.PER_LAYER.items()}
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])


def _fake_layers(tracer):
    """A cell with an initial design of 2, one proposal step and nested spans."""
    w = tracer.wrap
    sim = w(tracing.SIMULATOR["casestudies"], lambda: sum(range(1000)))
    evaluate = w(tracing.EVALUATE, lambda: sim())
    dataset = w(tracing.DATASET, lambda: None)
    predict = w(tracing.PREDICT, lambda: sum(range(500)))
    fit = w("surrogates.fit_quadratic", lambda: predict())

    def cell():
        evaluate()
        evaluate()
        dataset()
        dataset()
        fit()
        evaluate()
        return "trajectory"

    run = w(tracing.RUN_BENCHMARK, lambda: [w(tracing.GET_PROBLEM, lambda: 0)(),
                                             w(tracing.CELL, cell)()])
    return run()


def test_layer_metrics_names_and_counts():
    tracer = tracing.Tracer()
    assert _fake_layers(tracer)[1] == "trajectory"
    m, coverage_error = tracing.layer_metrics(tracer, fallbacks=0, rescore_s=0.5)
    assert set(m) | {"trace.overhead_frac"} == set(spec.PER_LAYER)
    assert coverage_error < 1e-9
    assert m["bench.cells"] == 1
    assert m["casestudies.calls"] == 3 and m["problems.calls"] == 0
    assert m["core.evaluate.calls"] == 3 and m["core.dataset.calls"] == 2
    assert m["surrogates.fit_quadratic.calls"] == 1 and m["surrogates.predict.calls"] == 1
    assert m["optimizers.steps"] == 1
    assert m["bench.rescore_s"] == 0.5
    assert all(v >= 0 for v in m.values())


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    _fake_layers(tracer)
    names = np.array(tracer.names)
    dur = np.array(tracer.ends) - np.array(tracer.starts)
    m, _ = tracing.layer_metrics(tracer, fallbacks=0, rescore_s=0.0)
    fit = dur[names == "surrogates.fit_quadratic"].sum()
    predict = dur[names == tracing.PREDICT].sum()
    assert m["surrogates.fit_quadratic.s"] == pytest.approx(fit - predict)


def test_unclosed_span_is_an_error():
    tracer = tracing.Tracer()
    tracer.names.append(tracing.CELL)
    tracer.parents.append(-1)
    tracer.starts.append(1.0)
    tracer.ends.append(-1.0)
    with pytest.raises(RuntimeError):
        tracing.layer_metrics(tracer, 0, 0.0)


def test_step_gaps_skip_initial_design():
    names = np.array([tracing.CELL, tracing.EVALUATE, tracing.EVALUATE, tracing.DATASET,
                      tracing.EVALUATE])
    parents = np.array([-1, 0, 0, 0, 0])
    starts = np.array([0.0, 1.0, 2.0, 3.5, 5.0])
    ends = np.array([6.0, 1.5, 3.0, 4.0, 5.5])
    assert tracing.step_gaps(names, parents, starts, ends) == [2.0]


def test_fallback_attributed_to_its_cell():
    log = logging.getLogger("perfbench-test")

    def run_optimizer(algorithm, problem, seed):
        log.warning("%s failed; random search for remaining budget", algorithm)

    class Named:
        name = "quadratic-c"

    handler = checks.FallbackLog(run_optimizer.__code__)
    log.addHandler(handler)
    try:
        log.warning("GP fit failed; falling back to random proposal")
        run_optimizer("cbo", Named(), 1234)
    finally:
        log.removeHandler(handler)
    assert handler.cells == [("quadratic-c", "cbo", 1234)]


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    from surropt.cli import main

    out = tmp_path_factory.mktemp("results")
    argv = ["run", "--suite", "constrained", "--problems", "matyas-c", "--algos", "cobyla",
            "cuatro", "--reps", "2", "--seed", "3", "--out", str(out), "--jobs", "1"]
    assert main(argv) == 0
    return out / "constrained"


def _checked(suite_dir):
    from surropt.core import derive_seed

    return checks.check_cells(suite_dir, [], derive_seed)


def test_clean_run_passes_every_check(small_run):
    from surropt.bench import score_results

    verdicts = _checked(small_run)
    assert len(verdicts) == 4 and all(v["ok"] for v in verdicts.values())
    assert all(len(v["sha256"]) == 64 for v in verdicts.values())
    assert checks.check_rescore(small_run, score_results(str(small_run)))["ok"]


def test_fingerprint_matches_trajectory_in_memory(small_run):
    from surropt.core import derive_seed
    from surropt.optimizers import run_optimizer
    from surropt.problems import get_problem

    traj = run_optimizer("cuatro", get_problem("matyas-c"), 20,
                         derive_seed(3, "cuatro", "matyas-c", 2, 1))
    digest = checks.fingerprint(traj.xs, traj.ys, traj.gs)
    assert _checked(small_run)["matyas-c/cuatro/rep1"]["sha256"] == digest


def _rewrite_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(edit(rows))


def test_short_or_non_finite_cells_fail(small_run, tmp_path):
    import shutil

    suite = tmp_path / "constrained"
    shutil.copytree(small_run, suite)
    _rewrite_csv(suite / "matyas-c/cobyla/rep0.csv", lambda rows: rows[:-1])
    _rewrite_csv(suite / "matyas-c/cuatro/rep1.csv",
                 lambda rows: rows[:5] + [rows[5][:-2] + ["nan", rows[5][-1]]] + rows[6:])
    verdicts = _checked(suite)
    assert not verdicts["matyas-c/cobyla/rep0"]["ok"]
    assert not verdicts["matyas-c/cuatro/rep1"]["ok"]
    assert verdicts["matyas-c/cobyla/rep1"]["ok"]


def test_rescore_detects_changed_scores(small_run, tmp_path):
    import shutil

    from surropt.bench import score_results

    suite = tmp_path / "constrained"
    shutil.copytree(small_run, suite)
    table = score_results(str(suite))
    key = next(iter(table.p))
    table.p[key] = math.nextafter(table.p[key], 2.0)
    assert not checks.check_rescore(suite, table)["scores_identical"]


def test_fallback_fails_its_cell_or_every_cell_when_unattributed(small_run):
    from surropt.core import derive_seed

    seed = derive_seed(3, "cobyla", "matyas-c", 2, 0)
    verdicts = checks.check_cells(small_run, [("matyas-c", "cobyla", seed)], derive_seed)
    assert [c for c, v in verdicts.items() if not v["ok"]] == ["matyas-c/cobyla/rep0"]
    verdicts = checks.check_cells(small_run, [None], derive_seed)
    assert not any(v["ok"] for v in verdicts.values())
