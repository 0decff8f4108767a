"""Tests for benchmark scoring, orchestration, and persistence."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surropt import (
    BenchmarkConfig,
    ConfigError,
    count_violations,
    run_benchmark,
    score_p,
    score_r,
    score_results,
)
from surropt.bench import (
    ALPHA,
    DEFAULT_BUDGETS,
    DEFAULT_WARMUP,
    _score_table,
    _test_pairs,
    holm,
    signed_rank_p,
)
from surropt.core import Trajectory
from surropt.surrogates import SurrogateFitError


# ---------------------------------------------------------------- score math


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf in a band
@settings(max_examples=300, deadline=None)
@given(
    reps=st.integers(1, 12),
    n=st.integers(1, 6),
    digits=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_convergence_band_matches_percentile_per_column(reps, n, digits, seed):
    # rounded curves tie often, 0.0 with -0.0 too; each row of convergence.csv
    # must hold the bits of np.percentile on its column alone
    rng = np.random.default_rng(seed)
    ys = np.round(rng.standard_normal((reps, n)) * 10.0 ** rng.uniform(-3, 3), digits)
    ys[rng.uniform(size=ys.shape) < 0.05] = np.inf
    config = BenchmarkConfig(algorithms=["bo"], problems=["p"], repetitions=reps)
    runs = {("p", "bo", rep): (ys[rep], np.zeros((n, 0))) for rep in range(reps)}
    table = _score_table(config, [("p", 2, n, 0)], runs, {})
    c = np.minimum.accumulate(ys, axis=1)
    expected = [("p", "bo", k + 1, float(c[:, k].mean()), float(np.percentile(c[:, k], 10)),
                 float(np.percentile(c[:, k], 90))) for k in range(n)]
    assert [tuple(map(repr, row)) for row in table.convergence] == \
        [tuple(map(repr, row)) for row in expected]


def test_scores_rederive_from_the_convergence_means():
    # r and p come from the mean column convergence.csv writes; the mean over
    # axis 0 of the reps-by-iterations array rounds differently from 8 reps on
    rng = np.random.default_rng(34)
    algos, reps, n = ["a", "b", "c"], 10, 12
    config = BenchmarkConfig(algorithms=algos, problems=["p"], repetitions=reps)
    runs = {("p", algo, rep): (1.0 + 1e-3 * rng.standard_normal(n), np.zeros((n, 0)))
            for algo in algos for rep in range(reps)}
    table = _score_table(config, [("p", 2, n, 0)], runs, {})
    means = {algo: [row[3] for row in table.convergence if row[1] == algo] for algo in algos}
    stacked = np.array([means[algo] for algo in algos])
    worst, best = stacked.max(axis=0), stacked.min(axis=0)
    for algo in algos:
        r = [score_r(worst[k], best[k], means[algo][k]) for k in range(n)]
        assert table.r["p", algo].tobytes() == np.array(r).tobytes()
        assert repr(table.p["p", algo]) == repr(score_p(r))


def test_score_r_worked_example():
    assert score_r(10.0, 2.0, 4.0) == 0.75


def test_score_r_endpoints():
    assert score_r(10.0, 2.0, 2.0) == 1.0
    assert score_r(10.0, 2.0, 10.0) == 0.0


def test_score_r_tie_scores_one():
    assert score_r(3.0, 3.0, 3.0) == 1.0


# ranges keep scale * spread well above the rounding noise of the shift,
# so the exact-arithmetic invariance is visible in floats
@given(
    best=st.floats(-1e4, 1e4),
    spread=st.floats(1.0, 1e6),
    frac=st.floats(0.0, 1.0),
    scale=st.floats(1e-2, 1e2),
    shift=st.floats(-1e4, 1e4),
)
@settings(max_examples=200)
def test_score_r_affine_invariance(best, spread, frac, scale, shift):
    worst = best + spread
    mean = best + frac * spread
    base = score_r(worst, best, mean)
    mapped = score_r(scale * worst + shift, scale * best + shift, scale * mean + shift)
    assert math.isclose(base, mapped, rel_tol=1e-6, abs_tol=1e-6)


def test_score_p_is_mean():
    assert score_p([1.0, 0.5, 0.0]) == 0.5
    assert score_p([0.25]) == 0.25


def test_score_p_empty_rejected():
    with pytest.raises(ConfigError):
        score_p([])


def test_count_violations_worked_example():
    feas, viol = count_violations(np.array([[0.0005], [0.002], [-1.0]]))
    assert feas == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert viol == 0.002


def test_count_violations_threshold_is_strict():
    feas, viol = count_violations(np.array([[0.001]]))
    assert (feas, viol) == (1.0, 0.0)


def test_count_violations_row_max_governs():
    # one row violating through its second constraint only
    feas, viol = count_violations(np.array([[-1.0, 0.01], [-1.0, -1.0]]))
    assert feas == 0.5
    assert viol == 0.01


def test_count_violations_unconstrained():
    assert count_violations(np.empty((4, 0))) == (1.0, 0.0)


def test_count_violations_empty_trajectory():
    traj = Trajectory(budget=3, dim=1)
    assert traj.gs.shape == (0, 0)
    assert count_violations(traj.gs) == (1.0, 0.0)


def test_count_violations_of_trajectory_gs():
    traj = Trajectory(budget=3, dim=1, n_constraints=1)
    for g in [0.5, -0.2, 0.003]:
        traj.append(np.array([0.0]), 1.0, np.array([g]))
    feas, viol = count_violations(traj.gs)
    assert feas == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert viol == pytest.approx((0.5 + 0.003) / 2.0, abs=1e-15)


# ---------------------------------------------------------------- config


def test_default_protocol_tables():
    assert DEFAULT_BUDGETS == {2: 20, 5: 50, 7: 80, 10: 100}
    assert DEFAULT_WARMUP == {2: 5, 5: 10, 7: 13, 10: 15}


def test_config_validation():
    with pytest.raises(ConfigError):
        BenchmarkConfig(algorithms=[], problems=["quadratic"])
    with pytest.raises(ConfigError):
        BenchmarkConfig(algorithms=["lsqm"], problems=[])
    with pytest.raises(ConfigError):
        BenchmarkConfig(algorithms=["lsqm"], problems=["quadratic"], repetitions=0)
    with pytest.raises(ConfigError):
        BenchmarkConfig(
            algorithms=["lsqm"],
            problems=["quadratic"],
            budgets={2: 5},
            warmup={2: 5},
        )


def test_unknown_dimension_rejected():
    config = BenchmarkConfig(algorithms=["lsqm"], problems=["quadratic"], dims=[3])
    with pytest.raises(ConfigError, match="dimension 3"):
        run_benchmark(config)


def test_missing_warmup_named_alone():
    config = BenchmarkConfig(
        algorithms=["cobyla"], problems=["rosenbrock"], dims=[3],
        budgets={2: 20, 3: 8}, warmup={2: 5},
    )
    with pytest.raises(ConfigError) as err:
        run_benchmark(config)
    message = str(err.value)
    assert "no warm-up for dimension 3" in message
    assert "budget" not in message.split(";")[0]
    assert message.endswith("dimensions with both: [2]")


# ---------------------------------------------------------------- runs

MINI = dict(
    algorithms=["lsqm", "dycors"],
    problems=["quadratic"],
    dims=[2],
    repetitions=2,
    budgets={2: 10},
    warmup={2: 3},
    seed=7,
    suite="mini",
)


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    table = run_benchmark(BenchmarkConfig(**MINI), out_dir=out)
    return out, table


@pytest.fixture(scope="module")
def constrained_run():
    config = BenchmarkConfig(
        algorithms=["cuatro"],
        problems=["matyas-c"],
        repetitions=2,
        budgets={2: 10},
        warmup={2: 3},
        seed=3,
        suite="conmini",
    )
    return run_benchmark(config)


def test_base_function_expands_over_dims(mini_run):
    _, table = mini_run
    assert table.problems == ["quadratic-d2"]
    assert table.n_effective["quadratic-d2"] == 7


def test_two_algorithms_hit_both_endpoints(mini_run):
    _, table = mini_run
    r_a = table.r[("quadratic-d2", "lsqm")]
    r_b = table.r[("quadratic-d2", "dycors")]
    for k in range(len(r_a)):
        pair = sorted([r_a[k], r_b[k]])
        # non-tied iterations score exactly (0, 1); ties score (1, 1)
        assert pair in ([0.0, 1.0], [1.0, 1.0])


def test_p_matches_mean_of_r(mini_run):
    _, table = mini_run
    for key in table.p:
        assert table.p[key] == float(np.mean(table.r[key]))
        assert 0.0 <= table.p[key] <= 1.0


def test_rerun_is_bit_identical(mini_run):
    _, table = mini_run
    again = run_benchmark(BenchmarkConfig(**MINI))
    for key in table.r:
        assert np.array_equal(table.r[key], again.r[key])
        assert table.p[key] == again.p[key]
        assert table.feasibility[key] == again.feasibility[key]
        assert table.mean_violation[key] == again.mean_violation[key]


def test_parallel_run_matches_serial(mini_run, tmp_path):
    out, table = mini_run
    par = run_benchmark(BenchmarkConfig(**MINI), out_dir=tmp_path, jobs=2)
    for key in table.r:
        assert np.array_equal(table.r[key], par.r[key])
        assert table.p[key] == par.p[key]
    # every file written at jobs=2 is byte-identical to the jobs=1 run, but the
    # manifest, which differs only by its timestamp and its provenance
    serial = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
    parallel = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
    assert serial == parallel and len(serial) == 8
    for rel in serial:
        if rel.name != "manifest.json":
            assert (out / rel).read_bytes() == (tmp_path / rel).read_bytes(), rel
    manifests = [json.loads((root / "mini" / "manifest.json").read_text())
                 for root in (out, tmp_path)]
    provenance = [m.pop("provenance") for m in manifests]
    for m in manifests:
        del m["timestamp"]
    assert manifests[0] == manifests[1]
    assert [p["jobs"] for p in provenance] == [1, 2]
    assert [p["blas_threads"] for p in provenance] == [1, 1]


def test_library_run_writes_the_manifest_compare_reads(mini_run, tmp_path):
    from surropt.bench import compare_markdown, compare_results

    out, _ = mini_run
    run_benchmark(BenchmarkConfig(**MINI), out_dir=tmp_path)
    manifest = json.loads((out / "mini" / "manifest.json").read_text())
    cells = json.loads((out / "mini" / "cells.json").read_text())
    assert set(manifest["cells"]) == set(cells) and len(cells) == 4
    assert compare_results(out, tmp_path)["differing_cells"] == 0
    # provenance that differs is shown above the table and refuses nothing
    path = tmp_path / "mini" / "manifest.json"
    other = json.loads(path.read_text())
    other["provenance"]["jobs"] = 2
    path.write_text(json.dumps(other))
    report = compare_results(out, tmp_path)
    assert report["differing_cells"] == 0 and report["provenance"] == {"jobs": (1, 2)}
    text = compare_markdown(report)
    assert text.index("provenance jobs differs: A 1, B 2") < text.index("| problem |")


# Some fits round by the BLAS thread count (the d = 32 quadratic fit from
# n = 455 on); pool workers hold one thread whatever the caller's setting, so
# a budget-150 cstr-pid cell writes one CSV.
POOL_RUN = """
import sys
from surropt.bench import BenchmarkConfig, run_benchmark

config = BenchmarkConfig(algorithms=["cuatro"], problems=["cstr-pid"], repetitions=1,
                         budgets={32: 150}, warmup={32: 15}, seed=42, suite="casestudies")
run_benchmark(config, out_dir=sys.argv[1], jobs=2)
"""


def test_pool_run_same_under_one_and_two_blas_threads(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    children = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        children.append(subprocess.Popen(
            [sys.executable, "-c", POOL_RUN, str(tmp_path / threads)], env=env))
    try:
        assert [child.wait(timeout=300) for child in children] == [0, 0]
    finally:
        for child in children:
            child.kill()
    rel = Path("casestudies", "cstr-pid", "cuatro", "rep0.csv")
    one, two = ((tmp_path / t / rel).read_bytes() for t in ("1", "2"))
    assert one.count(b"\n") == 151 and one == two



# The same cell on the calling thread, through the library and the command
# line: run_optimizer pins one BLAS thread itself, so these write one CSV too.
# Each way: its argv, the path under a child's directory it is given, and the
# CSV it writes there.
SERIAL_RUNS = {
    "run_benchmark": (["-c", POOL_RUN.replace("jobs=2", "jobs=1")], ".",
                      Path("casestudies", "cstr-pid", "cuatro", "rep0.csv")),
    "optimize": (["-m", "surropt.cli", "optimize", "--algo", "cuatro", "--problem", "cstr-pid",
                  "--budget", "150", "--seed", "42", "--out"], "cuatro.csv", "cuatro.csv"),
}


@pytest.mark.parametrize("way", sorted(SERIAL_RUNS))
def test_serial_run_same_under_one_and_two_blas_threads(tmp_path, way):
    argv, arg, rel = SERIAL_RUNS[way]
    src = str(Path(__file__).resolve().parent.parent / "src")
    children = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        (tmp_path / threads).mkdir()
        children.append(subprocess.Popen([sys.executable, *argv, str(tmp_path / threads / arg)],
                                         env=env, stdout=subprocess.DEVNULL))
    try:
        assert [child.wait(timeout=300) for child in children] == [0, 0]
    finally:
        for child in children:
            child.kill()
    one, two = ((tmp_path / t / rel).read_bytes() for t in ("1", "2"))
    assert one.count(b"\n") == 151 and one == two


def test_unpinned_run_completes_and_says_so(monkeypatch, tmp_path):
    # a BLAS that exports no known thread-count function: the cells run as
    # they are, and the manifest says so
    from surropt import core

    monkeypatch.setattr(core, "_BLAS_THREAD_SYMBOLS", ())
    core._blas_thread_calls.cache_clear()
    try:
        assert core._blas_thread_calls() is None
        table = run_benchmark(BenchmarkConfig(**MINI), out_dir=tmp_path)
    finally:
        core._blas_thread_calls.cache_clear()
    manifest = json.loads((tmp_path / "mini" / "manifest.json").read_text())
    assert manifest["provenance"]["blas_threads"] == "unpinned"
    assert set(table.cell_status.values()) == {"ok"} and len(table.cell_status) == 4

def test_independent_scoring_oracle(mini_run):
    # recompute r and p from the persisted CSVs with plain python
    out, table = mini_run
    n_c = 3
    mean_curves = {}
    for algo in ("lsqm", "dycors"):
        curves = []
        for rep in range(2):
            path = out / "mini" / "quadratic-d2" / algo / f"rep{rep}.csv"
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            curves.append([float(r["best_so_far"]) for r in rows][n_c:])
        mean_curves[algo] = [
            sum(c[k] for c in curves) / len(curves) for k in range(len(curves[0]))
        ]
    n = len(mean_curves["lsqm"])
    for algo in ("lsqm", "dycors"):
        r_expected = []
        for k in range(n):
            vals = [mean_curves[a][k] for a in ("lsqm", "dycors")]
            worst, best = max(vals), min(vals)
            if worst == best:
                r_expected.append(1.0)
            else:
                r_expected.append((worst - mean_curves[algo][k]) / (worst - best))
        got = table.r[("quadratic-d2", algo)]
        assert np.allclose(got, r_expected, atol=1e-12, rtol=0.0)
        assert abs(table.p[("quadratic-d2", algo)] - sum(r_expected) / n) <= 1e-12


def test_rep_csv_layout_and_running_min(mini_run):
    out, _ = mini_run
    path = out / "mini" / "quadratic-d2" / "lsqm" / "rep0.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "x0", "x1", "y", "best_so_far"]
    assert [r[0] for r in rows[1:]] == [str(i) for i in range(1, 11)]
    ys = [float(r[3]) for r in rows[1:]]
    bsf = [float(r[4]) for r in rows[1:]]
    running = np.minimum.accumulate(ys)
    # 17 significant digits round-trip bit-exactly, warm-up is never reset
    assert np.array_equal(np.array(bsf), running)


def test_convergence_csv(mini_run):
    out, table = mini_run
    path = out / "mini" / "convergence.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["problem", "algorithm", "iteration", "mean", "p10", "p90"]
    assert len(rows) - 1 == 2 * 7
    by_algo = {}
    for prob, algo, it, mean, p10, p90 in rows[1:]:
        assert prob == "quadratic-d2"
        m, lo, hi = float(mean), float(p10), float(p90)
        assert lo <= m <= hi
        by_algo.setdefault(algo, []).append(m)
    for algo, means in by_algo.items():
        assert all(a >= b for a, b in zip(means, means[1:]))


def test_convergence_means_non_increasing(mini_run):
    _, table = mini_run
    series = {}
    for key, algo, k, mean, p10, p90 in table.convergence:
        series.setdefault((key, algo), []).append((k, mean))
    for rows in series.values():
        means = [m for _, m in sorted(rows)]
        assert all(a >= b for a, b in zip(means, means[1:]))


def test_cells_json_statuses(mini_run):
    out, table = mini_run
    with open(out / "mini" / "cells.json") as fh:
        status = json.load(fh)
    assert len(status) == 4
    assert all(v == "ok" for v in status.values())
    assert status == table.cell_status


def test_scores_json_contents(mini_run):
    out, table = mini_run
    with open(out / "mini" / "scores.json") as fh:
        payload = json.load(fh)
    assert payload["suite"] == "mini"
    assert payload["config"]["budgets"] == {"2": 10}
    assert payload["cells"]["quadratic-d2"] == {"dim": 2, "n_e": 10, "n_c": 3}
    stored = payload["scores"]["quadratic-d2"]["lsqm"]
    assert stored["p"] == table.p[("quadratic-d2", "lsqm")]
    assert stored["r"] == list(table.r[("quadratic-d2", "lsqm")])


def test_rescoring_is_bit_identical(mini_run):
    out, table = mini_run
    rescored = score_results(out, suite="mini")
    assert rescored.problems == table.problems
    for key in table.r:
        assert np.array_equal(rescored.r[key], table.r[key])
        assert rescored.p[key] == table.p[key]
        assert rescored.feasibility[key] == table.feasibility[key]
        assert rescored.mean_violation[key] == table.mean_violation[key]
    assert rescored.n_effective == table.n_effective


def test_rescoring_keeps_run_order(tmp_path):
    problems = ["rosenbrock-c", "quadratic-c", "matyas-c"]
    config = BenchmarkConfig(
        algorithms=["cobyla"], problems=problems, repetitions=1,
        budgets={2: 8}, warmup={2: 3}, suite="order",
    )
    table = run_benchmark(config, out_dir=tmp_path)
    rescored = score_results(tmp_path, suite="order")
    assert table.problems == problems
    assert rescored.problems == table.problems
    assert rescored.convergence == table.convergence


def test_score_results_accepts_suite_dir(mini_run):
    out, table = mini_run
    rescored = score_results(out / "mini")
    assert rescored.p == table.p


def test_score_results_missing_dir(tmp_path):
    with pytest.raises(ConfigError, match="scores.json"):
        score_results(tmp_path)


def test_single_algorithm_scores_one(constrained_run):
    table = constrained_run
    r = table.r[("matyas-c", "cuatro")]
    assert np.all(r == 1.0)
    assert table.p[("matyas-c", "cuatro")] == 1.0


def test_constrained_feasibility_metrics(constrained_run):
    table = constrained_run
    feas = table.feasibility[("matyas-c", "cuatro")]
    viol = table.mean_violation[("matyas-c", "cuatro")]
    assert 0.0 <= feas <= 1.0
    assert viol >= 0.0
    if feas < 1.0:
        assert viol > 1e-3


def _fail_cobyla(monkeypatch):
    """Make every cobyla cell raise; jobs=1 runs the cells where the patch reaches."""
    import surropt.bench as bench

    real = bench.run_optimizer

    def cobyla_fails(algo, problem, budget, seed):
        if algo == "cobyla":
            raise RuntimeError("synthetic failure")
        return real(algo, problem, budget, seed)

    monkeypatch.setattr(bench, "run_optimizer", cobyla_fails)


def test_failed_cells_are_skipped(tmp_path, monkeypatch):
    # cobyla's cells fail while lsqm scores
    _fail_cobyla(monkeypatch)
    config = BenchmarkConfig(
        algorithms=["lsqm", "cobyla"],
        problems=["quadratic"],
        dims=[2],
        repetitions=1,
        budgets={2: 8},
        warmup={2: 2},
        seed=1,
        suite="fail",
    )
    table = run_benchmark(config, out_dir=tmp_path)
    assert table.cell_status["quadratic-d2/lsqm/rep0"] == "ok"
    assert table.cell_status["quadratic-d2/cobyla/rep0"].startswith("failed")
    assert ("quadratic-d2", "cobyla") not in table.p
    # sole surviving algorithm scores 1 by the tie convention
    assert table.p[("quadratic-d2", "lsqm")] == 1.0
    with open(tmp_path / "fail" / "scores.json") as fh:
        payload = json.load(fh)
    assert list(payload["scores"]["quadratic-d2"]) == ["lsqm"]
    assert score_results(tmp_path, suite="fail").cell_status == table.cell_status


def test_failed_cell_status_names_the_exception_type(monkeypatch):
    # "failed: <Type>: <message>", the form a fallback@k status has
    _fail_cobyla(monkeypatch)
    config = BenchmarkConfig(
        algorithms=["lsqm", "cobyla"], problems=["quadratic"], dims=[2], repetitions=1,
        budgets={2: 8}, warmup={2: 2}, seed=1, suite="fail",
    )
    status = run_benchmark(config).cell_status
    assert status["quadratic-d2/cobyla/rep0"] == "failed: RuntimeError: synthetic failure"


def test_cbo_on_an_unconstrained_problem_refused_before_any_cell(tmp_path, monkeypatch):
    import surropt.bench as bench

    ran = []
    monkeypatch.setattr(bench, "run_optimizer", lambda *args: ran.append(args))
    config = BenchmarkConfig(
        algorithms=["lsqm", "cbo"], problems=["matyas-c", "quadratic"], dims=[2],
        repetitions=1, budgets={2: 8}, warmup={2: 2}, seed=1, suite="refused",
    )
    with pytest.raises(ConfigError, match="problem 'quadratic-d2': cbo requires a constrained"):
        run_benchmark(config, out_dir=tmp_path)
    assert ran == []
    assert not (tmp_path / "refused").exists()


def test_library_run_refuses_an_unknown_algorithm_before_writing(tmp_path):
    # as `surropt run` does: no manifest planning the misspelt cells, no failed: status
    config = BenchmarkConfig(["cobyla", "cobylla"], ["quadratic"], dims=[2], repetitions=2)
    with pytest.raises(ConfigError, match="unknown algorithm 'cobylla'; did you mean 'cobyla'"):
        run_benchmark(config, out_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_rescoring_builds_no_problem(mini_run, monkeypatch):
    import surropt.bench as bench

    out, table = mini_run

    def no_problems(key):
        raise AssertionError(f"re-scoring built problem {key!r}")

    monkeypatch.setattr(bench, "get_problem", no_problems)
    assert score_results(out, suite="mini").p == table.p


def test_fallback_cell_is_not_ok(tmp_path, monkeypatch):
    import surropt.optimizers as opt

    def boom(*args, **kwargs):
        raise SurrogateFitError("synthetic failure")

    monkeypatch.setattr(opt, "fit_quadratic", boom)
    config = BenchmarkConfig(
        algorithms=["lsqm"], problems=["quadratic"], dims=[2], repetitions=1,
        budgets={2: 12}, warmup={2: 3}, seed=5, suite="fb",
    )
    table = run_benchmark(config, out_dir=tmp_path)  # jobs=1: the patch reaches the cell
    status = table.cell_status["quadratic-d2/lsqm/rep0"]
    assert status.startswith("fallback@4: SurrogateFitError")
    assert "synthetic failure" in status
    with open(tmp_path / "fb" / "cells.json") as fh:
        assert json.load(fh) == table.cell_status
    with open(tmp_path / "fb" / "quadratic-d2" / "lsqm" / "rep0.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) - 1 == 12
    assert score_results(tmp_path, suite="fb").cell_status == table.cell_status


@pytest.mark.parametrize("failing", [0, 1])
def test_cbo_falls_back_when_a_chosen_gp_does_not_factor(tmp_path, monkeypatch, failing):
    import surropt.surrogates as surrogates

    real = surrogates._chol_stack

    def model_fails(M):
        F = real(M)
        if len(F) == 2:  # the objective's and the constraint's chosen models
            F[failing] = np.nan
        return F

    monkeypatch.setattr(surrogates, "_chol_stack", model_fails)
    config = BenchmarkConfig(
        algorithms=["cbo"], problems=["matyas-c"], dims=[2], repetitions=1,
        budgets={2: 10}, warmup={2: 2}, seed=3, suite="fb",
    )
    table = run_benchmark(config, out_dir=tmp_path)  # jobs=1: the patch reaches the cell
    status = table.cell_status["matyas-c/cbo/rep0"]
    # the first proposal, after the 5-point design, falls back
    assert status.startswith("fallback@6: SurrogateFitError: kernel matrix not positive definite")
    with open(tmp_path / "fb" / "matyas-c" / "cbo" / "rep0.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) - 1 == 10


def test_serial_csvs_written_as_cells_finish(tmp_path, monkeypatch):
    import surropt.bench as bench

    root = tmp_path / "lazy"
    config = BenchmarkConfig(
        algorithms=["cobyla", "lsqm"], problems=["quadratic"], dims=[2], repetitions=2,
        budgets={2: 6}, warmup={2: 2}, suite="lazy",
    )
    started, real = [], bench.run_optimizer

    def spy(algo, problem, budget, seed):
        # every CSV of the cells before this one is on disk already
        started.append(len(list(root.rglob("*.csv"))))
        return real(algo, problem, budget, seed)

    monkeypatch.setattr(bench, "run_optimizer", spy)
    run_benchmark(config, out_dir=tmp_path, jobs=1)
    assert started == [0, 1, 2, 3]


def test_cells_json_keeps_the_finished_cells_of_a_run_cut_short(tmp_path, monkeypatch):
    import surropt.bench as bench

    config = BenchmarkConfig(
        algorithms=["cobyla"], problems=["quadratic"], dims=[2], repetitions=3,
        budgets={2: 6}, warmup={2: 2}, suite="cut",
    )
    started, real = [], bench._run_cell

    def interrupted_third(cell):
        started.append(cell.name)
        if len(started) == 3:
            raise KeyboardInterrupt
        return real(cell)

    monkeypatch.setattr(bench, "_run_cell", interrupted_third)
    with pytest.raises(KeyboardInterrupt):
        run_benchmark(config, out_dir=tmp_path, jobs=1)
    status = json.loads((tmp_path / "cut" / "cells.json").read_text())
    assert status == {"quadratic-d2/cobyla/rep0": "ok", "quadratic-d2/cobyla/rep1": "ok"}


# values a run can write that the benchmark suites rarely or never reach
_EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1, 3.0, -7.0, 1e16]


def _reference_rows(path, header, rows):
    """A CSV written field by field, each number as "%.17g" % float(v)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([v if isinstance(v, str) else "%.17g" % float(v) for v in row])


@pytest.mark.parametrize("n_g", [0, 1, 2])
@pytest.mark.parametrize("d", [1, 2, 32])
def test_rep_csv_bytes_and_bits_round_trip(tmp_path, d, n_g):
    from surropt.bench import _read_rep_csv, _write_rep_csv
    from surropt.core import best_so_far

    rng = np.random.default_rng(100 * d + n_g)
    pool = np.concatenate([_EDGE_VALUES,
                           rng.standard_normal(10) * 10.0 ** rng.integers(-300, 300, 10)])
    y = rng.permutation(_EDGE_VALUES)  # every edge value is an objective value, -0.0 and 5e-324 too
    n = y.size
    traj = Trajectory(budget=n, dim=d, n_constraints=n_g)
    for i in range(n):
        traj.append(rng.choice(pool, d), float(y[i]), rng.choice(pool, n_g))
    X, G = traj.xs, traj.gs
    path = tmp_path / "run" / "rep0.csv"
    _write_rep_csv(path, traj)
    header = ["iteration", *(f"x{i}" for i in range(d)), "y",
              *(f"g{i}" for i in range(n_g)), "best_so_far"]
    _reference_rows(tmp_path / "ref.csv", header,
                    [[str(i + 1), *X[i], y[i], *G[i], b] for i, b in enumerate(best_so_far(y))])
    assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()
    got = _read_rep_csv(path, {d: n})
    for back, written in zip(got, (X, y, G)):
        assert back.shape == written.shape and back.tobytes() == written.tobytes()


def test_rep_csv_with_a_quoted_number_is_refused(tmp_path):
    from surropt.bench import _read_rep_csv

    path = tmp_path / "rep0.csv"
    path.write_text('iteration,x0,y,best_so_far\n1,"0.5",2,2\n')
    with pytest.raises(ConfigError) as refused:
        _read_rep_csv(path, {1: 1})
    assert str(refused.value).startswith(f"rep CSV {path}: could not convert")


@pytest.mark.parametrize("rows", [[], [("p-d2", "a", 1, -0.0, 5e-324, 1e300),
                                       ("p-d2", "b", 12, 0.1, -1e300, 3.0)]])
def test_convergence_csv_bytes(tmp_path, rows):
    from surropt.bench import ScoreTable, _write_scores

    config = BenchmarkConfig(["a", "b"], ["p-d2"])
    table = ScoreTable(config.suite, [], list(config.algorithms), {}, {}, {}, {}, {},
                       convergence=rows)
    _write_scores(tmp_path, config, [], table)
    header = ["problem", "algorithm", "iteration", "mean", "p10", "p90"]
    _reference_rows(tmp_path / "ref.csv", header, [[key, algo, str(k), *vals]
                                                   for key, algo, k, *vals in rows])
    written = (tmp_path / "convergence.csv").read_bytes()
    assert written == (tmp_path / "ref.csv").read_bytes()
    if not rows:  # a run where no cell scored: the header line alone
        assert written == b"problem,algorithm,iteration,mean,p10,p90\r\n"


def test_handcrafted_three_algorithm_table(tmp_path):
    # build a results tree by hand: means [6,5,4], [8,7,6], [7,6,5]
    root = tmp_path / "hand"
    curves = {"a1": [6.0, 6.0, 5.0, 4.0], "a2": [8.0, 8.0, 7.0, 6.0], "a3": [7.0, 7.0, 6.0, 5.0]}
    for algo, bsf in curves.items():
        path = root / "toy" / algo / "rep0.csv"
        path.parent.mkdir(parents=True)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["iteration", "x0", "y", "best_so_far"])
            for i, b in enumerate(bsf):
                w.writerow([str(i + 1), "0.5", "%.17g" % b, "%.17g" % b])
    payload = {
        "suite": "hand",
        "config": {
            "algorithms": list(curves),
            "problems": ["toy"],
            "dims": [1],
            "repetitions": 1,
            "budgets": {"1": 4},
            "warmup": {"1": 1},
            "seed": 0,
            "violation_threshold": 1e-3,
        },
        "cells": {"toy": {"dim": 1, "n_e": 4, "n_c": 1}},
    }
    with open(root / "scores.json", "w") as fh:
        json.dump(payload, fh)
    table = score_results(root)
    assert np.array_equal(table.r[("toy", "a1")], [1.0, 1.0, 1.0])
    assert np.array_equal(table.r[("toy", "a2")], [0.0, 0.0, 0.0])
    assert np.array_equal(table.r[("toy", "a3")], [0.5, 0.5, 0.5])
    assert (table.p[("toy", "a1")], table.p[("toy", "a2")], table.p[("toy", "a3")]) == (
        1.0,
        0.0,
        0.5,
    )
    assert table.feasibility[("toy", "a1")] == 1.0
    assert table.mean_violation[("toy", "a1")] == 0.0


# ---------------------------------------------------------------- compare's paired test


def _enumerated_p(sample):
    """The two-sided signed-rank p by walking all 2^n sign patterns of the nonzero members."""
    x = np.asarray(sample, dtype=float)
    x = x[x != 0]
    mags = np.abs(x)
    ranks = (mags[:, None] > mags).sum(axis=1) + ((mags[:, None] == mags).sum(axis=1) + 1) / 2
    flips = (np.arange(2 ** x.size)[:, None] >> np.arange(x.size)) & 1
    centre = ranks.sum() / 2
    return float(np.mean(np.abs(flips @ ranks - centre) >= abs(ranks[x > 0].sum() - centre)))


def test_signed_rank_p_equals_scipys_exact_test_without_ties():
    from scipy import stats

    rng = np.random.default_rng(1)
    for n in range(1, 15):
        for _ in range(20):
            sample = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
            assert signed_rank_p(sample) == stats.wilcoxon(sample, method="exact").pvalue


def test_signed_rank_p_enumerates_tied_ranks_zeros_and_infinities():
    # scipy's "exact" method does not enumerate tied ranks: here it gives 0.0068359375
    assert signed_rank_p([1, 1, 1, 2, 2, -3, 4, 5, 5, 6, 7, 8]) == 11 / 2048
    assert _enumerated_p([1, 1, 1, 2, 2, -3, 4, 5, 5, 6, 7, 8]) == 11 / 2048
    rng = np.random.default_rng(2)
    for _ in range(200):
        sample = rng.choice([0.0, 1.0, -1.0, 2.0, -2.0, 3.5, -3.5, 9.0, np.inf, -np.inf],
                            size=rng.integers(0, 13))
        assert signed_rank_p(sample) == _enumerated_p(sample)


_MEMBERS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, np.inf, -np.inf]),
                     st.floats(-1e3, 1e3))


@settings(max_examples=200, deadline=None)
@given(sample=st.lists(_MEMBERS, max_size=14), zeros=st.integers(0, 4))
def test_signed_rank_p_is_odd_blind_to_zeros_and_floored_by_one_sign(sample, zeros):
    p = signed_rank_p(sample)
    assert signed_rank_p([-v for v in sample]) == p
    assert signed_rank_p(sample + [0.0] * zeros) == p
    nonzero = [v for v in sample if v != 0]
    one_sign = all(v > 0 for v in nonzero) or all(v < 0 for v in nonzero)
    assert (p == min(1.0, 2.0 ** (1 - len(nonzero)))) == one_sign


def test_holm_rejects_where_the_adjusted_p_is_at_most_alpha():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = rng.uniform(0.0, 0.03, rng.integers(1, 13)) ** rng.uniform(0.5, 2.0)
        m = p.size
        # Holm's adjusted p: running max of (m - i) p_(i) over the sorted p, capped at 1
        order = np.argsort(p, kind="stable")
        adjusted = np.empty(m)
        adjusted[order] = np.minimum(np.maximum.accumulate((m - np.arange(m)) * p[order]), 1.0)
        assert np.array_equal(holm(p), adjusted <= ALPHA)


def _pair(problem, deltas=(), b_only=0, a_only=0):
    """A report pair as compare_results counts it, before its test."""
    return {"problem": problem, "algorithm": "x", "deltas": [float(d) for d in deltas],
            "b_only_feasible": b_only, "a_only_feasible": a_only}


def test_pair_tests_reads_one_side_feasible_cells_as_unbounded_deltas():
    pairs = [
        _pair("worse", deltas=1.0 + np.arange(11), a_only=1),
        _pair("loses-feasibility", a_only=12),
        _pair("gains-feasibility", b_only=12),
        _pair("never-feasible"),  # cells where neither side is feasible enter no sample
        _pair("unchanged", deltas=np.zeros(12)),
    ]
    assert _test_pairs(pairs) == ["worse/x", "loses-feasibility/x"]
    worse, loses, gains, never, same = pairs
    assert worse["p"] == 2.0 ** -11  # the exact two-sided floor at n = 12
    assert loses["p"] == gains["p"] == 2.0 ** -11
    assert [r["rejected"] for r in pairs] == [True, True, True, False, False]
    assert [r["worse"] for r in pairs] == [True, True, False, False, False]
    assert never["p"] == same["p"] == 1.0  # zero deltas are ties: nothing to test


@pytest.mark.parametrize("draw", ["standard_normal", "standard_cauchy"])
def test_verdict_keeps_its_family_wise_level_on_null_deltas(draw):
    # 200 reports of 60 pairs at 12 reps, every delta from a symmetric null: a
    # report errs when Holm rejects any of its pairs, worse or better. At 12
    # tie-free reps only a one-sign pair can be rejected, so the exact rate is
    # 1 - (1 - 2^-11)^60 = 0.029
    rng = np.random.default_rng(40)
    errs = 0
    for _ in range(200):
        pairs = [_pair(str(i), deltas=d) for i, d in enumerate(getattr(rng, draw)((60, 12)))]
        _test_pairs(pairs)
        errs += any(pair["rejected"] for pair in pairs)
    assert errs / 200 <= ALPHA
