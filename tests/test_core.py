import os
import platform
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surropt.core import (
    Bounds,
    BudgetExhausted,
    ConfigError,
    Dataset,
    EvaluationFailed,
    NoiseSpec,
    Problem,
    Trajectory,
    VIOLATION_THRESHOLD,
    _blas_thread_calls,
    _one_blas_thread,
    best_feasible_so_far,
    best_so_far,
    derive_seed,
    evaluate,
    feasible,
    latin_hypercube,
    substream,
    unknown_name,
)


def quad_problem(sigma=0.0, dim=2):
    return Problem(
        name="sphere",
        bounds=Bounds.cube(-5, 5, dim),
        objective=lambda x: float(np.sum(x**2)),
        noise=NoiseSpec(sigma=sigma),
    )


# ---------------------------------------------------------------- bounds


def test_bounds_basic():
    b = Bounds([0, -1], [1, 1])
    assert b.dim == 2
    assert np.allclose(b.width, [1, 2])
    assert b.contains([0.5, 0.0])
    assert not b.contains([1.5, 0.0])
    assert np.allclose(b.clip([2, -3]), [1, -1])


def test_degenerate_bounds_rejected():
    with pytest.raises(ConfigError):
        Bounds([0, 1], [1, 1])
    with pytest.raises(ConfigError):
        Bounds([2], [1])


def test_noise_spec_rejects_negative_sigma():
    with pytest.raises(ConfigError):
        NoiseSpec(sigma=-0.1)


def test_known_optimum_must_lie_within_bounds():
    with pytest.raises(ConfigError):
        Problem(
            name="bad",
            bounds=Bounds.cube(-1, 1, 2),
            objective=lambda x: 0.0,
            known_optimum=(np.array([3.0, 0.0]), 0.0),
        )


# ---------------------------------------------------------------- latin hypercube


def test_lhs_two_points_one_per_half():
    pts = latin_hypercube(Bounds.cube(0, 1, 1), 2, seed=7)
    vals = np.sort(pts.ravel())
    assert 0.0 <= vals[0] < 0.5 <= vals[1] <= 1.0


def test_lhs_quartile_strata_2d():
    b = Bounds.cube(-5, 5, 2)
    pts = latin_hypercube(b, 4, seed=3)
    for j in range(2):
        strata = np.floor((pts[:, j] + 5) / 10 * 4).astype(int)
        assert sorted(strata.tolist()) == [0, 1, 2, 3]


def test_lhs_deterministic():
    b = Bounds.cube(-5, 5, 3)
    assert np.array_equal(latin_hypercube(b, 6, 42), latin_hypercube(b, 6, 42))


def test_lhs_rejects_n_zero():
    with pytest.raises(ConfigError):
        latin_hypercube(Bounds.cube(0, 1, 1), 0, seed=1)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    dim=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_lhs_stratification_property(n, dim, seed):
    # every dimension holds exactly one sample per stratum
    b = Bounds.cube(-2, 3, dim)
    pts = latin_hypercube(b, n, seed)
    assert pts.shape == (n, dim)
    assert np.all(pts >= b.lower) and np.all(pts <= b.upper)
    unit = (pts - b.lower) / b.width
    strata = np.clip(np.floor(unit * n).astype(int), 0, n - 1)
    for j in range(dim):
        assert sorted(strata[:, j].tolist()) == list(range(n))


# ---------------------------------------------------------------- evaluate


def test_evaluate_noiseless_rosenbrock_optimum():
    p = Problem(
        name="rosen",
        bounds=Bounds.cube(-5, 5, 2),
        objective=lambda x: float(
            100 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2
        ),
    )
    traj = Trajectory(budget=1, dim=2)
    evaluate(p, [1.0, 1.0], substream(0, "noise"), traj)
    assert traj.ys[0] == 0.0


def test_evaluate_pure_when_sigma_zero():
    p = quad_problem(sigma=0.0)
    rng = substream(1, "noise")
    traj = Trajectory(budget=2, dim=2)
    evaluate(p, [0.3, -0.2], rng, traj)
    evaluate(p, [0.3, -0.2], rng, traj)
    assert traj.ys[0] == traj.ys[1]


def test_evaluate_noise_statistics():
    # sample mean within 0.01 of f(x), sample std within 15% of sigma
    p = quad_problem(sigma=0.1)
    rng = substream(123, "noise")
    x = np.array([0.5, 0.5])
    traj = Trajectory(budget=10_000, dim=2)
    for _ in range(10_000):
        evaluate(p, x, rng, traj)
    ys = traj.ys
    assert abs(ys.mean() - 0.5) < 0.01
    assert abs(ys.std() - 0.1) < 0.015


def test_evaluate_clips_out_of_bounds_proposals():
    p = quad_problem()
    traj = Trajectory(budget=1, dim=2)
    evaluate(p, [10.0, -10.0], substream(0, "noise"), traj)
    assert np.allclose(traj.xs[0], [5.0, -5.0])


def test_evaluate_budget_exhaustion_is_distinct_from_failure():
    calls = []

    def counted(x):
        calls.append(x)
        return float(np.sum(x**2))

    p = Problem(name="counted", bounds=Bounds.cube(-5, 5, 2), objective=counted)
    traj = Trajectory(budget=1, dim=2)
    rng = substream(0, "noise")
    evaluate(p, [0, 0], rng, trajectory=traj)
    with pytest.raises(BudgetExhausted):
        evaluate(p, [1, 1], rng, trajectory=traj)
    # a full record refuses before the objective runs; append alone would not
    assert len(calls) == 1 and len(traj) == 1

    bad = Problem(
        name="nan",
        bounds=Bounds.cube(-1, 1, 1),
        objective=lambda x: float("nan"),
    )
    bad_traj = Trajectory(budget=1, dim=1)
    with pytest.raises(EvaluationFailed):
        evaluate(bad, [0.0], rng, bad_traj)
    assert len(bad_traj) == 0


@pytest.mark.parametrize("bad_g", [float("nan"), float("inf"), -float("inf")])
def test_evaluate_rejects_non_finite_constraints(bad_g):
    p = Problem(
        name="bad-con",
        bounds=Bounds.cube(-1, 1, 2),
        objective=lambda x: float(x[0]),
        constraints=lambda x: np.array([x[0], bad_g]),
        n_constraints=2,
    )
    traj = Trajectory(budget=2, dim=2, n_constraints=2)
    with pytest.raises(EvaluationFailed, match="constraint"):
        evaluate(p, [0.0, 0.0], substream(0, "noise"), trajectory=traj)
    assert len(traj) == 0


def test_evaluate_constraints_are_noiseless():
    p = Problem(
        name="noisy-con",
        bounds=Bounds.cube(-1, 1, 2),
        objective=lambda x: float(x[0]),
        constraints=lambda x: np.array([x[0] + 0.3 * x[1], x[1] ** 2 - 0.1]),
        n_constraints=2,
        noise=NoiseSpec(sigma=0.5),
    )
    rng = substream(3, "noise")
    traj = Trajectory(budget=5, dim=2, n_constraints=2)
    for x in latin_hypercube(p.bounds, 5, seed=3):
        evaluate(p, x, rng, traj)
    for x, y, g in zip(traj.xs, traj.ys, traj.gs):
        assert y != p.objective(x)
        assert np.array_equal(g, p.constraints(x))


def test_constraints_without_count_rejected():
    # with n_constraints=0 the callable would never be called
    with pytest.raises(ConfigError, match="n_constraints"):
        Problem(
            name="dropped",
            bounds=Bounds.cube(-1, 1, 2),
            objective=lambda x: float(x[0]),
            constraints=lambda x: np.array([0.4]),
        )


def test_unconstrained_dataset_has_empty_constraint_columns():
    traj = Trajectory(budget=2, dim=2)
    rng = substream(0, "noise")
    for pt in ([0.1, 0.2], [-0.3, 0.0]):
        evaluate(quad_problem(), pt, rng, trajectory=traj)
    assert Dataset.from_trajectory(traj).G.shape == (2, 0)
    assert Dataset(traj.xs, traj.ys).G.shape == (2, 0)


def test_trajectory_rows_views_and_dataset():
    p = Problem(
        name="lin-con",
        bounds=Bounds.cube(-1, 1, 2),
        objective=lambda x: float(x[0]),
        constraints=lambda x: np.array([x[0] + x[1]]),
        n_constraints=1,
    )
    traj = Trajectory(budget=3, dim=2, n_constraints=1)
    assert traj.xs.shape == (0, 2) and traj.ys.shape == (0,) and traj.gs.shape == (0, 1)
    rng = substream(5, "noise")
    for n, pt in enumerate(([0.1, 0.2], [-0.3, 0.0], [0.5, -0.5]), start=1):
        evaluate(p, pt, rng, trajectory=traj)
        assert len(traj) == n
        assert traj.xs.shape == (n, 2) and traj.ys.shape == (n,) and traj.gs.shape == (n, 1)
    ds = Dataset.from_trajectory(traj)
    assert ds.X.shape == (3, 2)
    assert ds.G.shape == (3, 1)
    assert np.allclose(ds.G[:, 0], ds.X.sum(axis=1))
    # the dataset shares the record's memory, and neither can be written through
    for view, rows in ((ds.X, traj.xs), (ds.y, traj.ys), (ds.G, traj.gs)):
        assert np.shares_memory(view, rows)
        for read_only in (view, rows):
            with pytest.raises(ValueError, match="read-only"):
                read_only[0] = 0.0
    with pytest.raises(BudgetExhausted):
        traj.append(np.zeros(2), 0.0, np.zeros(1))
    assert len(traj) == 3


# ---------------------------------------------------------------- best_so_far


def test_best_so_far_examples():
    assert best_so_far([3, 5, 2, 4]).tolist() == [3, 3, 2, 2]
    assert best_so_far([1, 1, 1]).tolist() == [1, 1, 1]
    assert best_so_far([5, 4, 3, 2, 1]).tolist() == [5, 4, 3, 2, 1]


def test_best_so_far_rejects_empty():
    with pytest.raises(ConfigError):
        best_so_far([])


@settings(max_examples=50, deadline=None)
@given(
    ys=st.lists(
        st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
        min_size=1,
        max_size=60,
    )
)
def test_best_so_far_idempotent_and_monotone(ys):
    out = best_so_far(ys)
    assert np.array_equal(best_so_far(out), out)
    assert np.all(np.diff(out) <= 0)
    assert out.size == len(ys)


def test_best_feasible_so_far_skips_infeasible_rows():
    y = [5.0, -9.0, 4.0, 6.0, 1.0]
    G = np.array([[1.0], [2.0], [0.0], [-1.0], [VIOLATION_THRESHOLD]])
    out = best_feasible_so_far(y, G)
    assert np.array_equal(out, [np.nan, np.nan, 4.0, 4.0, 1.0], equal_nan=True)
    # no constraint columns: every row is feasible, as best_so_far
    assert np.array_equal(best_feasible_so_far(y, np.empty((5, 0))), best_so_far(y))


@settings(max_examples=50, deadline=None)
@given(
    rows=st.lists(st.tuples(st.floats(-1e9, 1e9), st.floats(-1.0, 1.0)), min_size=1, max_size=40)
)
def test_best_feasible_so_far_is_the_least_feasible_y_of_each_prefix(rows):
    y, g = map(np.array, zip(*rows))
    out = best_feasible_so_far(y, g[:, None])
    for k in range(len(y)):
        ok = feasible(g[:k + 1, None])
        expected = np.min(y[:k + 1][ok]) if ok.any() else np.nan
        assert np.array_equal(out[k], expected, equal_nan=True)


# ---------------------------------------------------------------- feasibility and names

ABOVE = np.nextafter(VIOLATION_THRESHOLD, 1.0)
BELOW = np.nextafter(VIOLATION_THRESHOLD, -1.0)


@settings(max_examples=150, deadline=None)
@given(
    shape=st.tuples(st.integers(0, 6), st.integers(0, 3)),
    values=st.lists(
        st.one_of(
            st.sampled_from([VIOLATION_THRESHOLD, ABOVE, BELOW, 0.0, -0.0, 1e300, -1e300]),
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        ),
        min_size=18,
        max_size=18,
    ),
    threshold=st.sampled_from([VIOLATION_THRESHOLD, 0.0, -0.5, 2.0]),
)
def test_feasible_matches_the_expressions_it_replaced(shape, values, threshold):
    n, n_g = shape
    G = np.array(values[: n * n_g]).reshape(n, n_g)
    ok = feasible(G, threshold)
    assert ok.dtype == bool and ok.shape == (n,)
    # count_violations: a row violates when its worst g exceeds the threshold
    violating = np.max(G, axis=1) > threshold if G.size else np.zeros(n, bool)
    assert np.array_equal(ok, ~violating)
    # compare's best feasible value: every row feasible without constraint columns
    old = np.max(G, axis=1) <= threshold if G.shape[1] else np.ones(n, bool)
    assert np.array_equal(ok, old)
    # the trust-region update: one sample's g, empty when unconstrained
    for i, g in enumerate(G):
        assert feasible(g, threshold) == (g.size == 0 or float(np.max(g)) <= threshold)
        assert feasible(g, threshold) == ok[i]
    # the incumbent's default threshold
    if G.size:
        assert np.array_equal(feasible(G), np.max(G, axis=1) <= VIOLATION_THRESHOLD)


def test_feasible_at_the_threshold_and_without_constraints():
    assert feasible(np.array([[VIOLATION_THRESHOLD], [ABOVE], [BELOW]])).tolist() == [
        True, False, True]
    assert feasible(np.array([[-1.0, VIOLATION_THRESHOLD], [ABOVE, -1.0]])).tolist() == [
        True, False]
    assert feasible(np.empty((3, 0))).tolist() == [True, True, True]
    assert feasible(np.empty((0, 2))).shape == (0,)
    assert bool(feasible(np.empty(0))) and not feasible(np.array([ABOVE]))


def test_unknown_name_hints_the_closest_only_when_one_is_close():
    assert str(unknown_name("suite", "constraind", ["unconstrained", "constrained"])) == (
        "unknown suite 'constraind'; did you mean 'constrained'? "
        "(valid: unconstrained, constrained)")
    assert str(unknown_name("suite", "zzz", ["a", "b"])) == "unknown suite 'zzz' (valid: a, b)"
    assert str(unknown_name("config key", 7, ["seed"])) == "unknown config key '7' (valid: seed)"
    assert isinstance(unknown_name("suite", "x", []), ConfigError)


# ---------------------------------------------------------------- rng streams


def test_substreams_are_independent_and_reproducible():
    a1 = substream(9, "noise").standard_normal(4)
    a2 = substream(9, "noise").standard_normal(4)
    b = substream(9, "sampler").standard_normal(4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert derive_seed(9, "noise") != derive_seed(10, "noise")


# ---------------------------------------------------------------- one BLAS thread


@pytest.fixture
def blas_at_two():
    """numpy's BLAS (get, set) with the count set to 2, restored afterwards."""
    calls = _blas_thread_calls()
    if calls is None:
        pytest.skip("numpy's BLAS exports no known thread-count functions")
    set_threads, get_threads = calls
    before = get_threads()
    set_threads(2)
    try:
        yield get_threads
    finally:
        set_threads(before)


def test_import_looks_up_no_blas_symbol():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import surropt.cli\n"
            "from surropt.core import _blas_thread_calls\n"
            "print(_blas_thread_calls.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "0"


def test_run_optimizer_restores_the_callers_blas_threads(blas_at_two, monkeypatch):
    from surropt import optimizers

    problem = quad_problem()
    assert len(optimizers.run_optimizer("cobyla", problem, 10, 0)) == 10
    assert blas_at_two() == 2

    seen = []

    def broken(*args):
        seen.append(blas_at_two())
        raise KeyError("not a numerical failure")
        yield

    monkeypatch.setattr(optimizers, "_steps", broken)
    with pytest.raises(KeyError):
        optimizers.run_optimizer("cobyla", problem, 10, 0)
    assert seen == [1] and blas_at_two() == 2


def test_overlapping_pins_restore_the_callers_blas_threads(blas_at_two):
    # the count is one per process: a pin that closed while another was open
    # would leave the other unpinned, or leave 1 behind when the other closed
    inside = []

    def pin_often():
        for _ in range(200):
            with _one_blas_thread():
                inside.append(blas_at_two())

    with _one_blas_thread():
        with _one_blas_thread():
            assert blas_at_two() == 1
        assert blas_at_two() == 1
    assert blas_at_two() == 2
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=pin_often) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert inside == [1] * 1600 and blas_at_two() == 2


# ---------------------------------------------------------------- kept heap

# Each cycle frees three 2 MB arrays at once, like an optimizer step's
# temporaries. glibc's default thresholds hand them back to the kernel and
# fault them in again next cycle; the kept heap reuses them.
HEAP_PROBE = """
import resource, sys
import numpy as np

def faults(cycles=50, n=(2 << 20) // 8):
    (np.ones(n) + np.ones(n) * 2.0).sum()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(cycles):
        (np.ones(n) + np.ones(n) * 2.0).sum()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

if __name__ == "__main__":
    from surropt.bench import _cell_pool
    from surropt.cli import main

    if sys.argv[1] == "cli":
        main(["list"])
    if sys.argv[1] == "pool":
        with _cell_pool(2) as pool:
            print(pool.submit(faults).result())
    else:
        print(faults())
"""

glibc_only = pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
    reason="the kept heap sets glibc's malloc thresholds",
)


def heap_probe_faults(tmp_path, mode):
    """Minor page faults of 50 allocate-and-free cycles, in a fresh interpreter."""
    script = tmp_path / "heap_probe.py"
    script.write_text(HEAP_PROBE)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, str(script), mode], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return int(out.stdout.split()[-1])


@glibc_only
def test_import_leaves_the_default_heap_faulting(tmp_path):
    # importing surropt changes nothing of its host's allocator
    thp = Path("/sys/kernel/mm/transparent_hugepage/enabled")
    if thp.is_file() and "[always]" in thp.read_text():
        pytest.skip("huge pages back the heap, so it faults little either way")
    assert heap_probe_faults(tmp_path, "import") > 100 * 50


@glibc_only
@pytest.mark.parametrize("mode", ["cli", "pool"])
def test_kept_heap_reuses_freed_arrays(tmp_path, mode):
    # cli: the command line keeps the heap of its own process;
    # pool: run_benchmark's workers keep theirs
    assert heap_probe_faults(tmp_path, mode) < 50

