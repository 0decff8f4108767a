import logging
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surropt import optimizers
from surropt.core import (
    Bounds,
    ConfigError,
    Dataset,
    Problem,
    derive_seed,
    latin_hypercube,
    substream,
)
from surropt.optimizers import (
    DycorsState,
    TrustRegionState,
    _lex_best,
    _max_merit,
    _pool_minimize,
    _project,
    dycors_select_probability,
    dycors_step,
    dycors_update,
    lcb,
    propose_bo,
    propose_cbo,
    run_optimizer,
    trust_region_step,
    trust_region_update,
)
from surropt.problems import get_problem
from surropt.surrogates import QuadModel, SurrogateFitError, _distances, fit_gp, fit_linear, fit_quadratic, fit_rbf, gp_posterior, rbf_predict

# ---------------------------------------------------------------- lcb


def test_lcb_examples():
    assert lcb(1.0, 0.5, 2.0) == 0.0
    assert lcb(3.7, 0.9, 0.0) == 3.7
    assert lcb(0.0, 1.0, 1.96) == -1.96


@given(
    mu=st.floats(-1e6, 1e6),
    sigma=st.floats(0, 1e6),
    gamma=st.floats(0, 1e3),
    d_mu=st.floats(0, 1e5),
    d_sigma=st.floats(0, 1e5),
)
@settings(max_examples=60, deadline=None)
def test_lcb_monotone(mu, sigma, gamma, d_mu, d_sigma):
    base = lcb(mu, sigma, gamma)
    assert lcb(mu - d_mu, sigma, gamma) <= base
    assert lcb(mu, sigma + d_sigma, gamma) <= base


# ---------------------------------------------------------------- _project


def _project_row(x, bounds, center=None, radius=None):
    """Reference: one row at a time, as the inner search projected before batching."""
    x = bounds.clip(x)
    if center is not None:
        d = x - center
        norm = float(np.linalg.norm(d))
        if radius is not None and norm > radius:
            x = center + d * (radius / norm)
    return x


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    d=st.integers(min_value=1, max_value=32),
    m=st.integers(min_value=1, max_value=40),
)
def test_batched_project_matches_per_row_bit_for_bit(seed, d, m):
    rng = np.random.default_rng(seed)
    lower = rng.uniform(-5.0, 5.0, d)
    bounds = Bounds(lower, lower + 10.0 ** rng.uniform(-3.0, 2.0, d))
    center = rng.uniform(bounds.lower, bounds.upper)
    radius = float(10.0 ** rng.uniform(-4.0, 1.0)) * float(np.max(bounds.width))
    directions = rng.standard_normal((m, d))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    # rows inside the ball, just past it, far past it (and past the box)
    reach = radius * rng.choice([0.3, 0.999, 1.001, 3.0, 1e3], size=(m, 1))
    X = center + directions * reach
    X[0] = center  # norm 0
    if m > 1:
        X[1] = bounds.upper + bounds.width  # outside the box in every coordinate
    for args in ((center, radius), ()):
        batched = _project(X, bounds, *args)
        reference = np.array([_project_row(x, bounds, *args) for x in X])
        assert batched.tobytes() == reference.tobytes()


def _ball_candidates_reference(center, radius, bounds, n, rng):
    """The ball pool as one out-of-place expression: the cached directions
    turned by the sign-fixed Q of a normal matrix's QR, scaled by fresh radii."""
    d = center.size
    Q, R = np.linalg.qr(rng.standard_normal((d, d)))
    Q = Q * np.copysign(1.0, np.diagonal(R))
    radii = radius * rng.uniform(size=(n, 1)) ** (1.0 / d)
    X = center + radii * (optimizers._ball_directions(n, d) @ Q)
    return np.clip(X, bounds.lower, bounds.upper)


@pytest.mark.parametrize("d", [1, 2, 5, 10, 32])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ball_candidates_in_place_match_the_formula(d, seed):
    rng = np.random.default_rng(100 * d + seed)
    bounds = Bounds(-np.ones(d), np.ones(d))
    for _ in range(5):
        # some balls reach past the box, so the clip moves rows
        center = rng.uniform(-1.0, 1.0, d)
        radius = float(10.0 ** rng.uniform(-3.0, 0.5))
        n = int(rng.integers(1, 100 * d + 4))
        pool = optimizers._ball_candidates(center, radius, bounds, n, substream(seed, "pool"))
        reference = _ball_candidates_reference(center, radius, bounds, n, substream(seed, "pool"))
        assert pool.shape == (n, d)
        assert pool.tobytes() == reference.tobytes()


_BALL_SEEDS = range(200)


@pytest.mark.parametrize("d", [1, 2, 5, 32])
def test_ball_candidates_lie_in_the_ball_and_the_box(d):
    rng = np.random.default_rng(d)
    bounds = Bounds(-np.ones(d), np.ones(d))
    for seed in _BALL_SEEDS:
        # centres near a face and radii up to twice the box, so the clip acts
        center = rng.uniform(-1.0, 1.0, d)
        radius = float(10.0 ** rng.uniform(-3.0, 0.3))
        pool = optimizers._ball_candidates(center, radius, bounds, 100 * d, substream(seed, "pool"))
        assert np.all((bounds.lower <= pool) & (pool <= bounds.upper))
        assert np.max(np.linalg.norm(pool - center, axis=1)) <= radius * (1.0 + 1e-12)


@pytest.mark.parametrize("d", [1, 2, 5, 32])
def test_ball_candidates_are_uniform_in_the_ball(d):
    # a ball well inside the box, so no row is clipped: over 200 seeds the
    # radii follow P(r <= t) = (t/R)^d, and each coordinate has mean 0 and
    # variance R^2 / (d + 2). At these seeds sqrt(N) * KS reads 0.69-1.23
    # (bound: 1.95, Kolmogorov's 0.1% point), |mean| / R at most 0.0040 and
    # the variance's relative error at most 0.013.
    n, R = 100 * d, 0.7
    bounds = Bounds(np.full(d, -10.0), np.full(d, 10.0))
    center = np.full(d, 0.25)
    radii, sums, squares = [], np.zeros(d), np.zeros(d)
    for seed in _BALL_SEEDS:
        D = optimizers._ball_candidates(center, R, bounds, n, substream(seed, "pool")) - center
        radii.append(np.sqrt(np.sum(D**2, axis=1)))
        sums += D.sum(axis=0)
        squares += np.sum(D**2, axis=0)
    u = np.sort((np.concatenate(radii) / R) ** d)
    N = u.size
    k = np.arange(1, N + 1)
    assert np.sqrt(N) * max(np.max(k / N - u), np.max(u - (k - 1) / N)) <= 1.95
    assert np.max(np.abs(sums / N)) <= 0.01 * R
    assert np.max(np.abs(squares / N * (d + 2) / R**2 - 1.0)) <= 0.03


@pytest.mark.parametrize("d", [1, 2, 5, 32])
def test_ball_candidates_same_seed_same_bytes(d):
    bounds = Bounds(-np.ones(d), np.ones(d))
    center = np.full(d, 0.1)

    def pool(seed):
        return optimizers._ball_candidates(center, 0.5, bounds, 100 * d, substream(seed, "pool"))

    assert pool(3).tobytes() == pool(3).tobytes()
    # at d = 1 the rotation is +-1, but the radii are fresh: the pool is not
    # one of the two sign flips of a fixed set
    a, b = pool(0) - center, pool(1) - center
    assert a.tobytes() != b.tobytes() and a.tobytes() != (-b).tobytes()


def test_ball_directions_are_cached_read_only_unit_rows():
    U = optimizers._ball_directions(3200, 32)
    assert U is optimizers._ball_directions(3200, 32)
    assert U.shape == (3200, 32) and not U.flags.writeable
    assert np.allclose(np.linalg.norm(U, axis=1), 1.0, rtol=0, atol=1e-14)
    with pytest.raises(ValueError):
        U[0, 0] = 0.0
    # a caller may write to a pool it was given: the next call is unchanged
    bounds = Bounds(-np.ones(32), np.ones(32))
    center = np.zeros(32)
    first = optimizers._ball_candidates(center, 0.5, bounds, 3200, substream(0, "pool"))
    expected = first.tobytes()
    first[:] = 7.0
    again = optimizers._ball_candidates(center, 0.5, bounds, 3200, substream(0, "pool"))
    assert again.tobytes() == expected


# ---------------------------------------------------------------- _pool_minimize

# The pattern refinement as it was before its step levels were stacked: one
# keys call on a 2-D batch per step, and in a ball no step below the floor.
# The stacked walk must return the same x, bit for bit.


def _sequential_pool_minimize(keys_fn, bounds, seed, center=None, radius=None, extra=None):
    n_pool = optimizers._POOL_PER_DIM * bounds.dim
    if center is not None:
        rng = substream(seed, "pool")
        X = optimizers._ball_candidates(center, radius, bounds, n_pool, rng)
        step = radius / 4.0
    else:
        X = latin_hypercube(bounds, n_pool, derive_seed(seed, "pool"))
        step = float(np.max(bounds.width)) / 10.0
    if extra:
        X = np.vstack([X, _project(extra, bounds, center, radius)])
    primary, secondary = keys_fn(X)
    i = _lex_best(primary, secondary)
    x = X[i]
    best_key = (primary[i], secondary[i])

    d = bounds.dim
    j = np.arange(d)
    floor = optimizers._STEP_FLOOR * radius if center is not None else 0.0
    for _ in range(optimizers._REFINE_STEPS):
        if step < floor:
            break
        trials = np.repeat(x[None, :], 2 * d, axis=0)
        trials[2 * j, j] += step
        trials[2 * j + 1, j] -= step
        trials = _project(trials, bounds, center, radius)
        p, s = keys_fn(trials)
        i = _lex_best(p, s)
        if (p[i], s[i]) < best_key:
            x = trials[i]
            best_key = (p[i], s[i])
        else:
            step *= 0.5
    return x


def _walk_data(d, seed, n):
    bounds = Bounds(np.full(d, -2.0), np.full(d, 3.0))
    X = latin_hypercube(bounds, n, seed)
    y = np.sum((X - 0.3) ** 2, axis=1) + 0.3 * np.sin(5.0 * X).sum(axis=1)
    G = np.column_stack([X[:, 0] - 0.1, np.sum(X**2, axis=1) - 1.5 * d])
    return bounds, X, y, G


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("d", [1, 2, 5, 10])
@pytest.mark.parametrize("method", ["bo", "cbo", "lsqm", "cuatro", "cobyqa", "cobyla"])
def test_stacked_refinement_walks_as_the_sequential_loop(method, d, seed, monkeypatch):
    # the real keys of each method: bo and cbo search the box, the
    # trust-region kinds a ball
    searches = []

    def both(keys_fn, *args, **kwargs):
        shapes = []

        def counted(X):
            shapes.append(X.shape)
            return keys_fn(X)

        x = _pool_minimize(counted, *args, **kwargs)
        ref = _sequential_pool_minimize(keys_fn, *args, **kwargs)
        searches.append((x.tobytes() == ref.tobytes(), shapes))
        return x

    monkeypatch.setattr(optimizers, "_pool_minimize", both)
    if method in ("bo", "cbo"):
        bounds, X, y, G = _walk_data(d, seed, max(5, 2 * d) + 6)
        data = Dataset(X, y, G) if method == "cbo" else Dataset(X, y)
        (propose_cbo if method == "cbo" else propose_bo)(data, bounds, seed=seed)
    else:
        n = d + 1 if method == "cobyla" else 2 * d + 4
        bounds, X, y, G = _walk_data(d, seed, n)
        tr = TrustRegionState(center=X[int(np.argmin(y))], radius=0.6)
        trust_region_step(method, Dataset(X, y, G), bounds, tr, seed=seed)
    [(same, shapes)] = searches
    assert same
    # the pool as a stack of one, then stacks of up to 20 // d levels of 2d
    # trials each, the first one full: in a ball it holds no more than the 8
    # levels radius/4 ... radius/512 at or above the floor
    levels = max(1, 20 // d)
    first = levels if method in ("bo", "cbo") else min(levels, 8)
    assert shapes[0][0] == 1 and shapes[1][0] == first
    assert all(1 <= L <= levels and m == 2 * d for L, m, _ in shapes[1:])


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    d=st.integers(min_value=1, max_value=6),
    ball=st.booleans(),
)
def test_stacked_refinement_matches_the_sequential_loop_on_row_independent_keys(seed, d, ball):
    # elementwise keys, rounded so that many trials tie, with a region
    # ranked infeasible: the walk's rule alone decides, no rounding differs
    rng = np.random.default_rng(seed)
    bounds = Bounds(np.full(d, -1.0), np.full(d, 1.0))
    c, w = rng.uniform(-1.2, 1.2, d), 10.0 ** rng.uniform(-1.0, 1.0, d)
    digits = int(rng.integers(0, 4))

    def keys(X):
        v = np.zeros(X.shape[:-1])
        for k in range(d):
            v = v + w[k] * (X[..., k] - c[k]) ** 2
        return (X[..., 0] > c[0] + 0.3).astype(int), np.round(v, digits)

    kwargs = {}
    if ball:
        kwargs = {"center": rng.uniform(-1.0, 1.0, d), "radius": float(rng.uniform(0.01, 1.0))}
    x = _pool_minimize(keys, bounds, seed % 1000, **kwargs)
    assert x.tobytes() == _sequential_pool_minimize(keys, bounds, seed % 1000, **kwargs).tobytes()


def _refined_levels(d, ball):
    """The step of every level a search refines when no trial beats the pool's best.

    The best is the origin, given as ``extra`` with key 0; every other point
    has a key > 0, and each trial 2j is the origin plus the step along axis j.
    """
    bounds = Bounds(np.full(d, -1.0), np.full(d, 1.0))
    origin = np.zeros(d)
    stacks = []

    def keys(X):
        stacks.append(X)
        return np.zeros(X.shape[:-1], dtype=int), np.sum(X**2, axis=-1)

    kwargs = {"center": origin, "radius": 0.6} if ball else {}
    x = _pool_minimize(keys, bounds, 0, extra=[origin], **kwargs)
    assert x.tobytes() == origin.tobytes()
    return [level[0, 0] for trials in stacks[1:] for level in trials]


@pytest.mark.parametrize("d", [1, 2, 5, 10])
def test_ball_search_stops_refining_at_the_step_floor(d):
    # radius/4 ... radius/512; radius/1024 is below 1e-3 of the radius
    assert _refined_levels(d, ball=True) == [0.6 / 4 * 0.5**k for k in range(8)]


@pytest.mark.parametrize("d", [1, 2, 5, 10])
def test_box_search_refines_every_level(d):
    # a tenth of the box width, halved 19 times
    assert _refined_levels(d, ball=False) == [0.2 * 0.5**k for k in range(20)]


@pytest.mark.parametrize("d", [1, 2, 5, 10])
def test_ball_search_that_always_moves_takes_every_step(d):
    # each keys call beats every earlier one, so the walk moves at the first
    # level of each stack, keeps its step at radius/4 and stops after 20 moves
    bounds = Bounds(np.full(d, -1.0), np.full(d, 1.0))
    shapes = []

    def keys(X):
        shapes.append(X.shape)
        return np.zeros(X.shape[:-1], dtype=int), np.full(X.shape[:-1], -float(len(shapes)))

    _pool_minimize(keys, bounds, 0, center=np.zeros(d), radius=0.6)
    levels = min(max(1, 20 // d), 8)
    assert shapes[1:] == [(min(20 - k, levels), 2 * d, d) for k in range(20)]


# ---------------------------------------------------------------- propose_bo


def _quad_1d_data():
    x = np.linspace(-1.0, 1.0, 15).reshape(-1, 1)
    y = (x[:, 0] - 0.3) ** 2
    return Dataset(x, y)


def test_propose_bo_exploitation_matches_grid_oracle():
    data = _quad_1d_data()
    bounds = Bounds.cube(-1.0, 1.0, 1)
    seed = 4
    x_star = propose_bo(data, bounds, 0.0, seed=seed)
    # oracle: dense-grid argmin of the same posterior mean
    model = fit_gp(data, seed=derive_seed(seed, "gp"))
    grid = np.linspace(-1.0, 1.0, 2001).reshape(-1, 1)
    mu, _ = gp_posterior(model, grid)
    oracle = grid[int(np.argmin(mu)), 0]
    assert abs(x_star[0] - oracle) <= 0.1


def test_propose_bo_max_uncertainty_runs_from_cluster():
    # clustered data at the left end; a huge gamma must pick a maximal-sigma
    # candidate, far from the cluster
    x = np.linspace(-0.9, -0.8, 6).reshape(-1, 1)
    data = Dataset(x, np.sin(x[:, 0]))
    bounds = Bounds.cube(-1.0, 1.0, 1)
    seed = 2
    x_star = propose_bo(data, bounds, 1e6, seed=seed)
    model = fit_gp(data, seed=derive_seed(seed, "gp"))
    pool = latin_hypercube(bounds, 100, derive_seed(seed, "pool"))
    _, var_pool = gp_posterior(model, pool)
    _, var_star = gp_posterior(model, x_star)
    assert var_star >= np.max(var_pool) - 1e-12
    assert np.min(np.abs(x[:, 0] - x_star[0])) >= 1.0  # left the cluster behind


def test_propose_bo_deterministic():
    data = _quad_1d_data()
    bounds = Bounds.cube(-1.0, 1.0, 1)
    gamma = 2.0
    a = propose_bo(data, bounds, gamma, seed=9)
    b = propose_bo(data, bounds, gamma, seed=9)
    assert np.array_equal(a, b)


def test_propose_bo_improves_surrogate_mean_over_incumbent():
    data = _quad_1d_data()
    bounds = Bounds.cube(-1.0, 1.0, 1)
    seed = 7
    x_star = propose_bo(data, bounds, 0.0, seed=seed)
    model = fit_gp(data, seed=derive_seed(seed, "gp"))
    mu_star, _ = gp_posterior(model, x_star)
    incumbent = data.X[int(np.argmin(data.y))]
    mu_inc, _ = gp_posterior(model, incumbent)
    assert mu_star <= mu_inc + 1e-12


def test_propose_bo_within_bounds():
    bounds = Bounds.cube(-2.0, 2.0, 2)
    for seed in range(3):
        X = latin_hypercube(bounds, 8, seed=100 + seed)
        data = Dataset(X, np.sum(X**2, axis=1))
        x = propose_bo(data, bounds, seed=seed)
        assert bounds.contains(x)


# ---------------------------------------------------------------- propose_cbo


def test_propose_cbo_inactive_constraints_match_bo():
    data = _quad_1d_data()
    g = np.full((data.n, 1), -5.0)  # feasible with wide margin everywhere
    cdata = Dataset(data.X, data.y, g)
    bounds = Bounds.cube(-1.0, 1.0, 1)
    gamma = 2.0
    a = propose_bo(data, bounds, gamma, seed=12)
    b = propose_cbo(cdata, bounds, gamma, seed=12)
    assert np.array_equal(a, b)


def test_propose_cbo_active_constraint_mean_nonpositive():
    x = np.linspace(-1.0, 1.0, 21).reshape(-1, 1)
    data = Dataset(x, -x[:, 0], x.copy())  # f = -x wants x=1; g = x <= 0
    bounds = Bounds.cube(-1.0, 1.0, 1)
    seed = 5
    x_star = propose_cbo(data, bounds, seed=seed)
    g_model = fit_gp(Dataset(x, x[:, 0]), seed=derive_seed(seed, "gp-con", 0))
    mu_g, _ = gp_posterior(g_model, x_star)
    assert mu_g <= 1e-3
    assert x_star[0] >= -0.2  # constraint active, not hiding deep inside


def test_propose_cbo_constraint_gps_compute_the_mean_only(monkeypatch):
    # the objective GP's posterior runs once per batch of keys; each of the
    # two constraint GPs gives only its mean, with no variance
    import surropt.optimizers as opt

    rng = np.random.default_rng(8)
    X = rng.uniform(-1.0, 1.0, (10, 2))
    data = Dataset(X, np.sum(X**2, axis=1), np.column_stack([X[:, 0], X[:, 1] - 0.5]))
    bounds = Bounds.cube(-1.0, 1.0, 2)
    expected = propose_cbo(data, bounds, seed=4)
    calls = {"gp_posterior": 0, "_posterior_mean": 0}
    for name in calls:
        def counted(*args, fn=getattr(opt, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(opt, name, counted)
    assert np.array_equal(propose_cbo(data, bounds, seed=4), expected)
    assert calls["gp_posterior"] > 0
    assert calls["_posterior_mean"] == 2 * calls["gp_posterior"]


def test_propose_cbo_all_infeasible_minimizes_violation():
    x = np.linspace(0.5, 1.5, 21).reshape(-1, 1)
    data = Dataset(x, np.cos(x[:, 0]), x.copy())  # g = x >= 0.5 > 0 everywhere
    bounds = Bounds(np.array([0.5]), np.array([1.5]))
    x_star = propose_cbo(data, bounds, seed=3)
    assert x_star[0] <= 0.51  # violation ~ x is minimized at the left edge


def test_propose_cbo_requires_constraints():
    data = _quad_1d_data()
    with pytest.raises(ConfigError):
        propose_cbo(data, Bounds.cube(-1, 1, 1), seed=0)


# ---------------------------------------------------------------- trust_region_step("lsqm")


def test_lsqm_interior_minimum():
    x = np.linspace(-1.5, 2.0, 8).reshape(-1, 1)
    data = Dataset(x, x[:, 0] ** 2)
    tr = TrustRegionState(center=np.array([0.5]), radius=2.0, max_radius=10.0)
    x_star = trust_region_step("lsqm", data, Bounds.cube(-3.0, 3.0, 1), tr, seed=1).x
    assert abs(x_star[0]) <= 1e-3


def test_lsqm_boundary_solution():
    # essentially linear surrogate, minimizer far outside the ball
    x = np.linspace(-2.0, 2.0, 9).reshape(-1, 1)
    data = Dataset(x, 2.0 * x[:, 0] + 1.0)
    center = np.array([0.0])
    tr = TrustRegionState(center=center, radius=0.5, max_radius=10.0)
    x_star = trust_region_step("lsqm", data, Bounds.cube(-3.0, 3.0, 1), tr, seed=2).x
    assert abs(np.linalg.norm(x_star - center) - 0.5) <= 1e-6
    assert x_star[0] < 0  # downhill side


def test_lsqm_matches_grid_oracle_on_ill_conditioned_quadratic():
    from surropt.problems import quadratic_ill

    bounds = Bounds.cube(-5.0, 5.0, 2)
    X = latin_hypercube(bounds, 10, seed=42)
    data = Dataset(X, np.array([quadratic_ill(x) for x in X]))
    center = np.zeros(2)
    tr = TrustRegionState(center=center, radius=100.0, max_radius=200.0)
    x_star = trust_region_step("lsqm", data, bounds, tr, seed=6).x

    model = fit_quadratic(data, psd=True)
    g = np.linspace(-5.0, 5.0, 1001)
    gx, gy = np.meshgrid(g, g)
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    oracle = grid[int(np.argmin(model.predict(grid)))]
    assert np.linalg.norm(x_star - oracle) <= 1e-2


def test_lsqm_needs_enough_samples():
    data = Dataset(np.zeros((2, 2)), np.zeros(2))
    tr = TrustRegionState(center=np.zeros(2), radius=1.0)
    with pytest.raises(ConfigError):
        trust_region_step("lsqm", data, Bounds.cube(-1, 1, 2), tr, seed=0)


def test_trust_region_steps_stay_in_ball():
    bounds = Bounds.cube(-2.0, 2.0, 2)
    X = latin_hypercube(bounds, 9, seed=8)
    y = np.sum((X - 0.7) ** 2, axis=1)
    g = (X[:, :1] - 0.2)
    tr = TrustRegionState(center=X[3].copy(), radius=0.6, max_radius=4.0)
    for seed in range(3):
        x1 = trust_region_step("lsqm", Dataset(X, y), bounds, tr, seed=seed).x
        assert np.linalg.norm(x1 - tr.center) <= 0.6 + 1e-9
        x2 = trust_region_step("cuatro", Dataset(X, y, g), bounds, tr, seed=seed).x
        assert np.linalg.norm(x2 - tr.center) <= 0.6 + 1e-9
        x3 = trust_region_step("cobyqa", Dataset(X, y, g), bounds, tr, seed=seed).x
        assert np.linalg.norm(x3 - tr.center) <= 0.6 + 1e-9
        x4 = trust_region_step("cobyla", Dataset(X, y, g), bounds, tr, seed=seed).x
        assert np.linalg.norm(x4 - tr.center) <= 0.3 + 1e-9  # half radius


@pytest.mark.parametrize("penalties", [[100.0], [100.0, 100.0, 100.0], [100.0, np.nan]])
def test_trust_region_step_rejects_wrongly_sized_penalties(penalties):
    bounds = Bounds.cube(-2.0, 2.0, 2)
    X = latin_hypercube(bounds, 9, seed=8)
    data = Dataset(X, np.sum(X**2, axis=1), X - 0.2)  # two constraint columns
    tr = TrustRegionState(center=X[0].copy(), radius=0.6, max_radius=4.0)
    for kind in ("lsqm", "cuatro", "cobyqa", "cobyla"):
        with pytest.raises(ConfigError):
            trust_region_step(kind, data, bounds, tr, penalties, seed=0)


# ---------------------------------------------------------------- trust_region_step("cuatro")


def test_cuatro_unconstrained_equals_lsqm():
    bounds = Bounds.cube(-2.0, 2.0, 2)
    X = latin_hypercube(bounds, 8, seed=5)
    y = np.sum(X**2, axis=1) + 0.3 * X[:, 0]
    tr = TrustRegionState(center=X[0].copy(), radius=0.8, max_radius=4.0)
    a = trust_region_step("lsqm", Dataset(X, y), bounds, tr, seed=7).x
    b = trust_region_step("cuatro", Dataset(X, y), bounds, tr, seed=7).x
    assert np.array_equal(a, b)


def test_cuatro_respects_active_constraint():
    bounds = Bounds.cube(-2.0, 2.0, 2)
    X = latin_hypercube(bounds, 20, seed=3)
    y = (X[:, 0] - 1.0) ** 2 + X[:, 1] ** 2  # unconstrained optimum (1, 0)
    g = X[:, :1].copy()  # x1 <= 0
    tr = TrustRegionState(center=np.zeros(2), radius=3.0, max_radius=8.0)
    x_star = trust_region_step("cuatro", Dataset(X, y, g), bounds, tr, seed=4).x
    assert x_star[0] <= 1e-3
    assert abs(x_star[1]) <= 0.2


def test_cuatro_small_radius_boundary():
    bounds = Bounds.cube(-3.0, 3.0, 1)
    x = np.linspace(-2.0, 2.0, 9).reshape(-1, 1)
    y = 2.0 * x[:, 0] + 1.0
    g = np.full((9, 1), -1.0)  # never active
    center = np.array([1.0])
    tr = TrustRegionState(center=center, radius=0.25, max_radius=6.0)
    x_star = trust_region_step("cuatro", Dataset(x, y, g), bounds, tr, seed=1).x
    assert abs(np.linalg.norm(x_star - center) - 0.25) <= 1e-6


# ---------------------------------------------------------------- trust_region_step("cobyla")


def _linear_dataset(f, g=None):
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    y = np.array([f(x) for x in X])
    G = np.array([[g(x)] for x in X]) if g else None
    return Dataset(X, y, G)


def test_cobyla_closed_form_step():
    data = _linear_dataset(lambda x: x[0])  # gradient (1, 0)
    tr = TrustRegionState(center=np.zeros(2), radius=1.0, max_radius=4.0)
    x_star = trust_region_step("cobyla", data, Bounds.cube(-2.0, 2.0, 2), tr, seed=0).x
    assert np.allclose(x_star, [-0.5, 0.0], atol=1e-6)


def test_max_merit_arithmetic():
    # COBYLA's merit f + penalty * [max_i g_i]_+ on one-row batches
    one = lambda *values: np.array(values, dtype=float)
    assert _max_merit(one(1.0), [one(0.5), one(-0.2)], 1.0) == pytest.approx([1.5])
    assert _max_merit(one(1.0), [one(-0.5), one(-0.2)], 7.0) == pytest.approx([1.0])
    assert _max_merit(one(2.5), [], 3.0) == pytest.approx([2.5])


def test_cobyla_constrained_step():
    data = _linear_dataset(lambda x: x[0] + x[1], g=lambda x: -x[0] - 0.1)
    penalties = np.array([1e6])
    tr = TrustRegionState(center=np.zeros(2), radius=1.0, max_radius=4.0)
    bounds = Bounds.cube(-2.0, 2.0, 2)
    x_star = trust_region_step("cobyla", data, bounds, tr, penalties, seed=2).x
    assert x_star[0] >= -0.1 - 1e-3
    # merit no worse than the unconstrained steepest step at half radius
    f_model = fit_linear(Dataset(data.X, data.y))
    g_model = fit_linear(Dataset(data.X, data.G[:, 0]))

    def merit_at(p):
        return f_model.predict(p) + 1e6 * max(0.0, g_model.predict(p))

    cauchy = -0.5 * np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert merit_at(x_star) <= merit_at(cauchy) + 1e-9
    assert np.linalg.norm(x_star) <= 0.5 + 1e-9


# ---------------------------------------------------------------- trust_region_step("cobyqa")


def test_cobyqa_interior_minimum():
    bounds = Bounds.cube(-2.0, 2.0, 2)
    X = latin_hypercube(bounds, 12, seed=9)
    y = (X[:, 0] - 0.4) ** 2 + 2.0 * (X[:, 1] + 0.3) ** 2
    tr = TrustRegionState(center=np.zeros(2), radius=3.0, max_radius=8.0)
    x_star = trust_region_step("cobyqa", Dataset(X, y), bounds, tr, seed=3).x
    assert np.allclose(x_star, [0.4, -0.3], atol=1e-3)


def test_cobyqa_inactive_constraints_match_unconstrained():
    bounds = Bounds.cube(-2.0, 2.0, 2)
    X = latin_hypercube(bounds, 12, seed=11)
    y = np.sum((X - 0.2) ** 2, axis=1)
    g = np.full((12, 1), -1.0)
    tr = TrustRegionState(center=np.zeros(2), radius=1.0, max_radius=4.0)
    a = trust_region_step("cobyqa", Dataset(X, y), bounds, tr, seed=6).x
    b = trust_region_step("cobyqa", Dataset(X, y, g), bounds, tr, seed=6).x
    assert np.array_equal(a, b)


def test_cobyqa_merit_not_worse_than_center():
    prob = get_problem("quadratic-c")
    bounds = prob.bounds
    X = latin_hypercube(bounds, 10, seed=13)
    y = np.array([prob.objective(x) for x in X])
    G = np.array([prob.constraints(x) for x in X]).reshape(10, -1)
    center = X[int(np.argmin(y))].copy()
    tr = TrustRegionState(center=center, radius=1.5, max_radius=20.0)
    penalties = np.array([100.0])
    data = Dataset(X, y, G)
    x_star = trust_region_step("cobyqa", data, bounds, tr, penalties, seed=4).x

    f_model = fit_quadratic(data)
    g_model = fit_quadratic(Dataset(X, G[:, 0]))

    def phi(p):
        return f_model.predict(p) + 100.0 * max(0.0, g_model.predict(p))

    assert phi(x_star) <= phi(center) + 1e-9


# ---------------------------------------------------------------- trust_region_update


def _tr(radius=1.0, **kw):
    kw.setdefault("center", np.zeros(2))
    kw.setdefault("max_radius", 8.0)
    return TrustRegionState(radius=radius, **kw)


def test_tr_update_examples():
    out = trust_region_update(_tr(1.0), 1.0, 0.9, True)
    assert out.radius == pytest.approx(2.0)
    out = trust_region_update(_tr(1.0), 1.0, 0.1, False)
    assert out.radius == pytest.approx(0.5)
    out = trust_region_update(_tr(1.0), 1.0, 0.5, False)
    assert out.radius == pytest.approx(1.0)


def test_tr_update_cap_floor_and_center():
    out = trust_region_update(_tr(6.0), 1.0, 0.95, True)
    assert out.radius == pytest.approx(8.0)  # capped
    tiny = TrustRegionState(center=np.zeros(2), radius=1.5e-6, min_radius=1e-6)
    out = trust_region_update(tiny, 1.0, -1.0, False)
    assert out.radius == pytest.approx(1e-6)  # floored

    p = np.array([0.3, -0.1])
    moved = trust_region_update(_tr(), 1.0, 0.5, False, new_point=p)
    assert np.array_equal(moved.center, p)
    stay = trust_region_update(_tr(), 1.0, -0.2, False, new_point=p)
    assert np.array_equal(stay.center, np.zeros(2))
    infeas = trust_region_update(_tr(), 1.0, 0.5, False, new_point=p, feasible=False)
    assert np.array_equal(infeas.center, np.zeros(2))


def test_tr_update_nonpositive_predicted_is_failure():
    out = trust_region_update(_tr(1.0), 0.0, 0.5, False)
    assert out.radius == pytest.approx(0.5)


# ---------------------------------------------------------------- dycors


def _dycors_state(**kw):
    kw.setdefault("iteration", 0)
    kw.setdefault("max_iterations", 40)
    kw.setdefault("step_size", 0.2)
    return DycorsState(**kw)


def test_dycors_select_probability():
    assert dycors_select_probability(_dycors_state(), 2) == pytest.approx(1.0)
    assert dycors_select_probability(_dycors_state(), 40) == pytest.approx(0.5)
    probs = [
        dycors_select_probability(_dycors_state(iteration=i), 2) for i in range(40)
    ]
    assert all(a >= b for a, b in zip(probs, probs[1:]))
    assert probs[-1] <= 0.02  # essentially zero at the horizon


def test_dycors_score_arithmetic():
    # documented weighted score on two trials with opposing value/distance
    v_f = np.array([0.0, 1.0])
    v_d = np.array([1.0, 0.0])
    w = 0.95
    score = w * v_f + (1 - w) * (1.0 - v_d)
    assert score[0] == pytest.approx(0.0)
    assert score[1] == pytest.approx(1.0)
    assert int(np.argmin(score)) == 0


def test_dycors_step_matches_replicated_pipeline():
    bounds = Bounds.cube(-2.0, 2.0, 2)
    X = latin_hypercube(bounds, 8, seed=21)
    y = np.sum(X**2, axis=1)
    data = Dataset(X, y)
    state = _dycors_state(iteration=3)
    incumbent = X[int(np.argmin(y))]
    seed = 17
    x_star = dycors_step(data, bounds, state, incumbent, seed=seed)

    # replicate the documented pipeline draw-for-draw
    d, n = 2, 200
    rng = substream(seed, "dycors")
    p = dycors_select_probability(state, d)
    mask = rng.uniform(size=(n, d)) < p
    forced = rng.integers(0, d, size=n)
    noise = rng.standard_normal((n, d))
    empty = ~mask.any(axis=1)
    mask[empty, forced[empty]] = True
    trials = np.clip(
        incumbent + mask * (noise * state.step_size * bounds.width),
        bounds.lower,
        bounds.upper,
    )
    assert mask.any(axis=1).all()  # every trial perturbs >= 1 coordinate

    def rescale(v):
        lo, hi = v.min(), v.max()
        return np.ones_like(v) if hi - lo < 1e-12 else (v - lo) / (hi - lo)

    v_f = rescale(rbf_predict(fit_rbf(data), trials))
    dist = np.sqrt(((trials[:, None, :] - X[None]) ** 2).sum(axis=2)).min(axis=1)
    score = 0.95 * v_f + 0.05 * (1.0 - rescale(dist))
    assert np.array_equal(x_star, trials[int(np.argmin(score))])


@pytest.mark.parametrize("d,seed", [(2, 0), (2, 5), (5, 1), (10, 2)])
def test_dycors_step_ignores_an_exact_duplicate_row(d, seed):
    # the RBF merges the duplicate into its original, and the distance score
    # is taken to the RBF's centers, so neither score sees the copy
    bounds = Bounds.cube(-2.0, 2.0, d)
    X = latin_hypercube(bounds, 2 * d + 4, seed=seed)
    y = np.sum(X**2, axis=1) + X[:, 0]
    state = _dycors_state(iteration=seed)
    incumbent = X[int(np.argmin(y))]
    x_star = dycors_step(Dataset(X, y), bounds, state, incumbent, seed=seed)
    j = seed % X.shape[0]
    Xd = np.insert(X, j + 1, X[j], axis=0)
    yd = np.insert(y, j + 1, y[j])
    x_dup = dycors_step(Dataset(Xd, yd), bounds, state, incumbent, seed=seed)
    assert np.array_equal(x_star, x_dup)


@pytest.mark.parametrize("d", [2, 10, 32])
def test_dycors_step_picks_the_row_exact_distances_pick(d, monkeypatch):
    # the centred gemm moves distances by ulps; on these steps, from the
    # initial step size down to the floor, no score tie between trials flips
    rng = np.random.default_rng(d)
    lower = rng.uniform(-5.0, 5.0, d)
    bounds = Bounds(lower, lower + 10.0 ** rng.uniform(-1.0, 2.0, d))
    X = latin_hypercube(bounds, 2 * d + 6, seed=d)
    y = np.sum(((X - bounds.lower) / bounds.width - 0.3) ** 2, axis=1)
    data, incumbent = Dataset(X, y), X[int(np.argmin(y))]
    steps = [(0, 0.2), (3, 0.05), (9, 0.0125), (20, 1e-3), (39, 2e-4)]
    states = [_dycors_state(iteration=i, step_size=s) for i, s in steps]
    picked = [dycors_step(data, bounds, s, incumbent, seed=k) for k, s in enumerate(states)]
    monkeypatch.setattr(optimizers, "_centred_distances", lambda A, B, origin: _distances(A, B))
    for k, state in enumerate(states):
        assert np.array_equal(picked[k], dycors_step(data, bounds, state, incumbent, seed=k))


def test_dycors_step_size_rule():
    s = _dycors_state(step_size=0.05)
    for _ in range(3):
        s = dycors_update(s, success=True)
    assert s.step_size == pytest.approx(0.1)
    assert s.success_count == 0
    for _ in range(3):
        s = dycors_update(s, success=True)
    assert s.step_size == pytest.approx(0.2)  # capped at initial
    for _ in range(5):
        s = dycors_update(s, success=False)
    assert s.step_size == pytest.approx(0.1)
    floor = _dycors_state(step_size=2.5e-4)
    for _ in range(5):
        floor = dycors_update(floor, success=False)
    assert floor.step_size == pytest.approx(2e-4)  # 1e-3 of initial


def test_dycors_update_advances_cycle_and_iteration():
    s = _dycors_state(max_iterations=2)
    s = dycors_update(s, True)
    assert s.iteration == 1  # the weight-cycle position too
    s = dycors_update(s, False)
    s = dycors_update(s, False)
    assert s.iteration == 2  # clamped at max_iterations


def test_dycors_step_raises_on_rbf_failure():
    # two points cannot support a full-rank linear tail in 2-D; the runner,
    # not the step, decides what a failed fit leads to
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    data = Dataset(X, np.array([0.0, 1.0]))
    bounds = Bounds.cube(-2.0, 2.0, 2)
    with pytest.raises(SurrogateFitError):
        dycors_step(data, bounds, _dycors_state(), np.zeros(2), seed=5)


# ---------------------------------------------------------------- run_optimizer


def test_run_optimizer_exact_budget():
    prob = get_problem("ackley-d2")
    traj = run_optimizer("lsqm", prob, budget=20, seed=0)
    assert len(traj) == 20
    assert all(ev.index == i + 1 for i, ev in enumerate(traj.evaluations))


def test_run_optimizer_budget_below_init_rejected():
    prob = get_problem("ackley-d2")
    with pytest.raises(ConfigError):
        run_optimizer("bo", prob, budget=4, seed=0)  # init needs max(5, 4)
    with pytest.raises(ConfigError):
        run_optimizer("lsqm", prob, budget=2, seed=0)  # init needs 3


def test_run_optimizer_deterministic():
    prob = get_problem("rosenbrock-c")
    t1 = run_optimizer("cuatro", prob, budget=25, seed=11)
    t2 = run_optimizer("cuatro", prob, budget=25, seed=11)
    assert np.array_equal(t1.xs, t2.xs)
    assert np.array_equal(t1.ys, t2.ys)
    assert np.array_equal(t1.gs, t2.gs)


# williams-otto at seed 1 starts from an infeasible design with two
# constraints, where lsqm's step differs from cuatro's and the cobyqa and
# cobyla steps move with the penalties
@pytest.mark.parametrize("problem_key", ["williams-otto", "levy-d2"])
@pytest.mark.parametrize("kind", ["lsqm", "cuatro", "cobyqa", "cobyla"])
def test_runner_steps_through_trust_region_step(kind, problem_key):
    import surropt.optimizers as opt

    prob, seed = get_problem(problem_key), 1
    n_init = opt.initial_design_size(kind, prob.dim)
    traj = run_optimizer(kind, prob, budget=n_init + 1, seed=seed)
    data = Dataset(traj.xs[:n_init], traj.ys[:n_init], traj.gs[:n_init])
    width = float(np.max(prob.bounds.width))
    start = TrustRegionState(
        center=data.X[opt._best_index(data.y, data.G)], radius=0.1 * width,
        min_radius=1e-6, max_radius=width,
    )
    step = trust_region_step(
        kind, data, prob.bounds, start, seed=derive_seed(seed, "step", 0)
    )
    assert np.array_equal(traj.xs[n_init], prob.bounds.clip(step.x))


def test_lsqm_ratio_scores_the_objective_alone(monkeypatch):
    # lsqm's step predicts the objective alone, so the observed reduction its
    # ratio divides by is center_y - y, with no penalty; at seed 1 every
    # williams-otto sample is infeasible, where a penalized merit would differ
    import surropt.optimizers as opt

    calls = []
    real = opt.trust_region_update

    def spy(tr, predicted, actual, on_boundary, new_point=None, feasible=True):
        calls.append((tr.center, actual, new_point))
        return real(tr, predicted, actual, on_boundary, new_point=new_point, feasible=feasible)

    monkeypatch.setattr(opt, "trust_region_update", spy)
    prob = get_problem("williams-otto")
    traj = run_optimizer("lsqm", prob, budget=30, seed=1)
    assert np.all(np.max(traj.gs, axis=1) > 0)

    def y_at(x):
        return traj.ys[np.flatnonzero((traj.xs == x).all(axis=1))[0]]

    assert len(calls) == 30 - opt.initial_design_size("lsqm", prob.dim)
    for center, actual, x in calls:
        assert actual == y_at(center) - y_at(x)


def test_optimizers_all_lists_the_public_names():
    import surropt.optimizers as opt

    defined = {
        name for name, obj in vars(opt).items()
        if not name.startswith("_") and getattr(obj, "__module__", None) == opt.__name__
    }
    assert set(opt.__all__) == defined | {"ALGORITHMS", "DYCORS_WEIGHTS"}


def test_run_optimizer_unknown_algorithm():
    prob = get_problem("ackley-d2")
    with pytest.raises(ConfigError):
        run_optimizer("bfgs", prob, budget=20, seed=0)


def test_run_optimizer_names_are_exact():
    # the same names that parse_config and `surropt optimize` accept
    with pytest.raises(ConfigError, match="unknown algorithm 'BO'"):
        run_optimizer("BO", get_problem("ackley-d2"), budget=20, seed=0)


def test_run_optimizer_cbo_needs_constraints():
    prob = get_problem("ackley-d2")
    with pytest.raises(ConfigError):
        run_optimizer("cbo", prob, budget=20, seed=0)


@pytest.mark.parametrize("algorithm, key, budget", [
    ("bfgs", "quadratic-d2", 20),  # unknown algorithm
    ("cbo", "quadratic-d2", 20),  # cbo on an unconstrained problem
    ("cobyla", "quadratic-c", 2),  # budget below the initial design (3 points)
    ("dycors", "quadratic-c", 4),  # budget below the initial design (5 points)
])
def test_run_optimizer_config_errors_come_before_any_evaluation(algorithm, key, budget):
    calls = []
    base = get_problem(key)

    def counted(x):
        calls.append(x)
        return base.objective(x)

    prob = Problem(base.name, base.bounds, counted, base.constraints, base.n_constraints)
    with pytest.raises(ConfigError):
        run_optimizer(algorithm, prob, budget=budget, seed=0)
    assert calls == []


FIT_OF = {
    "bo": "fit_gps", "cbo": "fit_gps", "lsqm": "fit_quadratic", "cuatro": "fit_quadratic",
    "cobyqa": "fit_quadratic", "cobyla": "fit_linear", "dycors": "fit_rbf",
}


@pytest.mark.parametrize("algo", sorted(FIT_OF))
def test_run_optimizer_fallback_fills_budget(algo, monkeypatch, caplog, tmp_path):
    import surropt.optimizers as opt
    from surropt.bench import BenchmarkConfig, run_benchmark

    def boom(*args, **kwargs):
        raise SurrogateFitError("synthetic failure")

    monkeypatch.setattr(opt, FIT_OF[algo], boom)
    key = "matyas-c" if algo == "cbo" else "ackley-d2"
    prob = get_problem(key)
    n_init = opt.initial_design_size(algo, prob.dim)
    with caplog.at_level(logging.WARNING, logger="surropt.optimizers"):
        traj = run_optimizer(algo, prob, budget=12, seed=5)
    assert len(traj) == 12
    assert traj.meta["fallback_at"] == n_init + 1  # the first proposed point
    assert "synthetic failure" in traj.meta["fallback_reason"]
    assert all(prob.bounds.contains(ev.x) for ev in traj.evaluations)
    assert any("random search" in rec.message for rec in caplog.records)

    config = BenchmarkConfig(
        algorithms=[algo], problems=[key], dims=[2], repetitions=1,
        budgets={2: 12}, warmup={2: 3}, seed=5, suite="fb",
    )
    table = run_benchmark(config, out_dir=tmp_path)  # jobs=1: the patch reaches the cell
    assert table.cell_status[f"{key}/{algo}/rep0"].startswith(f"fallback@{n_init + 1}:")


def test_run_optimizer_programming_error_propagates(monkeypatch):
    import surropt.optimizers as opt

    def broken(*args, **kwargs):
        raise TypeError("synthetic bug")

    monkeypatch.setattr(opt, "fit_quadratic", broken)
    with pytest.raises(TypeError, match="synthetic bug"):
        run_optimizer("lsqm", get_problem("ackley-d2"), budget=12, seed=5)


def test_fallback_warning_is_logged_from_the_run_optimizer_frame(monkeypatch):
    # perfbench attributes a fallback to its cell by walking back from the
    # handler to the frame whose code is run_optimizer.__code__ and reading
    # its locals, so that frame must be the runner's own
    class FrameLog(logging.Handler):
        def __init__(self):
            super().__init__(logging.WARNING)
            self.cells = []

        def emit(self, record):
            frame = sys._getframe()
            while frame.f_code is not run_optimizer.__code__:
                frame = frame.f_back
            local = frame.f_locals
            self.cells.append((local["problem"].name, local["algorithm"], local["seed"]))

    def boom(*args, **kwargs):
        raise SurrogateFitError("synthetic failure")

    monkeypatch.setattr(optimizers, "fit_quadratic", boom)
    handler = FrameLog()
    log = logging.getLogger("surropt.optimizers")
    log.addHandler(handler)
    try:
        traj = run_optimizer("cuatro", get_problem("quadratic-d2"), budget=8, seed=0)
    finally:
        log.removeHandler(handler)
    assert traj.meta["fallback_at"] == optimizers.initial_design_size("cuatro", 2) + 1
    assert handler.cells == [("quadratic-d2", "cuatro", 0)]


def _nan_quadratic(d=2):
    Q = np.eye(d)
    Q[0, 0] = np.nan
    return QuadModel(Q, np.zeros(d), 0.0)


def test_quad_extras_lets_a_failed_svd_through():
    # lstsq's SVD does not converge on a NaN entry of Q
    with pytest.raises(np.linalg.LinAlgError):
        optimizers._quad_extras(_nan_quadratic(), np.zeros(2), 0.5)


@pytest.mark.parametrize("algo", ["lsqm", "cuatro", "cobyqa"])
def test_failed_svd_in_a_quadratic_step_falls_back(algo, monkeypatch, tmp_path):
    from surropt.bench import BenchmarkConfig, run_benchmark

    monkeypatch.setattr(optimizers, "fit_quadratic", lambda data, psd=False: _nan_quadratic())
    n_init = optimizers.initial_design_size(algo, 2)
    traj = run_optimizer(algo, get_problem("ackley-d2"), budget=12, seed=5)
    assert len(traj) == 12
    assert traj.meta["fallback_at"] == n_init + 1
    assert traj.meta["fallback_reason"].startswith("LinAlgError: SVD did not converge")

    config = BenchmarkConfig(
        algorithms=[algo], problems=["ackley-d2"], dims=[2], repetitions=1,
        budgets={2: 12}, warmup={2: 3}, seed=5, suite="svd",
    )
    table = run_benchmark(config, out_dir=tmp_path)  # jobs=1: the patch reaches the cell
    assert table.cell_status[f"ackley-d2/{algo}/rep0"].startswith(f"fallback@{n_init + 1}:")


def test_run_optimizer_all_algorithms_complete():
    pairs = [
        ("bo", "ackley-d2"),
        ("lsqm", "levy-d2"),
        ("cuatro", "rosenbrock-c"),
        ("cobyla", "quadratic-c"),
        ("cobyqa", "matyas-c"),
        ("dycors", "rosenbrock-d2"),
        ("cbo", "rosenbrock-c"),
    ]
    for algo, name in pairs:
        prob = get_problem(name)
        traj = run_optimizer(algo, prob, budget=15, seed=1)
        assert len(traj) == 15, algo
        assert all(prob.bounds.contains(ev.x) for ev in traj.evaluations)


def test_config_validation():
    data = _quad_1d_data()
    bounds = Bounds.cube(-1.0, 1.0, 1)
    with pytest.raises(ConfigError):
        propose_bo(data, bounds, gamma=-0.5)
    tr = TrustRegionState(center=np.zeros(1), radius=0.5)
    with pytest.raises(ConfigError):
        trust_region_step("cobyqa", data, bounds, tr, penalties=[0.0])
    with pytest.raises(ConfigError):
        DycorsState(iteration=5, max_iterations=3, step_size=0.2)
    with pytest.raises(ConfigError):
        TrustRegionState(center=np.zeros(2), radius=0.5, min_radius=1.0)
