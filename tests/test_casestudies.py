import copy
import struct

import numpy as np
import pytest
from dataclasses import replace

from surropt import bench
from surropt.bench import BenchmarkConfig
from surropt.core import (
    Bounds,
    ConfigError,
    NoiseSpec,
    Trajectory,
    evaluate,
    latin_hypercube,
    substream,
)
from surropt.casestudies import cstr as cstr_module
from surropt.casestudies import (
    CstrParams,
    CstrState,
    WoParams,
    cstr_objective,
    cstr_rhs,
    integrate,
    load_defaults,
    make_cstr_problem,
    make_williams_otto_problem,
    pid_control,
    solve_wo,
    theta_to_gains,
    wo_constraints,
    wo_objective,
    wo_residuals,
)

# ---------------------------------------------------------------- CSTR rhs


def test_cstr_rhs_all_sources_off():
    p = replace(CstrParams.from_config(), k0_AB=0.0, k0_BC=0.0, UA=0.0)
    d = cstr_rhs(CstrState(0.5, 0.2, 330.0), (0.0, 300.0), p)
    assert np.array_equal(d, np.zeros(3))


def test_cstr_rhs_pure_dilution():
    p = replace(CstrParams.from_config(), k0_AB=0.0, k0_BC=0.0, UA=0.0)
    CA, CB, T, Fin = 0.5, 0.2, 330.0, 101.0
    d = cstr_rhs(CstrState(CA, CB, T), (Fin, 295.0), p)
    assert d[0] == pytest.approx((Fin / p.V) * (p.CAf - CA), abs=1e-15)
    assert d[1] == pytest.approx(-(Fin / p.V) * CB, abs=1e-15)
    assert d[2] == pytest.approx((Fin / p.V) * (p.Tf - T), abs=1e-12)


def test_cstr_rhs_matches_hand_evaluation():
    # frozen from an independent transcription of the balance equations
    d = cstr_rhs(CstrState(0.5, 0.2, 330.0), (101.0, 295.0))
    expected = [0.39512003538068741, -0.092236816353600551, -30.009885859366996]
    assert np.allclose(d, expected, atol=1e-10)


def test_cstr_rhs_rejects_bad_state():
    with pytest.raises(ConfigError):
        cstr_rhs(np.array([np.nan, 0.0, 300.0]), (100.0, 300.0))
    with pytest.raises(ConfigError):
        CstrState(-0.1, 0.0, 300.0)
    with pytest.raises(ConfigError):
        CstrState(0.5, 0.0, -1.0)


def test_cstr_rhs_at_zero_temperature_has_no_reaction():
    # exp(-E / (R * 0)) = exp(-inf) = 0, as numpy divides; float division raises
    p = CstrParams.from_config()
    d = cstr_rhs(np.array([0.5, 0.2, 0.0]), (100.0, 300.0), p)
    q = 100.0 / p.V
    assert np.array_equal(d[:2], [q * (p.CAf - 0.5), -q * 0.2])


def test_cstr_rhs_overflowing_arrhenius_factor_is_inf():
    # at T < 0, exp(-E / RT) overflows: math.exp raises, numpy gives inf
    p = CstrParams.from_config()
    d = cstr_rhs(np.array([0.5, 0.2, -1.0]), (100.0, 300.0), p)
    assert d[0] == -np.inf


def test_cstr_params_validation():
    with pytest.raises(ConfigError):
        replace(CstrParams.from_config(), V=0.0)
    with pytest.raises(ConfigError):
        replace(CstrParams.from_config(), k0_AB=-1.0)


# ---------------------------------------------------------------- integrator


def _decay(y, u):
    return -y


def test_integrate_exponential():
    sched = np.zeros((100, 1))
    states, failed = integrate(_decay, np.array([1.0]), sched, 0.01, 1.0)
    assert not failed
    assert states.shape == (101, 1)
    assert abs(states[-1, 0] - np.exp(-1.0)) <= 1e-8


def test_integrate_is_fourth_order():
    def err(dt):
        n = int(round(1.0 / dt))
        states, _ = integrate(_decay, np.array([1.0]), np.zeros((n, 1)), dt, 1.0)
        return abs(states[-1, 0] - np.exp(-1.0))

    ratio = err(0.02) / err(0.01)
    assert 8.0 <= ratio <= 32.0


def test_integrate_reaches_steady_state():
    p = CstrParams.from_config()
    x0 = np.array(load_defaults()["cstr"]["initial_state"])
    sched = np.tile([100.0, 300.0], (2000, 1))
    states, failed = integrate(
        lambda y, u: cstr_rhs(y, u, p), x0, sched, 0.1, 200.0, substeps=2
    )
    assert not failed
    final = states[-1]
    assert np.max(np.abs(cstr_rhs(final, (100.0, 300.0), p))) < 1e-6
    # independent Newton oracle on the steady-state equations
    oracle = np.array([0.877189685345186, 0.12276911741479, 324.482510953643])
    assert np.allclose(final, oracle, atol=1e-4)


def test_integrate_flags_blow_up():
    sched = np.zeros((50, 1))
    states, failed = integrate(lambda y, u: y, np.array([1.0]), sched, 1.0, 50.0)
    assert failed
    assert states.shape[0] < 51


def test_integrate_validates_schedule():
    with pytest.raises(ConfigError):
        integrate(_decay, np.array([1.0]), np.zeros((10, 1)), 0.1, 2.0)
    with pytest.raises(ConfigError):
        integrate(_decay, np.array([1.0]), np.zeros((10, 1)), -0.1, -1.0)


@pytest.mark.parametrize("substeps", [0, -1, 2.5, 3.0])
def test_integrate_rejects_substeps_that_are_not_a_positive_integer(substeps):
    # substeps=-1 used to return the initial state at every boundary with
    # failed=False, and substeps=0 raised a bare ZeroDivisionError
    with pytest.raises(ConfigError, match="substeps"):
        integrate(_decay, np.array([1.0]), np.zeros((10, 1)), 0.1, 1.0, substeps=substeps)


# ---------------------------------------------------------------- PID


def test_pid_zero_history_returns_bias():
    gains = np.array([[1.0, 2.0, 3.0, 101.0], [0.5, 0.1, 0.0, 296.0]])
    u = pid_control(gains, (0.0, 0.0, 0.0), [97.0, 290.0], [105.0, 302.0])
    assert np.array_equal(u, [101.0, 296.0])


def test_pid_proportional_contribution():
    base = np.array([[0.0, 0.0, 0.0, 100.0]])
    bumped = np.array([[2.0, 0.0, 0.0, 100.0]])
    lo, hi = [0.0], [1000.0]
    u0 = pid_control(base, (1.5, 0.0, 0.0), lo, hi)
    u1 = pid_control(bumped, (1.5, 0.0, 0.0), lo, hi)
    assert u1[0] - u0[0] == pytest.approx(3.0)


def test_pid_clips_to_actuator_box():
    gains = np.array([[100.0, 0.0, 0.0, 100.0]])
    u = pid_control(gains, (50.0, 0.0, 0.0), [97.0], [105.0])
    assert u[0] == 105.0


# ---------------------------------------------------------------- objective


HAND_TUNED = np.zeros((4, 2, 4))
HAND_TUNED[:, :, 0] = 0.5
HAND_TUNED[:, :, 1] = 0.3
HAND_TUNED[:, :, 3] = 0.8
HAND_TUNED = HAND_TUNED.ravel()


def test_cstr_objective_frozen_values():
    # frozen from an independent simulation of the same closed loop
    assert cstr_objective(np.zeros(32)) == pytest.approx(27979.52326847026, rel=1e-9)
    assert cstr_objective(HAND_TUNED) == pytest.approx(192.97769151062906, rel=1e-9)


def test_cstr_objective_deterministic_and_noisy():
    noise = NoiseSpec(sigma=5.0)
    a = cstr_objective(HAND_TUNED, noise=noise, seed=7)
    b = cstr_objective(HAND_TUNED, noise=noise, seed=7)
    assert a == b
    assert a != cstr_objective(HAND_TUNED)
    assert cstr_objective(HAND_TUNED, noise=noise, seed=8) != a


def test_cstr_tuned_beats_zero_gains_across_seeds():
    noise = NoiseSpec(sigma=5.0)
    for seed in range(5):
        zero = cstr_objective(np.zeros(32), noise=noise, seed=seed)
        tuned = cstr_objective(HAND_TUNED, noise=noise, seed=seed)
        assert zero > tuned


def test_cstr_objective_finite_on_random_inputs():
    rng = np.random.default_rng(0)
    for _ in range(5):
        v = cstr_objective(rng.uniform(size=32))
        assert np.isfinite(v)


def _array_objective(theta, cfg=None):
    """cstr_objective built from the public array functions, as a reference."""
    cfg = cfg or load_defaults()["cstr"]
    p = CstrParams.from_config()
    gains = theta_to_gains(theta, cfg)
    lo = [cfg["flow_bounds"][0], cfg["coolant_bounds"][0]]
    hi = [cfg["flow_bounds"][1], cfg["coolant_bounds"][1]]
    dt = cfg["control_interval"]
    n_steps = int(round(cfg["horizon"] / dt))
    seg_len = n_steps // len(cfg["setpoints"])
    y = np.array(cfg["initial_state"], dtype=float)
    cost, u_prev = 0.0, None
    rhs = lambda s, c: cstr_rhs(s, c, p)  # noqa: E731
    for t in range(n_steps):
        seg = t // seg_len
        if t % seg_len == 0:
            e_int, e_prev, first = 0.0, 0.0, True
        e = cfg["setpoints"][seg] - y[2]
        e_int += e * dt
        e_der = 0.0 if first else (e - e_prev) / dt
        first = False
        u = pid_control(gains[seg], (e, e_int, e_der), lo, hi)
        cost += e * e
        if u_prev is not None:
            cost += cfg["control_change_weight"] * float(np.sum((u - u_prev) ** 2))
        u_prev, e_prev = u, e
        states, failed = integrate(rhs, y, [u], dt, dt, cfg["integrator_substeps"])
        assert not failed
        y = states[-1]
    return float(cost)


def _bits(values):
    return struct.pack(f"<{len(values)}d", *values)


def test_cstr_objective_matches_array_functions_bitwise():
    rng = np.random.default_rng(3)
    for theta in [HAND_TUNED, *rng.uniform(size=(3, 32))]:
        assert cstr_objective(theta) == _array_objective(theta)
    # the 64-point design DYCORS starts from, and corners where the PID
    # output clips at the actuator bounds
    design = latin_hypercube(Bounds.cube(0.0, 1.0, 32), 64, seed=0)
    corners = [np.zeros(32), np.ones(32), np.tile([0.0, 1.0], 16)]
    for theta in [*design, *corners]:
        assert _bits([cstr_objective(theta)]) == _bits([_array_objective(theta)])
    noise = NoiseSpec(sigma=5.0)
    for seed in (0, 1):
        draw = noise.sigma * float(substream(seed, "cstr-noise").standard_normal())
        want = _array_objective(HAND_TUNED) + draw
        assert _bits([cstr_objective(HAND_TUNED, noise=noise, seed=seed)]) == _bits([want])


def _with_cstr_config(monkeypatch, **changes):
    """Point cstr_objective at a copy of the defaults with ``changes`` applied."""
    cfg = copy.deepcopy(load_defaults())
    cfg["cstr"].update(changes)
    monkeypatch.setattr(cstr_module, "load_defaults", lambda: cfg)
    return cfg["cstr"]


def _counting_rates(monkeypatch):
    """Record every call of the single-stage kernel, as (inputs, outputs)."""
    calls = []
    real = cstr_module._rates

    def counted(params):
        rates = real(params)

        def wrapped(*args):
            out = rates(*args)
            calls.append((args, out))
            return out

        return wrapped

    monkeypatch.setattr(cstr_module, "_rates", counted)
    return calls


def _one_interval(monkeypatch, p, y0, biases):
    """The closed loop over one control interval from ``y0``: (value, final state, controls).

    Zero P, I and D gains leave the controls at the segment's ``biases``
    (unit-scaled, as in theta), which theta_to_gains maps to physical values.
    """
    cfg = load_defaults()["cstr"]
    cfg = _with_cstr_config(monkeypatch, horizon=cfg["control_interval"],
                            setpoints=cfg["setpoints"][:1], initial_state=list(y0))
    theta = np.zeros(32)
    theta[3], theta[7] = biases
    value, state = cstr_module._closed_loop(p)(theta)
    return value, state, theta_to_gains(theta, cfg)[0, :, 3]


def test_rk4_interval_matches_integrate_bitwise(monkeypatch):
    # the whole state, CB included: CB's last bits barely reach T, so the
    # objective alone would not see a reordered B balance
    p = CstrParams.from_config()
    rng = np.random.default_rng(11)
    rhs = lambda y, c: cstr_rhs(y, c, p)  # noqa: E731
    for _ in range(300):
        y0 = rng.uniform([0.0, 0.0, 300.0], [1.0, 1.0, 340.0])
        _, state, u = _one_interval(monkeypatch, p, y0, rng.uniform(size=2))
        assert np.all((u >= [97.0, 290.0]) & (u <= [105.0, 302.0]))
        states, failed = integrate(rhs, y0, [u], 0.1, 0.1, 3)
        assert not failed
        assert _bits(state) == _bits(states[-1])


def test_rk4_interval_fallback_matches_integrate_stage_by_stage(monkeypatch):
    # R * T == 0 makes the inline stage divide by zero: the substep is
    # recomputed through _rates, whose numpy fallback gives exp(-inf) = 0
    p = CstrParams.from_config()
    calls = _counting_rates(monkeypatch)
    dt, substeps = 0.1, 3
    _, got, u = _one_interval(monkeypatch, p, (0.5, 0.2, 0.0), (0.375, 0.75))
    assert u.tolist() == [100.0, 299.0]
    fallback = list(calls)
    assert len(fallback) == 4  # the first substep only; later stages have T > 0
    stages = []

    def rhs(y, c):
        stages.append(y.tolist())
        return cstr_rhs(y, c, p)

    states, failed = integrate(rhs, np.array([0.5, 0.2, 0.0]), [u], dt, dt, substeps)
    assert not failed
    for (args, out), y in zip(fallback, stages):
        assert _bits(args[:3]) == _bits(y)
        assert _bits(out) == _bits(cstr_rhs(np.array(y), u, p))
    assert _bits(got) == _bits(states[-1])


def test_rk4_interval_fallback_on_an_overflowing_factor(monkeypatch):
    # at T < 0, exp(-E / RT) overflows: math.exp raises, numpy gives inf,
    # and the substep's state turns non-finite, which scores the penalty
    p = CstrParams.from_config()
    calls = _counting_rates(monkeypatch)
    dt, substeps = 0.1, 3
    value, got, u = _one_interval(monkeypatch, p, (0.5, 0.2, -1.0), (0.375, 0.75))
    assert value == load_defaults()["cstr"]["failure_penalty"]
    assert len(calls) == 4
    y0 = np.array([0.5, 0.2, -1.0])
    assert calls[0][0][:3] == (0.5, 0.2, -1.0)
    assert np.array_equal(calls[0][1], cstr_rhs(y0, u, p), equal_nan=True)
    assert calls[0][1][0] == -np.inf
    # integrate over cstr_rhs stops at the second stage, whose state is not finite
    with pytest.raises(ConfigError, match="finite"):
        integrate(lambda y, c: cstr_rhs(y, c, p), y0, [u], dt, dt, substeps)
    assert not all(np.isfinite(got))


def test_cstr_objective_through_the_fallback(monkeypatch):
    # controls at the actuator floor: from T = 0 the reactor heats up and
    # the run stays finite; from T = -1 the first substep turns non-finite
    theta = np.zeros(32)
    cfg = _with_cstr_config(monkeypatch, initial_state=[0.877, 0.0, 0.0])
    calls = _counting_rates(monkeypatch)
    value = cstr_objective(theta)
    assert len(calls) == 4  # one substep took the fallback
    assert _bits([value]) == _bits([_array_objective(theta, cfg)])
    cfg = _with_cstr_config(monkeypatch, initial_state=[0.877, 0.0, -1.0])
    calls.clear()
    assert cstr_objective(theta) == float(cfg["failure_penalty"])
    assert len(calls) == 4


@pytest.mark.parametrize("substeps", [0, -1])
def test_cstr_objective_rejects_bad_integrator_substeps(monkeypatch, substeps):
    _with_cstr_config(monkeypatch, integrator_substeps=substeps)
    with pytest.raises(ConfigError, match="substeps"):
        cstr_objective(np.full(32, 0.5))


def test_cstr_objective_failure_penalty():
    # a heat of reaction this large runs the temperature away
    p = replace(CstrParams.from_config(), dH_AB=1e9)
    assert cstr_objective(np.zeros(32), params=p) == 1e6


def test_cstr_objective_penalizes_divergence_inside_a_stage():
    # the state turns non-finite inside an RK4 stage, not at an interval's end
    p = replace(CstrParams.from_config(), k0_AB=1e30, dH_AB=1e15)
    assert cstr_objective(np.zeros(32), params=p) == 1e6


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cstr_objective_rejects_non_finite_theta(bad):
    theta = np.full(32, 0.5)
    theta[5] = bad
    with pytest.raises(ConfigError, match="finite"):
        theta_to_gains(theta)
    with pytest.raises(ConfigError, match="finite"):
        cstr_objective(theta)


def test_theta_validation():
    with pytest.raises(ConfigError):
        theta_to_gains(np.zeros(31))
    gains = theta_to_gains(np.zeros(32))
    assert gains.shape == (4, 2, 4)
    assert np.array_equal(gains[0, :, 3], [97.0, 290.0])  # bias at actuator floor


def test_make_cstr_problem():
    prob = make_cstr_problem()
    assert prob.dim == 32
    assert prob.n_constraints == 0
    assert prob.noise.sigma == 5.0
    assert np.isfinite(prob.objective(np.full(32, 0.5)))


def test_cstr_problem_objective_matches_references_bitwise():
    # the loop make_cstr_problem binds once against the one cstr_objective
    # binds per call and the public array functions; the tracer files the
    # objective under the simulator layer by its module
    prob = make_cstr_problem()
    assert prob.objective.__module__ == "surropt.casestudies.cstr"
    design = latin_hypercube(Bounds.cube(0.0, 1.0, 32), 64, seed=0)
    corners = [np.zeros(32), np.ones(32), np.tile([0.0, 1.0], 16)]
    for theta in [*design, *corners]:
        value = prob.objective(theta)
        assert _bits([value]) == _bits([cstr_objective(theta)])
        assert _bits([value]) == _bits([_array_objective(theta)])


@pytest.mark.parametrize("changes, match", [
    ({"integrator_substeps": 0}, "substeps"),
    ({"integrator_substeps": -1}, "substeps"),
    ({"integrator_substeps": 2.5}, "substeps"),
    ({"horizon": 0.3}, "3 control intervals cannot hold 4 setpoints"),
])
def test_bad_cstr_config_refused_when_the_problem_is_built(monkeypatch, tmp_path, changes,
                                                          match):
    _with_cstr_config(monkeypatch, **changes)
    with pytest.raises(ConfigError, match=match):
        make_cstr_problem()
    # so a run refuses it while planning, before any file is written
    monkeypatch.setattr(bench, "_PLANNED", {})
    config = BenchmarkConfig(algorithms=["cobyla"], problems=["cstr-pid"], repetitions=1,
                             budgets={32: 40}, warmup={32: 5})
    with pytest.raises(ConfigError, match=match):
        bench.run_benchmark(config, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------- Williams-Otto


def test_wo_no_reaction_feed_split():
    p = replace(WoParams.from_config(), arrhenius_a=(0.0, 0.0, 0.0))
    T, FB = 350.0, 4.0
    F = p.feed_a + FB
    w = np.array([p.feed_a / F, FB / F, 0.0, 0.0, 0.0, 0.0])
    r = wo_residuals(w, (T, FB), p)
    assert np.allclose(r, 0.0, atol=1e-14)


def test_wo_residual_sum_is_total_mass_balance():
    p = WoParams.from_config()
    rng = np.random.default_rng(1)
    for _ in range(20):
        w = rng.uniform(0.0, 0.5, size=6)
        T = rng.uniform(*p.temperature_bounds)
        FB = rng.uniform(*p.feed_b_bounds)
        r = wo_residuals(w, (T, FB), p)
        total = p.feed_a + FB - (p.feed_a + FB) * w.sum()
        assert abs(r.sum() - total) <= 1e-12


def test_wo_residuals_same_bits_for_a_list_and_an_array():
    p = WoParams.from_config()
    rng = np.random.default_rng(2)
    for _ in range(50):
        w = rng.uniform(0.0, 0.5, size=6)
        inputs = (rng.uniform(*p.temperature_bounds), rng.uniform(*p.feed_b_bounds))
        from_list = wo_residuals(w.tolist(), inputs, p)
        assert from_list.dtype == np.float64
        assert _bits(from_list.tolist()) == _bits(wo_residuals(w, inputs, p).tolist())


def test_wo_solver_converges_and_conserves_mass():
    for T, FB in [(343.15, 3.0), (373.15, 6.0), (360.0, 4.5), (355.0, 5.5)]:
        w, ok = solve_wo(T, FB)
        assert ok
        assert np.max(np.abs(wo_residuals(w, (T, FB)))) < 1e-8
        assert abs(w.sum() - 1.0) <= 1e-10
        assert np.all(w >= -1e-12) and np.all(w <= 1.0)


def test_wo_solution_matches_frozen_point():
    w, ok = solve_wo(360.0, 4.5)
    assert ok
    frozen = [
        0.09995081574746786, 0.37739870123312114, 0.01808537788352205,
        0.28982963400696304, 0.10473098118816679, 0.11000448994075926,
    ]
    assert np.allclose(w, frozen, atol=1e-8)
    obj, g = wo_objective(360.0, 4.5)
    assert obj == pytest.approx(-189.54783351823562, rel=1e-8)
    assert np.allclose(g, [-0.020049184252532132, 0.024730981188166787], atol=1e-8)


def test_wo_matches_scipy_oracle():
    from scipy.optimize import fsolve

    p = WoParams.from_config()
    T, FB = 352.0, 5.0
    w, ok = solve_wo(T, FB, p)
    assert ok
    w_scipy = fsolve(
        lambda v: wo_residuals(v, (T, FB), p), np.full(6, 0.2), full_output=False
    )
    assert np.allclose(w, w_scipy, atol=1e-8)


def test_wo_profit_monotone_in_product_price():
    p = WoParams.from_config()
    obj_lo, _ = wo_objective(358.0, 4.0, p)
    obj_hi, _ = wo_objective(358.0, 4.0, replace(p, price_p=p.price_p + 10.0))
    assert -obj_hi > -obj_lo  # profit strictly rises with the product price


def test_wo_constraint_convention():
    g = wo_constraints(np.array([0.12, 0.3, 0.0, 0.3, 0.08, 0.2]))
    assert g[0] == pytest.approx(0.0, abs=1e-15)
    assert g[1] == pytest.approx(0.0, abs=1e-15)
    assert wo_constraints(np.array([0.13, 0, 0, 0, 0.05, 0]))[0] > 0


def test_wo_failure_path(monkeypatch):
    import surropt.casestudies.williams_otto as mod

    monkeypatch.setattr(mod, "solve_wo", lambda *a, **k: (np.full(6, np.nan), False))
    obj, g = wo_objective(360.0, 4.5)
    assert obj == 1e6
    assert np.array_equal(g, [1.0, 1.0])


def test_wo_singular_jacobian_is_a_failure(monkeypatch):
    # the simulator's defined failure outcome, reached through Newton's own exit
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    p = WoParams.from_config()
    monkeypatch.setattr(np.linalg, "solve", singular)
    assert solve_wo(360.0, 4.5, p)[1] is False
    obj, g = wo_objective(360.0, 4.5, p)
    assert obj == p.failure_penalty
    assert np.array_equal(g, [1.0, 1.0])


def test_wo_newton_out_of_iterations_is_a_failure(monkeypatch):
    # no residual is below a zero tolerance, so Newton stops after 200 steps
    solves, solve = [], np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda J, r: solves.append(1) or solve(J, r))
    p = replace(WoParams.from_config(), residual_tolerance=0.0)
    assert solve_wo(360.0, 4.5, p)[1] is False
    assert len(solves) == 200
    obj, g = wo_objective(360.0, 4.5, p)
    assert obj == p.failure_penalty
    assert np.array_equal(g, [1.0, 1.0])


def test_wo_newton_converges_over_the_box():
    # solve_wo has one path, damped Newton from the feed split; if changed
    # constants ever need a fallback, a point of this grid fails
    p = WoParams.from_config()
    for T in np.linspace(*p.temperature_bounds, 21):
        for FB in np.linspace(*p.feed_b_bounds, 21):
            w, ok = solve_wo(T, FB, p)
            assert ok, (T, FB)
            assert np.max(np.abs(wo_residuals(w, (T, FB), p))) < p.residual_tolerance
            assert wo_objective(T, FB, p)[0] != p.failure_penalty


def test_wo_problem_solves_once_per_evaluation(monkeypatch):
    import surropt.casestudies.williams_otto as mod

    calls = []

    def counted(T, FB, params=None):
        calls.append((T, FB))
        return wo_objective(T, FB, params)

    monkeypatch.setattr(mod, "wo_objective", counted)
    prob = make_williams_otto_problem()
    rng = np.random.default_rng(0)
    xs = [np.array([355.0, 4.0]), np.array([360.0, 4.5]), np.array([360.0, 4.5])]
    traj = Trajectory(budget=3, dim=2, n_constraints=prob.n_constraints)
    for x in xs:
        evaluate(prob, x, rng, traj)
    assert calls == [(355.0, 4.0), (360.0, 4.5)]  # the repeated x is not solved again
    assert traj.ys[1] == traj.ys[2] and np.array_equal(traj.gs[1], traj.gs[2])
    assert traj.ys[0] == wo_objective(355.0, 4.0)[0]


def test_make_williams_otto_problem():
    prob = make_williams_otto_problem()
    assert prob.n_constraints == 2
    x = np.array([360.0, 4.5])
    assert prob.objective(x) == pytest.approx(-189.54783351823562, rel=1e-8)
    assert prob.constraints(x).shape == (2,)
    assert prob.bounds.lower[0] == 343.15 and prob.bounds.upper[1] == 6.0


def _leaves(node, path=()):
    """(path, value) of every scalar in a nest of dicts and lists."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path, node


def test_defaults_config_loads():
    cfg = load_defaults()
    assert set(cfg) == {"cstr", "williams_otto"}
    assert cfg["cstr"]["gas_constant"] == 8.314462618
    assert len(cfg["cstr"]["setpoints"]) == 4
    # YAML 1.1 reads an exponent without a sign (1.0e6) as a string
    leaves = list(_leaves(cfg))
    assert len(leaves) > 40
    for path, value in leaves:
        assert type(value) in (int, float), (path, value)
    assert cfg["cstr"]["failure_penalty"] == 1.0e6
    assert cfg["cstr"]["k0_ab"] == 7.2e10 and cfg["cstr"]["k0_bc"] == 8.2e10
    assert cfg["williams_otto"]["arrhenius_a"] == [1.6599e6, 7.2117e8, 2.6745e12]
    assert cfg["williams_otto"]["failure_penalty"] == 1.0e6
