"""Dynamic CSTR with gain-scheduled PID control.

A jacketed reactor runs the series reactions A -> B -> C while a PID
controller drives the reactor temperature through a four-step setpoint
schedule by manipulating the inlet flow and the coolant temperature. The
32 decision variables are unit-scaled: 4 setpoint segments x 2 manipulated
variables x (Kp, Ki, Kd, bias). The objective is the summed squared
temperature error plus a small penalty on control moves, observed with
Gaussian noise.

All defaults live in ``defaults.yaml`` next to this module.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np
import yaml

from ..core import Bounds, ConfigError, NoiseSpec, Problem, substream

__all__ = [
    "CstrParams",
    "CstrState",
    "load_defaults",
    "cstr_rhs",
    "integrate",
    "pid_control",
    "theta_to_gains",
    "cstr_objective",
    "make_cstr_problem",
]


@lru_cache(maxsize=1)
def load_defaults() -> dict:
    """Read the case-study default config shipped with the package."""
    text = resources.files("surropt.casestudies").joinpath("defaults.yaml").read_text()
    return yaml.safe_load(text)


@dataclass(frozen=True)
class CstrParams:
    """Physical constants of the reactor model (time unit: minutes)."""

    V: float
    rho: float
    Cp: float
    UA: float
    Tf: float
    CAf: float
    dH_AB: float
    dH_BC: float
    E_AB: float
    E_BC: float
    k0_AB: float
    k0_BC: float
    R: float

    def __post_init__(self):
        for name in ("V", "rho", "Cp", "Tf", "CAf", "R"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"CstrParams.{name} must be > 0")
        for name in ("UA", "E_AB", "E_BC", "k0_AB", "k0_BC"):
            if getattr(self, name) < 0:
                raise ConfigError(f"CstrParams.{name} must be >= 0")

    @staticmethod
    def from_config(cfg: dict | None = None) -> "CstrParams":
        cfg = cfg or load_defaults()["cstr"]
        R = float(cfg["gas_constant"])
        return CstrParams(
            V=float(cfg["volume"]),
            rho=float(cfg["density"]),
            Cp=float(cfg["heat_capacity"]),
            UA=float(cfg["ua"]),
            Tf=float(cfg["feed_temperature"]),
            CAf=float(cfg["feed_concentration"]),
            dH_AB=float(cfg["dh_ab"]),
            dH_BC=float(cfg["dh_bc"]),
            E_AB=float(cfg["e_over_r_ab"]) * R,
            E_BC=float(cfg["e_over_r_bc"]) * R,
            k0_AB=float(cfg["k0_ab"]),
            k0_BC=float(cfg["k0_bc"]),
            R=R,
        )


@dataclass(frozen=True)
class CstrState:
    """Reactor contents: concentrations of A and B plus temperature."""

    CA: float
    CB: float
    T: float

    def __post_init__(self):
        vals = (self.CA, self.CB, self.T)
        if not all(math.isfinite(v) for v in vals):
            raise ConfigError("CstrState requires finite values")
        if self.CA < 0 or self.CB < 0 or self.T <= 0:
            raise ConfigError("CstrState requires CA, CB >= 0 and T > 0")

    def as_array(self) -> np.ndarray:
        return np.array([self.CA, self.CB, self.T])


def cstr_rhs(state, controls, params: CstrParams | None = None) -> np.ndarray:
    """Time derivatives (dCA/dt, dCB/dt, dT/dt) at ``state`` under ``controls``.

    ``state`` is a :class:`CstrState` or a length-3 array (CA, CB, T);
    ``controls`` is (F_in, T_c). The B balance has no feed term because the
    feed contains A only. The equations are :func:`cstr_objective`'s
    kernel, with ``math.exp`` for the Arrhenius factors (see ``_rates``).
    """
    if isinstance(state, CstrState):
        CA, CB, T = state.CA, state.CB, state.T
    else:
        state = np.asarray(state, dtype=float)
        if state.shape != (3,) or not np.all(np.isfinite(state)):
            raise ConfigError("state must be 3 finite values (CA, CB, T)")
        CA, CB, T = state.tolist()
    Fin, Tc = float(controls[0]), float(controls[1])
    return np.array(_rates(params or CstrParams.from_config())(CA, CB, T, Fin, Tc))


def _rates(p: CstrParams):
    """The balance equations on Python floats, bound to ``p``.

    Returns ``rates(CA, CB, T, Fin, Tc) -> (dCA/dt, dCB/dt, dT/dt)``. The
    constants are read from ``p`` once per call of ``_rates``, and the
    three constant quotients of the energy balance are computed once; each
    is the same expression whether hoisted or not, so it has the same bits.

    Each Arrhenius factor goes through ``math.exp``: a scalar ``np.exp``
    call costs more than the rest of the kernel. ``np.exp`` was kept only
    so that objective values would not move: ``math.exp`` rounds some
    arguments differently in the last bit, and neither is the same on
    every platform. A state with ``R * T == 0``, or one whose factor
    overflows (T < 0), takes numpy's division and exponential instead
    (±inf or nan, as an array state would), since float division by zero
    and ``math.exp`` overflow raise.

    :func:`cstr_rhs` and :func:`_closed_loop`'s fallback call this kernel;
    :func:`_closed_loop` also writes it out inline in each RK4 stage.
    ``test_rk4_interval_matches_integrate_bitwise`` (the whole state) and
    ``test_cstr_objective_matches_array_functions_bitwise`` (the objective)
    pin the two copies together bit for bit.
    """
    R, E_AB, E_BC, k0_AB, k0_BC = p.R, p.E_AB, p.E_BC, p.k0_AB, p.k0_BC
    V, CAf, Tf = p.V, p.CAf, p.Tf
    heat_AB = p.dH_AB / (p.rho * p.Cp)
    heat_BC = p.dH_BC / (p.rho * p.Cp)
    jacket = p.UA / (p.V * p.rho * p.Cp)
    exp = math.exp

    def rates(CA, CB, T, Fin, Tc):
        RT = R * T
        try:
            eA, eB = exp(-E_AB / RT), exp(-E_BC / RT)
        except (ZeroDivisionError, OverflowError):
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                eA, eB = (float(np.exp(np.divide(-E_AB, RT))),
                          float(np.exp(np.divide(-E_BC, RT))))
        rA = k0_AB * eA * CA
        rB = k0_BC * eB * CB
        q = Fin / V
        dCA = q * (CAf - CA) - rA
        dCB = -q * CB + rA - rB
        dT = q * (Tf - T) + heat_AB * rA + heat_BC * rB + jacket * (Tc - T)
        return dCA, dCB, dT

    return rates


def _check_substeps(substeps) -> int:
    """``substeps`` as an int, or :class:`ConfigError` unless an integer >= 1."""
    if not isinstance(substeps, numbers.Integral) or substeps < 1:
        raise ConfigError(f"substeps must be an integer >= 1, got {substeps!r}")
    return int(substeps)


def integrate(rhs, state0, controls_schedule, dt, horizon, substeps=1):
    """Fixed-step classical RK4 under a piecewise-constant control schedule.

    ``controls_schedule`` holds one control vector per interval of length
    ``dt``; ``horizon`` must equal ``len(schedule) * dt``. Returns
    ``(states, failed)`` where states has one row per interval boundary.
    A state that goes non-finite or exceeds 1e6 in magnitude truncates the
    trajectory with ``failed=True``. ``substeps`` must be an integer >= 1
    (:class:`ConfigError` otherwise).
    """
    if dt <= 0:
        raise ConfigError("dt must be > 0")
    substeps = _check_substeps(substeps)
    schedule = np.atleast_2d(np.asarray(controls_schedule, dtype=float))
    n_steps = schedule.shape[0]
    if abs(n_steps * dt - horizon) > 1e-9 * max(1.0, abs(horizon)):
        raise ConfigError("horizon must equal len(controls_schedule) * dt")
    y = state0.as_array() if isinstance(state0, CstrState) else np.asarray(
        state0, dtype=float
    ).copy()
    h = dt / substeps
    states = [y.copy()]
    for u in schedule:
        for _ in range(substeps):
            k1 = rhs(y, u)
            k2 = rhs(y + h / 2 * k1, u)
            k3 = rhs(y + h / 2 * k2, u)
            k4 = rhs(y + h * k3, u)
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not (np.all(np.isfinite(y)) and np.max(np.abs(y)) < 1e6):
            return np.array(states), True
        states.append(y.copy())
    return np.array(states), False


def pid_control(gains, error_history, u_lower, u_upper) -> np.ndarray:
    """Controls for one segment: u = bias + Kp e + Ki int(e) + Kd de/dt.

    ``gains`` is (n_mv, 4) rows of physical (Kp, Ki, Kd, bias);
    ``error_history`` is the triple (e, integral of e, de/dt). The result is
    clipped to the actuator box.
    """
    gains = np.atleast_2d(np.asarray(gains, dtype=float))
    e, e_int, e_der = (float(v) for v in error_history)
    u = gains[:, 3] + gains[:, 0] * e + gains[:, 1] * e_int + gains[:, 2] * e_der
    return np.clip(u, u_lower, u_upper)


def theta_to_gains(theta, cfg: dict | None = None) -> np.ndarray:
    """Map unit-scaled theta (32,) to physical gains (4, 2, 4)."""
    cfg = cfg or load_defaults()["cstr"]
    theta = np.asarray(theta, dtype=float).ravel()
    if theta.size != 32:
        raise ConfigError(f"theta must have length 32, got {theta.size}")
    if not np.all(np.isfinite(theta)):
        raise ConfigError("theta must be finite")
    t = theta.reshape(4, 2, 4)
    scales = np.asarray(cfg["gain_scales"], dtype=float)
    lo = np.array([cfg["flow_bounds"][0], cfg["coolant_bounds"][0]])
    hi = np.array([cfg["flow_bounds"][1], cfg["coolant_bounds"][1]])
    gains = np.empty_like(t)
    gains[:, :, :3] = t[:, :, :3] * scales
    gains[:, :, 3] = lo + t[:, :, 3] * (hi - lo)
    return gains


def _closed_loop(params: CstrParams | None = None):
    """:func:`cstr_objective`'s closed loop, bound once to the config and ``params``.

    Returns ``run(theta) -> (value, (CA, CB, T))``: the cost, or the failure
    penalty once the state diverges, and the final state. A bad
    ``integrator_substeps``, or fewer control intervals than setpoints, raises
    :class:`ConfigError` here, and ``run`` whatever :func:`theta_to_gains` refuses.

    ``run`` goes one setpoint segment at a time on Python floats, with the gains
    of :func:`theta_to_gains` and each RK4 stage written out as :func:`_rates`'
    expressions in the same order (``-E / RT`` read as ``(-E) / RT``, ``-q * CB``
    as ``(-q) * CB``, :func:`integrate`'s ``2`` as ``2.0``), so every stage has
    the same bits. A substep that divides by ``R * T == 0`` or overflows
    ``math.exp`` is recomputed through ``_rates``, whose numpy fallback gives
    ±inf or nan as an array state would.
    """
    cfg = load_defaults()["cstr"]
    p = params or CstrParams.from_config()
    rates = _rates(p)
    substeps = _check_substeps(cfg["integrator_substeps"])
    dt = float(cfg["control_interval"])
    h = dt / substeps
    h2, h6 = h / 2, h / 6
    R, nE_AB, nE_BC, k0_AB, k0_BC = p.R, -p.E_AB, -p.E_BC, p.k0_AB, p.k0_BC
    V, CAf, Tf = p.V, p.CAf, p.Tf
    heat_AB = p.dH_AB / (p.rho * p.Cp)
    heat_BC = p.dH_BC / (p.rho * p.Cp)
    jacket = p.UA / (p.V * p.rho * p.Cp)
    (lo0, hi0), (lo1, hi1) = ([float(v) for v in cfg[key]]
                              for key in ("flow_bounds", "coolant_bounds"))
    lam, penalty = float(cfg["control_change_weight"]), float(cfg["failure_penalty"])
    CA0, CB0, T0 = (float(v) for v in cfg["initial_state"])
    setpoints = [float(v) for v in cfg["setpoints"]]
    n_steps = int(round(float(cfg["horizon"]) / dt))
    seg_len = n_steps // len(setpoints)
    if seg_len < 1:
        raise ConfigError(f"{n_steps} control intervals cannot hold {len(setpoints)} setpoints")
    # (intervals, setpoint index): the PID memory resets every seg_len
    # intervals, and a remainder keeps the last setpoint and gains
    segments = [(min(seg_len, n_steps - start), min(k, len(setpoints) - 1))
                for k, start in enumerate(range(0, n_steps, seg_len))]
    exp, inf = math.exp, math.inf

    def run(theta):
        gains = theta_to_gains(theta, cfg).tolist()
        CA, CB, T, cost = CA0, CB0, T0, 0.0
        Fin_prev = Tc_prev = None
        for n_intervals, j in segments:
            (kp0, ki0, kd0, u0), (kp1, ki1, kd1, u1) = gains[j]
            sp = setpoints[j]
            e_int = e_prev = 0.0
            for i in range(n_intervals):
                e = sp - T
                e_int += e * dt
                e_der = (e - e_prev) / dt if i else 0.0
                e_prev = e
                # pid_control per manipulated variable; its np.clip keeps a NaN
                Fin = u0 + kp0 * e + ki0 * e_int + kd0 * e_der
                Fin = lo0 if Fin < lo0 else hi0 if Fin > hi0 else Fin
                Tc = u1 + kp1 * e + ki1 * e_int + kd1 * e_der
                Tc = lo1 if Tc < lo1 else hi1 if Tc > hi1 else Tc
                cost += e * e
                if Fin_prev is not None:
                    d0, d1 = Fin - Fin_prev, Tc - Tc_prev
                    cost += lam * (d0 * d0 + d1 * d1)
                Fin_prev, Tc_prev = Fin, Tc
                q = Fin / V
                nq = -q
                for _ in range(substeps):
                    try:
                        RT = R * T
                        rA = k0_AB * exp(nE_AB / RT) * CA
                        rB = k0_BC * exp(nE_BC / RT) * CB
                        a1 = q * (CAf - CA) - rA
                        b1 = nq * CB + rA - rB
                        c1 = q * (Tf - T) + heat_AB * rA + heat_BC * rB + jacket * (Tc - T)
                        x, y, z = CA + h2 * a1, CB + h2 * b1, T + h2 * c1
                        RT = R * z
                        rA = k0_AB * exp(nE_AB / RT) * x
                        rB = k0_BC * exp(nE_BC / RT) * y
                        a2 = q * (CAf - x) - rA
                        b2 = nq * y + rA - rB
                        c2 = q * (Tf - z) + heat_AB * rA + heat_BC * rB + jacket * (Tc - z)
                        x, y, z = CA + h2 * a2, CB + h2 * b2, T + h2 * c2
                        RT = R * z
                        rA = k0_AB * exp(nE_AB / RT) * x
                        rB = k0_BC * exp(nE_BC / RT) * y
                        a3 = q * (CAf - x) - rA
                        b3 = nq * y + rA - rB
                        c3 = q * (Tf - z) + heat_AB * rA + heat_BC * rB + jacket * (Tc - z)
                        x, y, z = CA + h * a3, CB + h * b3, T + h * c3
                        RT = R * z
                        rA = k0_AB * exp(nE_AB / RT) * x
                        rB = k0_BC * exp(nE_BC / RT) * y
                        a4 = q * (CAf - x) - rA
                        b4 = nq * y + rA - rB
                        c4 = q * (Tf - z) + heat_AB * rA + heat_BC * rB + jacket * (Tc - z)
                    except (ZeroDivisionError, OverflowError):
                        a1, b1, c1 = rates(CA, CB, T, Fin, Tc)
                        a2, b2, c2 = rates(CA + h2 * a1, CB + h2 * b1, T + h2 * c1, Fin, Tc)
                        a3, b3, c3 = rates(CA + h2 * a2, CB + h2 * b2, T + h2 * c2, Fin, Tc)
                        a4, b4, c4 = rates(CA + h * a3, CB + h * b3, T + h * c3, Fin, Tc)
                    CA = CA + h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
                    CB = CB + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                    T = T + h6 * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
                # a non-finite RK4 stage leaves a non-finite state, so this catches it
                if not (-1e-9 <= CA < inf and -1e-9 <= CB < inf and -1e6 <= T <= 1e6):
                    return penalty, (CA, CB, T)
        return cost, (CA, CB, T)

    return run


def cstr_objective(theta, noise: NoiseSpec | None = None, seed: int = 0,
                   params: CstrParams | None = None) -> float:
    """Closed-loop cost of one PID parameterization.

    Simulates the setpoint schedule and returns sum(e_t^2) plus the weighted
    sum of squared control moves. A diverged simulation yields the
    configured finite penalty instead: a state that turns non-finite, even
    inside an RK4 stage, or one with CA or CB below -1e-9 or |T| above 1e6
    at a control interval's end. Non-finite ``theta`` raises
    :class:`ConfigError`. With ``noise`` given, one Gaussian draw from
    ``substream(seed, "cstr-noise")`` is added. Deterministic in
    (theta, seed).

    Each call binds :func:`_closed_loop` to the config as read now. It gives
    the same bits as :func:`pid_control` plus :func:`integrate` over
    :func:`cstr_rhs`; ``test_cstr_objective_matches_array_functions_bitwise``
    checks that on a 64-point Latin hypercube, corner thetas and the noisy path.
    """
    value = _closed_loop(params)(theta)[0]
    if noise is not None and noise.sigma > 0:
        value += noise.sigma * float(substream(seed, "cstr-noise").standard_normal())
    return float(value)


def make_cstr_problem() -> Problem:
    """The 32-dimensional PID tuning problem over the unit cube.

    Its objective is :func:`cstr_objective`'s loop, bound once here, so a bad
    config is refused when the problem is built.
    """
    run = _closed_loop()
    return Problem(
        name="cstr-pid",
        bounds=Bounds.cube(0.0, 1.0, 32),
        objective=lambda theta: run(theta)[0],
        noise=NoiseSpec(sigma=float(load_defaults()["cstr"]["noise_sigma"])),
    )
