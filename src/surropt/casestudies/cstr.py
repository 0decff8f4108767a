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
    feed contains A only.
    """
    if isinstance(state, CstrState):
        CA, CB, T = state.CA, state.CB, state.T
    else:
        state = np.asarray(state, dtype=float)
        if state.shape != (3,) or not np.all(np.isfinite(state)):
            raise ConfigError("state must be 3 finite values (CA, CB, T)")
        CA, CB, T = state
    Fin, Tc = float(controls[0]), float(controls[1])
    p = params or CstrParams.from_config()
    rA = p.k0_AB * np.exp(-p.E_AB / (p.R * T)) * CA
    rB = p.k0_BC * np.exp(-p.E_BC / (p.R * T)) * CB
    dCA = (Fin / p.V) * (p.CAf - CA) - rA
    dCB = -(Fin / p.V) * CB + rA - rB
    dT = (
        (Fin / p.V) * (p.Tf - T)
        + (p.dH_AB / (p.rho * p.Cp)) * rA
        + (p.dH_BC / (p.rho * p.Cp)) * rB
        + (p.UA / (p.V * p.rho * p.Cp)) * (Tc - T)
    )
    return np.array([dCA, dCB, dT])


def _rk4_steps(rhs, y, u, h, n):
    for _ in range(n):
        k1 = rhs(y, u)
        k2 = rhs(y + h / 2 * k1, u)
        k3 = rhs(y + h / 2 * k2, u)
        k4 = rhs(y + h * k3, u)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def integrate(rhs, state0, controls_schedule, dt, horizon, substeps=1):
    """Fixed-step classical RK4 under a piecewise-constant control schedule.

    ``controls_schedule`` holds one control vector per interval of length
    ``dt``; ``horizon`` must equal ``len(schedule) * dt``. Returns
    ``(states, failed)`` where states has one row per interval boundary.
    A state that goes non-finite or exceeds 1e6 in magnitude truncates the
    trajectory with ``failed=True``.
    """
    if dt <= 0:
        raise ConfigError("dt must be > 0")
    schedule = np.atleast_2d(np.asarray(controls_schedule, dtype=float))
    n_steps = schedule.shape[0]
    if abs(n_steps * dt - horizon) > 1e-9 * max(1.0, abs(horizon)):
        raise ConfigError("horizon must equal len(controls_schedule) * dt")
    y = state0.as_array() if isinstance(state0, CstrState) else np.asarray(
        state0, dtype=float
    ).copy()
    states = [y.copy()]
    for k in range(n_steps):
        y = _rk4_steps(rhs, y, schedule[k], dt / substeps, substeps)
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
    t = theta.reshape(4, 2, 4)
    scales = np.asarray(cfg["gain_scales"], dtype=float)
    lo = np.array([cfg["flow_bounds"][0], cfg["coolant_bounds"][0]])
    hi = np.array([cfg["flow_bounds"][1], cfg["coolant_bounds"][1]])
    gains = np.empty_like(t)
    gains[:, :, :3] = t[:, :, :3] * scales
    gains[:, :, 3] = lo + t[:, :, 3] * (hi - lo)
    return gains


def cstr_objective(theta, noise: NoiseSpec | None = None, seed: int = 0,
                   params: CstrParams | None = None) -> float:
    """Closed-loop cost of one PID parameterization.

    Simulates the setpoint schedule and returns sum(e_t^2) plus the weighted
    sum of squared control moves; a diverged simulation yields the configured
    finite penalty instead. With ``noise`` given, one Gaussian draw from
    ``substream(seed, "cstr-noise")`` is added. Deterministic in
    (theta, seed).
    """
    cfg = load_defaults()["cstr"]
    p = params or CstrParams.from_config()
    gains = theta_to_gains(theta, cfg)
    lo = np.array([cfg["flow_bounds"][0], cfg["coolant_bounds"][0]])
    hi = np.array([cfg["flow_bounds"][1], cfg["coolant_bounds"][1]])
    setpoints = cfg["setpoints"]
    dt = float(cfg["control_interval"])
    substeps = int(cfg["integrator_substeps"])
    lam = float(cfg["control_change_weight"])
    n_steps = int(round(float(cfg["horizon"]) / dt))
    seg_len = n_steps // len(setpoints)

    y = np.asarray(cfg["initial_state"], dtype=float).copy()
    cost = 0.0
    u_prev = None
    e_prev = e_int = 0.0
    first = True
    failed = False
    for t in range(n_steps):
        seg = min(t // seg_len, len(setpoints) - 1)
        if t % seg_len == 0:
            e_int, e_prev, first = 0.0, 0.0, True  # PID memory reset per segment
        e = setpoints[seg] - y[2]
        e_int += e * dt
        e_der = 0.0 if first else (e - e_prev) / dt
        first = False
        u = pid_control(gains[seg], (e, e_int, e_der), lo, hi)
        cost += e * e
        if u_prev is not None:
            cost += lam * float(np.sum((u - u_prev) ** 2))
        u_prev = u
        e_prev = e
        y = _rk4_steps(lambda s, c: cstr_rhs(s, c, p), y, u, dt / substeps, substeps)
        if not np.all(np.isfinite(y)) or y[0] < -1e-9 or y[1] < -1e-9 or abs(y[2]) > 1e6:
            failed = True
            break
    value = float(cfg["failure_penalty"]) if failed else cost
    if noise is not None and noise.sigma > 0:
        value += noise.sigma * float(substream(seed, "cstr-noise").standard_normal())
    return float(value)


def make_cstr_problem() -> Problem:
    """The 32-dimensional PID tuning problem over the unit cube."""
    sigma = float(load_defaults()["cstr"]["noise_sigma"])
    params = CstrParams.from_config()
    return Problem(
        name="cstr-pid",
        bounds=Bounds.cube(0.0, 1.0, 32),
        objective=lambda theta: cstr_objective(theta, params=params),
        noise=NoiseSpec(sigma=sigma),
    )
