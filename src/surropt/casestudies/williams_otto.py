"""Steady-state Williams-Otto reactor.

Two pure feeds A and B react through A+B -> C, B+C -> P+E, C+P -> G in a
perfectly mixed vessel of fixed mass holdup. Decision variables are the
reactor temperature and the B feed rate; profit is product revenue minus
feed cost, constrained by outlet limits on unreacted A and waste G.
Constants come from ``defaults.yaml``; see the provenance comments there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core import Bounds, Problem
from .cstr import load_defaults

__all__ = [
    "WoParams",
    "wo_residuals",
    "wo_constraints",
    "solve_wo",
    "wo_objective",
    "make_williams_otto_problem",
]


@dataclass(frozen=True)
class WoParams:
    feed_a: float
    holdup: float
    arrhenius_a: tuple
    arrhenius_b: tuple
    price_p: float
    price_e: float
    cost_a: float
    cost_b: float
    w_a_max: float
    w_g_max: float
    temperature_bounds: tuple
    feed_b_bounds: tuple
    residual_tolerance: float
    failure_penalty: float

    @staticmethod
    def from_config(cfg: dict | None = None) -> "WoParams":
        cfg = cfg or load_defaults()["williams_otto"]
        return WoParams(
            feed_a=float(cfg["feed_a"]),
            holdup=float(cfg["holdup"]),
            arrhenius_a=tuple(float(v) for v in cfg["arrhenius_a"]),
            arrhenius_b=tuple(float(v) for v in cfg["arrhenius_b"]),
            price_p=float(cfg["price_p"]),
            price_e=float(cfg["price_e"]),
            cost_a=float(cfg["cost_a"]),
            cost_b=float(cfg["cost_b"]),
            w_a_max=float(cfg["w_a_max"]),
            w_g_max=float(cfg["w_g_max"]),
            temperature_bounds=tuple(float(v) for v in cfg["temperature_bounds"]),
            feed_b_bounds=tuple(float(v) for v in cfg["feed_b_bounds"]),
            residual_tolerance=float(cfg["residual_tolerance"]),
            failure_penalty=float(cfg["failure_penalty"]),
        )


def wo_residuals(w, inputs, params: WoParams | None = None) -> np.ndarray:
    """Component mass-balance residuals (kg/s) for (A, B, C, E, G, P).

    ``w`` holds the six outlet mass fractions and ``inputs`` the operating
    point (T_R, M_B_in). Mass-basis stoichiometry: reaction 1 turns 1 kg A +
    1 kg B into 2 kg C, reaction 2 turns 1 kg B + 2 kg C into 2 kg E + 1 kg
    P, reaction 3 turns 1 kg C + 0.5 kg P into 1.5 kg G. Zero residual
    defines the steady state. The fractions are read as Python floats, so an
    array and a list of the same values give the same bits.
    """
    p = params or WoParams.from_config()
    T, FB = float(inputs[0]), float(inputs[1])
    xA, xB, xC, xE, xG, xP = np.asarray(w, dtype=float).tolist()
    FA = p.feed_a
    F = FA + FB
    W = p.holdup
    a, b = p.arrhenius_a, p.arrhenius_b
    k1 = a[0] * math.exp(-b[0] / T)
    k2 = a[1] * math.exp(-b[1] / T)
    k3 = a[2] * math.exp(-b[2] / T)
    r1 = k1 * xA * xB * W
    r2 = k2 * xB * xC * W
    r3 = k3 * xC * xP * W
    return np.array([
        FA - F * xA - r1,
        FB - F * xB - r1 - r2,
        -F * xC + 2 * r1 - 2 * r2 - r3,
        -F * xE + 2 * r2,
        -F * xG + 1.5 * r3,
        -F * xP + r2 - 0.5 * r3,
    ])


def wo_constraints(w, params: WoParams | None = None) -> np.ndarray:
    """Outlet-quality constraints in the g <= 0 convention."""
    p = params or WoParams.from_config()
    w = np.asarray(w, dtype=float)
    return np.array([w[0] - p.w_a_max, w[4] - p.w_g_max])


def _newton(w0, T, FB, params, tol):
    w = w0.copy()
    for _ in range(200):
        r = wo_residuals(w, (T, FB), params)
        if np.max(np.abs(r)) < tol:
            return w, True
        J = np.zeros((6, 6))
        for j in range(6):
            d = np.zeros(6)
            d[j] = 1e-8
            J[:, j] = (
                wo_residuals(w + d, (T, FB), params)
                - wo_residuals(w - d, (T, FB), params)
            ) / 2e-8
        try:
            step = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:
            return w, False
        alpha, r0 = 1.0, np.max(np.abs(r))
        while alpha > 1e-4:
            if np.max(np.abs(wo_residuals(w + alpha * step, (T, FB), params))) < r0:
                break
            alpha *= 0.5
        w = w + alpha * step
    return w, bool(np.max(np.abs(wo_residuals(w, (T, FB), params))) < tol)


def solve_wo(T_R: float, M_B_in: float, params: WoParams | None = None):
    """Outlet mass fractions at steady state; returns (w, converged).

    Damped Newton from the no-reaction feed split, the one solve path.
    ``converged`` is False when it stops short of the residual tolerance
    (200 iterations, or a singular Jacobian); :func:`wo_objective` then
    scores the failure penalty.
    """
    p = params or WoParams.from_config()
    F = p.feed_a + M_B_in
    w0 = np.array([p.feed_a / F, M_B_in / F, 0.0, 0.0, 0.0, 0.0])
    return _newton(w0, T_R, M_B_in, p, p.residual_tolerance)


def wo_objective(T_R: float, M_B_in: float, params: WoParams | None = None):
    """Negated profit and constraint values at one operating point.

    Returns ``(-profit, g)`` with g = (w_A - w_A_max, w_G - w_G_max); solver
    failure yields the finite failure penalty with g = (1, 1).
    """
    p = params or WoParams.from_config()
    w, ok = solve_wo(T_R, M_B_in, p)
    if not ok:
        return p.failure_penalty, np.array([1.0, 1.0])
    F = p.feed_a + M_B_in
    profit = (
        p.price_p * w[5] * F
        + p.price_e * w[3] * F
        - p.cost_a * p.feed_a
        - p.cost_b * M_B_in
    )
    return -profit, wo_constraints(w, p)


def make_williams_otto_problem() -> Problem:
    p = WoParams.from_config()
    last = [None, None]  # the latest (T_R, M_B_in) and its solve: f, then g, at one x

    def solved(x):
        key = (float(x[0]), float(x[1]))
        if last[0] != key:
            last[:] = key, wo_objective(key[0], key[1], p)
        return last[1]

    return Problem(
        name="williams-otto",
        bounds=Bounds(
            np.array([p.temperature_bounds[0], p.feed_b_bounds[0]]),
            np.array([p.temperature_bounds[1], p.feed_b_bounds[1]]),
        ),
        objective=lambda x: solved(x)[0],
        constraints=lambda x: solved(x)[1],
        n_constraints=2,
    )
