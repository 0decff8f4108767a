"""Synthetic benchmark problems and the string-keyed problem registry.

Four unconstrained test functions (Ackley, Levy, Rosenbrock, and an
ill-conditioned quadratic), all with global minimum 0 on [-5, 5]^n_x, plus
three 2-D constrained problems sharing the g(x) <= 0 convention with a
violation threshold of 0.001. Registry keys follow "<name>-d<dim>" for the
unconstrained family (e.g. "ackley-d5"), "<name>-c" for the constrained one,
and plain names for the case studies ("cstr-pid", "williams-otto").
"""

from __future__ import annotations

import difflib
import math
from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from .core import Bounds, ConfigError, NoiseSpec, Problem

__all__ = [
    "ackley",
    "levy",
    "rosenbrock",
    "quadratic_ill",
    "TestFunctionSpec",
    "ConstrainedProblemSpec",
    "constrained_suite",
    "get_problem",
    "list_problems",
    "VIOLATION_THRESHOLD",
]

VIOLATION_THRESHOLD = 0.001


def ackley(x, a: float = 20.0, b: float = 0.2, c: float = 2.0 * math.pi) -> float:
    x = np.asarray(x, dtype=float)
    n = x.size
    term1 = -a * math.exp(-b * math.sqrt(np.sum(x**2) / n))
    term2 = -math.exp(np.sum(np.cos(c * x)) / n)
    return term1 + term2 + a + math.e


def levy(x) -> float:
    x = np.asarray(x, dtype=float)
    w = 1.0 + (x - 1.0) / 4.0
    head = math.sin(math.pi * w[0]) ** 2
    body = np.sum((w[:-1] - 1.0) ** 2 * (1.0 + 10.0 * np.sin(math.pi * w[:-1] + 1.0) ** 2))
    tail = (w[-1] - 1.0) ** 2 * (1.0 + math.sin(2.0 * math.pi * w[-1]) ** 2)
    return float(head + body + tail)


def rosenbrock(x) -> float:
    x = np.asarray(x, dtype=float)
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def quadratic_ill(x, a: float = 1.9) -> float:
    """Ill-conditioned convex quadratic with cross terms against x_n.

    In 2-D this reduces to x1^2 + 0.95*x1*x2 + 5.9*x2^2.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    i = np.arange(1, n + 1)
    return float(np.sum((i * x) ** 2) + np.sum(a * (i / n) * x * x[-1]))


@dataclass(frozen=True)
class TestFunctionSpec:
    name: str
    dim: int
    fn: Callable[[np.ndarray], float]
    optimum_x: np.ndarray
    optimum_f: float = 0.0

    def bounds(self) -> Bounds:
        return Bounds.cube(-5.0, 5.0, self.dim)


@dataclass(frozen=True)
class ConstrainedProblemSpec:
    name: str
    objective: Callable[[np.ndarray], float]
    constraint: Callable[[np.ndarray], np.ndarray]
    violation_threshold: float = VIOLATION_THRESHOLD
    dim: int = 2

    def bounds(self) -> Bounds:
        return Bounds.cube(-5.0, 5.0, self.dim)


_UNCONSTRAINED: Dict[str, Callable] = {
    "ackley": ackley,
    "levy": levy,
    "rosenbrock": rosenbrock,
    "quadratic": quadratic_ill,
}


def _optimum_x(name: str, dim: int) -> np.ndarray:
    if name in ("ackley", "quadratic"):
        return np.zeros(dim)
    return np.ones(dim)  # levy, rosenbrock


def test_function_spec(name: str, dim: int) -> TestFunctionSpec:
    if name not in _UNCONSTRAINED:
        raise ConfigError(f"unknown test function '{name}'")
    return TestFunctionSpec(
        name=name, dim=dim, fn=_UNCONSTRAINED[name], optimum_x=_optimum_x(name, dim),
    )


def _matyas(x) -> float:
    x = np.asarray(x, dtype=float)
    return float(0.26 * (x[0] ** 2 + x[1] ** 2) - 0.48 * x[0] * x[1])


def constrained_suite(name: str) -> ConstrainedProblemSpec:
    """The three 2-D constrained problems (g(x) <= 0 convention)."""
    if name == "rosenbrock":
        return ConstrainedProblemSpec(
            name="rosenbrock-c",
            objective=rosenbrock,
            constraint=lambda x: np.array(
                [x[0] + 1.27 - 2.83 * x[1] + 0.69 * x[1] ** 2]
            ),
        )
    if name == "quadratic":
        return ConstrainedProblemSpec(
            name="quadratic-c",
            objective=quadratic_ill,
            constraint=lambda x: np.array([1.5 * x[0] + 0.6 - x[1]]),
        )
    if name == "matyas":
        return ConstrainedProblemSpec(
            name="matyas-c",
            objective=_matyas,
            constraint=lambda x: np.array([6.31 * x[0] + 3.60 - x[1]]),
        )
    raise ConfigError(
        f"unknown constrained problem '{name}'; choose from rosenbrock, quadratic, matyas"
    )


# ------------------------------------------------------------------ registry

_DEFAULT_DIMS = (2, 5, 7, 10)


def _registry_keys() -> list[str]:
    keys = [f"{n}-d{d}" for n in _UNCONSTRAINED for d in _DEFAULT_DIMS]
    keys += [f"{n}-c" for n in ("rosenbrock", "quadratic", "matyas")]
    keys += ["cstr-pid", "williams-otto"]
    return keys


def list_problems() -> list[str]:
    return _registry_keys()


def get_problem(key: str) -> Problem:
    """Resolve a registry key to a ready-to-run :class:`Problem`."""
    if key == "cstr-pid":
        from .casestudies import make_cstr_problem

        return make_cstr_problem()
    if key == "williams-otto":
        from .casestudies import make_williams_otto_problem

        return make_williams_otto_problem()
    if key.endswith("-c"):
        name = key[:-2]
        try:
            spec = constrained_suite(name)
        except ConfigError:
            raise ConfigError(_unknown_key_message(key)) from None
        return Problem(
            name=key,
            bounds=spec.bounds(),
            objective=spec.objective,
            constraints=spec.constraint,
            n_constraints=1,
            noise=NoiseSpec(),
        )
    if "-d" in key:
        name, _, dim_part = key.rpartition("-d")
        if name in _UNCONSTRAINED and dim_part.isdigit() and int(dim_part) >= 1:
            dim = int(dim_part)
            spec = test_function_spec(name, dim)
            return Problem(
                name=key,
                bounds=spec.bounds(),
                objective=spec.fn,
                noise=NoiseSpec(),
                known_optimum=(spec.optimum_x, spec.optimum_f),
            )
    raise ConfigError(_unknown_key_message(key))


def _unknown_key_message(key: str) -> str:
    valid = _registry_keys()
    close = difflib.get_close_matches(key, valid, n=1)
    hint = f"; did you mean '{close[0]}'?" if close else ""
    return f"unknown problem key '{key}'{hint} Valid keys: {', '.join(valid)}"
