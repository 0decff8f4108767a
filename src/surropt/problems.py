"""Synthetic benchmark problems and the string-keyed problem registry.

Four unconstrained test functions (Ackley, Levy, Rosenbrock, and an
ill-conditioned quadratic), all with global minimum 0 on [-5, 5]^n_x, plus
three 2-D constrained problems in the g(x) <= 0 convention. Registry keys
follow "<name>-d<dim>" for the unconstrained families (e.g. "ackley-d5", any
dimension >= 1), "<name>-c" for the constrained problems, and plain names for
the case studies ("cstr-pid", "williams-otto"). This module alone builds
problems and knows their names.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Bounds, Problem, unknown_name

__all__ = [
    "ackley",
    "levy",
    "rosenbrock",
    "quadratic_ill",
    "BASE_FUNCTIONS",
    "get_problem",
    "list_problems",
]


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


def _matyas(x) -> float:
    x = np.asarray(x, dtype=float)
    return float(0.26 * (x[0] ** 2 + x[1] ** 2) - 0.48 * x[0] * x[1])


# ------------------------------------------------------------------ registry

# family -> (function, coordinate of its global minimum in every dimension)
_FAMILIES = {
    "ackley": (ackley, 0.0),
    "levy": (levy, 1.0),
    "rosenbrock": (rosenbrock, 1.0),
    "quadratic": (quadratic_ill, 0.0),
}

# registry base names that expand over a benchmark's dimension list
BASE_FUNCTIONS = tuple(_FAMILIES)

# 2-D constrained key -> (objective, constraint in the g(x) <= 0 convention)
_CONSTRAINED = {
    "rosenbrock-c": (
        rosenbrock,
        lambda x: np.array([x[0] + 1.27 - 2.83 * x[1] + 0.69 * x[1] ** 2]),
    ),
    "quadratic-c": (quadratic_ill, lambda x: np.array([1.5 * x[0] + 0.6 - x[1]])),
    "matyas-c": (_matyas, lambda x: np.array([6.31 * x[0] + 3.60 - x[1]])),
}

_DEFAULT_DIMS = (2, 5, 7, 10)


def list_problems() -> list[str]:
    keys = [f"{n}-d{d}" for n in _FAMILIES for d in _DEFAULT_DIMS]
    return keys + list(_CONSTRAINED) + ["cstr-pid", "williams-otto"]


def get_problem(key: str) -> Problem:
    """Resolve a registry key to a ready-to-run :class:`Problem`."""
    if key == "cstr-pid":
        from .casestudies import make_cstr_problem

        return make_cstr_problem()
    if key == "williams-otto":
        from .casestudies import make_williams_otto_problem

        return make_williams_otto_problem()
    if key in _CONSTRAINED:
        objective, constraint = _CONSTRAINED[key]
        return Problem(
            name=key,
            bounds=Bounds.cube(-5.0, 5.0, 2),
            objective=objective,
            constraints=constraint,
            n_constraints=1,
        )
    name, _, dim_part = key.rpartition("-d")
    if name in _FAMILIES and dim_part.isdigit() and int(dim_part) >= 1:
        fn, x_opt = _FAMILIES[name]
        dim = int(dim_part)
        return Problem(
            name=key,
            bounds=Bounds.cube(-5.0, 5.0, dim),
            objective=fn,
            known_optimum=(np.full(dim, x_opt), 0.0),
        )
    raise unknown_name("problem key", key, list_problems())
