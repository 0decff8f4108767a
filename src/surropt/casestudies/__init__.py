"""Chemical-engineering case studies: CSTR PID tuning and Williams-Otto."""

from .cstr import (
    CstrParams,
    CstrState,
    cstr_objective,
    cstr_rhs,
    integrate,
    load_defaults,
    make_cstr_problem,
    pid_control,
    theta_to_gains,
)
from .williams_otto import (
    WoParams,
    make_williams_otto_problem,
    solve_wo,
    wo_constraints,
    wo_objective,
    wo_residuals,
)

__all__ = [
    "CstrParams",
    "CstrState",
    "cstr_objective",
    "cstr_rhs",
    "integrate",
    "load_defaults",
    "make_cstr_problem",
    "pid_control",
    "theta_to_gains",
    "make_williams_otto_problem",
    "WoParams",
    "solve_wo",
    "wo_constraints",
    "wo_objective",
    "wo_residuals",
]
