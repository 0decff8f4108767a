"""Optimization strategies sharing one step contract: history in, next point out.

Seven methods are provided:

- ``bo`` / ``cbo``: Gaussian-process Bayesian optimization with a lower
  confidence bound acquisition; ``cbo`` ranks candidates feasible-first
  through per-constraint GP means, and ``bo`` is ``cbo`` without them.
- ``cuatro``: PSD quadratic surrogates for objective and constraints,
  feasibility-first candidate search inside the trust region.
- ``lsqm``: ``cuatro`` whose step ignores the constraints.
- ``cobyla``: linear surrogates on a maintained simplex, merit
  f + penalty * [max g]_+ minimized within half the trust-region radius.
- ``cobyqa``: quadratic regression surrogates with the penalized merit
  f + sum_i rho_i * [g_i]_+ over the full trust-region ball.
- ``dycors``: cubic-RBF surrogate with stochastic coordinate perturbations
  and a cycling value/distance weighted score.

The four trust-region methods differ only in the fields of ``_TR_METHODS``.
They share one public step, ``trust_region_step(kind, ...)``, which the
runner calls too, and one runner loop. All inner argmins use the same
derivative-free candidate-pool search (seeded pool + analytic Newton/Cauchy
candidates + coordinate pattern refinement), so every step operation is a
pure function of (data, state, seed). A box pool is a Latin hypercube; a
ball pool is one cached set of unit directions under a fresh random
rotation, with fresh radii. The refinement evaluates its step levels ahead,
several per call as one stack of batches, and takes the moves that one
level per call would take, bit for bit.

Each method runs at one fixed setting: LCB weight gamma = 2; a search pool
of 100 * n_x candidates refined by at most 20 pattern steps, none of them
shorter than 1e-3 of the radius in a trust-region ball; penalties of 100
per constraint, multiplied by 10 after each infeasible step (cuatro,
cobyqa) up to a cap of 1e8; a DYCORS step of 0.2 of each box width to
start, which is also its cap; and a sample counts as feasible when
max_i g_i <= 1e-3.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import (
    Bounds,
    ConfigError,
    Dataset,
    Problem,
    Trajectory,
    _one_blas_thread,
    derive_seed,
    evaluate,
    feasible,
    latin_hypercube,
    substream,
    unknown_name,
)
from .surrogates import (
    SurrogateFitError,
    _centred_distances,
    _posterior_mean,
    _rbf_values,
    fit_gp,  # not called here: perfbench/tracing.py looks up optimizers.fit_gp
    fit_gps,
    fit_linear,
    fit_quadratic,
    fit_rbf,
    gp_posterior,
    rbf_predict,  # not called here; perfbench's tracer wraps optimizers.rbf_predict
)

__all__ = [
    "TrustRegionState",
    "TrustRegionStep",
    "DycorsState",
    "lcb",
    "propose_bo",
    "propose_cbo",
    "trust_region_step",
    "trust_region_update",
    "dycors_select_probability",
    "dycors_step",
    "dycors_update",
    "run_optimizer",
    "ALGORITHMS",
    "DYCORS_WEIGHTS",
    "initial_design_size",
    "check_cell",
]

logger = logging.getLogger(__name__)

ALGORITHMS = ("bo", "cbo", "lsqm", "cuatro", "cobyla", "cobyqa", "dycors")

DYCORS_WEIGHTS = (0.3, 0.5, 0.8, 0.95)

_POOL_PER_DIM = 100  # inner-search pool: candidates per input dimension
_DYCORS_STEP = 0.2  # DYCORS's initial step, a fraction of each box width; also its cap
_REFINE_STEPS = 20  # pattern-refinement steps after the pool, at most
_STEP_FLOOR = 1e-3  # a ball search refines no step below this fraction of its radius
_REFINE_ROWS = 40  # trial rows per stack of refinement levels (at least one level)
_PENALTY_GROWTH = 10.0
_PENALTY_CAP = 1e8


# ------------------------------------------------------------------ state types


@dataclass(frozen=True)
class TrustRegionState:
    """Center and radius of a trust-region method, with the radius limits."""

    center: np.ndarray
    radius: float
    min_radius: float = 1e-6
    max_radius: float = math.inf

    def __post_init__(self):
        if not (self.min_radius <= self.radius <= self.max_radius):
            raise ConfigError("need min_radius <= radius <= max_radius")


class TrustRegionStep(NamedTuple):
    """A trust-region step: the point, the merit reduction the surrogates
    predict from the centre to it, and whether it lies on the boundary of
    the searched ball."""

    x: np.ndarray
    predicted_reduction: float
    on_boundary: bool


@dataclass(frozen=True)
class DycorsState:
    """Iteration counter, step size, and success and failure streaks.

    ``iteration`` counts updates and also selects the weight of the score,
    cycling through ``DYCORS_WEIGHTS``.
    """

    iteration: int
    max_iterations: int
    step_size: float
    success_count: int = 0
    fail_count: int = 0

    def __post_init__(self):
        if not (0 <= self.iteration <= self.max_iterations):
            raise ConfigError("need 0 <= iteration <= max_iterations")
        if self.step_size <= 0:
            raise ConfigError("step_size must be > 0")


# ------------------------------------------------------------------ acquisition


def lcb(mu: float, sigma: float, gamma: float):
    """Lower confidence bound mu - gamma * sigma."""
    return mu - gamma * sigma


# ------------------------------------------------------------------ inner search
#
# Candidate-pool minimization with feasibility-first lexicographic keys.
# A key function maps an (L, m, d) stack of batches to (primary, secondary)
# arrays of shape (L, m); candidates are ranked by primary first (0 =
# predicted feasible), then secondary. Pattern refinement tries +/- step
# moves per coordinate, projecting trials into bounds and (when given) the
# trust-region ball.


def _lex_best(primary: np.ndarray, secondary: np.ndarray) -> int:
    order = np.lexsort((secondary, primary))
    return int(order[0])


def _project(X, bounds: Bounds, center=None, radius=None) -> np.ndarray:
    """Project each row of an (m, d) batch into the box, then into the ball.

    Every row is clipped to ``bounds``. When ``center`` is given, a clipped
    row farther than ``radius`` from it is scaled back onto the sphere along
    its direction from the centre. Returns a new (m, d) array whose rows
    equal, bit for bit, what projecting each row on its own gives: the
    norms come from a batched matmul, which matches the 1-D
    ``np.linalg.norm`` where ``norm(axis=1)``, ``np.sum`` and ``einsum``
    round differently.
    """
    X = bounds.clip(X)
    if center is None:
        return X
    D = X - center
    norms = np.sqrt((D[:, None, :] @ D[:, :, None])[:, 0, 0])
    out = norms > radius
    X[out] = center + D[out] * (radius / norms[out])[:, None]
    return X


@functools.lru_cache(maxsize=None)
def _ball_directions(n: int, d: int) -> np.ndarray:
    """n unit directions in R^d, uniform on the sphere (normal rows, normed).

    Drawn once per (n, d) from a stream of a constant seed, and read-only,
    since every ball search of that size turns the same set.
    """
    U = substream(0, "ball-directions", n, d).standard_normal((n, d))
    norms = np.linalg.norm(U, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    U /= norms
    U.flags.writeable = False
    return U


def _ball_candidates(center, radius, bounds, n, rng):
    """n points uniform in the ball around ``center``, clipped into the box.

    The cached directions ``_ball_directions(n, d)`` are turned by one Haar
    rotation Q, the QR of a d x d normal matrix with each column's sign set
    by diag(R) (Mezzadri 2007), and scaled by fresh radii radius * u^(1/d).
    ``rng`` gives the d x d normals, then the n uniforms. Each row is
    uniform in the ball and each call independent of the others; the rows
    of one call keep the angles between the cached directions.
    """
    d = center.size
    Q, R = np.linalg.qr(rng.standard_normal((d, d)))
    Q *= np.copysign(1.0, np.diagonal(R))
    radii = radius * rng.uniform(size=(n, 1)) ** (1.0 / d)
    # in place on the one (n, d) product: the same values as
    # np.clip(center + radii * (U @ Q), lower, upper), NaN included
    X = _ball_directions(n, d) @ Q
    X *= radii
    X += center
    np.maximum(X, bounds.lower, out=X)
    return np.minimum(X, bounds.upper, out=X)


def _pool_minimize(
    keys_fn: Callable[[np.ndarray], tuple],
    bounds: Bounds,
    seed: int,
    center=None,
    radius=None,
    extra: Optional[list] = None,
) -> np.ndarray:
    """The best point found for ``keys_fn`` within ``bounds`` (and the ball).

    ``keys_fn`` maps an (L, m, d) stack of candidate batches to (primary,
    secondary) arrays of shape (L, m). A seeded pool of 100 * d candidates
    (a Latin hypercube, or ``_ball_candidates``: the cached directions
    rotated and scaled to uniform points in the ball around ``center``),
    plus ``extra``, is ranked as a stack of one. Its best point x is refined
    by at most ``_REFINE_STEPS`` pattern steps: x moves to the best of its 2d
    trials x +/- step * e_j if that beats x's key, and otherwise the step
    halves. The step starts at radius/4 in a ball and at a tenth of the
    widest box side in a box. A ball search stops once the step falls below
    ``_STEP_FLOOR`` * radius, so a walk that never moves tries the 8 levels
    radius/4 ... radius/512; a box search always takes all its steps.

    The steps are evaluated ahead, r step levels at a time (step, step/2,
    ...) as one (r, 2d, d) stack, with r = min(steps left,
    max(1, _REFINE_ROWS // 2d)) and no level below the floor. The walk
    moves at the first level that beats x, or halves past the last level,
    and builds the next stack from there, so it takes the same moves as one
    level per call. Predictions make one BLAS call per slice of a stack and
    reduce along its last axis, so each level gets the same bits as a
    (2d, d) batch on its own, and the trajectory does not depend on r
    (``tests/test_surrogates.py`` checks every prediction at these shapes).
    """
    n_pool = _POOL_PER_DIM * bounds.dim
    if center is not None:
        rng = substream(seed, "pool")
        X = _ball_candidates(center, radius, bounds, n_pool, rng)
        step = radius / 4.0
    else:
        X = latin_hypercube(bounds, n_pool, derive_seed(seed, "pool"))
        step = float(np.max(bounds.width)) / 10.0
    if extra:
        X = np.vstack([X, _project(extra, bounds, center, radius)])
    (primary,), (secondary,) = keys_fn(X[None])
    i = _lex_best(primary, secondary)
    x = X[i]
    best_key = (primary[i], secondary[i])

    d = bounds.dim
    levels = max(1, _REFINE_ROWS // (2 * d))
    halvings = 0.5 ** np.arange(levels)[:, None]
    floor = _STEP_FLOOR * radius if center is not None else 0.0
    left = _REFINE_STEPS
    while left:
        # step, step/2, ...: exact, as halving step by step; none below the floor
        steps = step * halvings[:min(left, levels)]
        steps = steps[steps[:, 0] >= floor]
        r = len(steps)
        if not r:
            break
        trials = np.empty((r, 2 * d, d))
        trials[:] = x
        # trial 2j moves up along axis j, trial 2j + 1 down: in each flat
        # level these entries sit at j(2d + 1) and d + j(2d + 1)
        flat = trials.reshape(r, 2 * d * d)
        flat[:, ::2 * d + 1] += steps
        flat[:, d::2 * d + 1] -= steps
        trials = _project(flat.reshape(-1, d), bounds, center, radius).reshape(r, 2 * d, d)
        p, s = keys_fn(trials)
        for k in range(r):
            i = _lex_best(p[k], s[k])
            if (p[k, i], s[k, i]) < best_key:
                x, best_key, step = trials[k, i], (p[k, i], s[k, i]), steps[k, 0]
                left -= k + 1
                break
        else:
            step = steps[-1, 0] * 0.5
            left -= r
    return x


def _plain_keys(values: np.ndarray) -> tuple:
    return np.zeros(values.shape, dtype=int), values


def _feasibility_first_keys(values, margins):
    """Rank candidates with all margins <= 0 by value, the rest by total violation."""
    if not margins:
        return _plain_keys(values)
    viol = np.zeros(values.shape)
    for m in margins:
        viol += np.maximum(m, 0.0)
    infeasible = (viol > 0).astype(int)
    return infeasible, np.where(infeasible == 0, values, viol)


# ------------------------------------------------------------------ BO / CBO


def _best_index(y, G):
    """Feasible-first incumbent: min y among feasible, else min total violation."""
    idx = np.flatnonzero(feasible(G))
    if idx.size:
        return int(idx[np.argmin(np.asarray(y)[idx])])
    return int(np.argmin(np.sum(np.maximum(G, 0.0), axis=1)))


def propose_bo(
    data: Dataset, bounds: Bounds, gamma: float = 2.0, seed: int = 0,
) -> np.ndarray:
    """Minimize the LCB of a freshly fitted GP over the candidate pool.

    This is :func:`propose_cbo` with no constraint models: constraint
    observations in ``data`` are ignored. A failed GP fit raises
    :class:`~surropt.surrogates.SurrogateFitError`.
    """
    return _propose_gp(Dataset(data.X, data.y), bounds, gamma, seed)


def propose_cbo(
    data: Dataset, bounds: Bounds, gamma: float = 2.0, seed: int = 0,
) -> np.ndarray:
    """Constrained BO: LCB among candidates whose constraint-GP means are <= 0.

    Falls back to minimizing total predicted violation when no candidate is
    predicted feasible. A failed GP fit raises
    :class:`~surropt.surrogates.SurrogateFitError`.
    """
    if data.G.shape[1] < 1:
        raise ConfigError("propose_cbo needs constraint observations")
    return _propose_gp(data, bounds, gamma, seed)


def _propose_gp(data, bounds, gamma, seed):
    if not gamma >= 0:
        raise ConfigError("gamma must be >= 0")
    seeds = [derive_seed(seed, "gp")]
    seeds += [derive_seed(seed, "gp-con", i) for i in range(data.G.shape[1])]
    f_model, *g_models = fit_gps(data.X, np.vstack([data.y, data.G.T]), seeds)

    def keys(X):
        mu, var = gp_posterior(f_model, X)
        margins = [_posterior_mean(gm, X)[0] for gm in g_models]  # no variance needed
        return _feasibility_first_keys(lcb(mu, np.sqrt(var), gamma), margins)

    incumbent = data.X[_best_index(data.y, data.G)]
    return _pool_minimize(keys, bounds, seed, extra=[incumbent])


# ------------------------------------------------------------------ trust region


def _cauchy_point(grad, center, radius):
    norm = float(np.linalg.norm(grad))
    if norm == 0:
        return None
    return center - radius * grad / norm


def _quad_extras(model, center, radius):
    extras = [center]
    # unconstrained minimizer of the quadratic surrogate, min-norm when singular; a
    # LinAlgError (the SVD did not converge) reaches run_optimizer's fallback
    x_n, *_ = np.linalg.lstsq(2.0 * model.Q, -model.c, rcond=None)
    if np.all(np.isfinite(x_n)):
        extras.append(x_n)
    grad = 2.0 * model.Q @ center + model.c
    x_c = _cauchy_point(grad, center, radius)
    if x_c is not None:
        extras.append(x_c)
    return extras


def _linear_extras(model, center, radius):
    extras = [center]
    x_c = _cauchy_point(model.g_hat, center, radius)
    if x_c is not None:
        extras.append(x_c)
    return extras


def _penalized_merit(f_vals, g_list, penalties):
    merit = np.array(f_vals, dtype=float, copy=True)
    for i, g in enumerate(g_list):
        merit += penalties[i] * np.maximum(g, 0.0)
    return merit


def _max_merit(f_vals, g_list, penalties):
    # COBYLA's merit over a batch: f + max(penalties) * [max_i g_i]_+
    if not g_list:
        return np.asarray(f_vals, dtype=float)
    worst = np.max(g_list, axis=0)
    return f_vals + float(np.max(penalties)) * np.maximum(worst, 0.0)


@dataclass(frozen=True)
class _TrustRegionMethod:
    """What sets one trust-region method apart from the others.

    ``merit`` scores a batch, whether of predicted or of observed values.
    """

    fit: Callable  # Dataset -> surrogate, for the objective and each constraint
    merit: Callable  # (f (m,), [g_i (m,)], penalties) -> merits (m,)
    extras: Callable  # (model, center, radius) -> analytic pool candidates
    feasibility_first: bool = False  # rank feasible-first instead of by merit
    radius_scale: float = 1.0  # searched ball radius / trust radius
    grows_penalty: bool = False  # raise the penalties after an infeasible step
    sees_constraints: bool = True  # False: the step fits the objective alone
    simplex: bool = False  # the step sees COBYLA's simplex, not the history


# fits are looked up at call time so that wrappers set on this module apply
_CUATRO = _TrustRegionMethod(
    fit=lambda data: fit_quadratic(data, psd=True), merit=_penalized_merit,
    extras=_quad_extras, feasibility_first=True, grows_penalty=True,
)
_TR_METHODS = {
    "lsqm": replace(_CUATRO, grows_penalty=False, sees_constraints=False),
    "cuatro": _CUATRO,
    "cobyqa": _TrustRegionMethod(
        fit=lambda data: fit_quadratic(data), merit=_penalized_merit,
        extras=_quad_extras, grows_penalty=True,
    ),
    "cobyla": _TrustRegionMethod(
        fit=lambda data: fit_linear(data), merit=_max_merit, extras=_linear_extras,
        radius_scale=0.5, simplex=True,
    ),
}


def _initial_penalties(n_g: int) -> np.ndarray:
    return np.full(max(n_g, 1), 100.0)


def trust_region_step(
    kind: str, data: Dataset, bounds: Bounds, tr: TrustRegionState,
    penalties=None, seed: int = 0,
) -> TrustRegionStep:
    """One step of trust-region method ``kind``: lsqm, cuatro, cobyqa or cobyla.

    Fits the method's surrogates to ``data``, at least n_x + 1 samples
    (``lsqm`` ignores the constraint columns, ``cobyla`` expects its
    simplex), and searches the trust-region ball within ``bounds``.
    ``penalties`` holds one value > 0 per constraint column of ``data``, one
    value when there are none, and defaults to 100 each.
    """
    method = _TR_METHODS[kind]
    if data.n < bounds.dim + 1:
        raise ConfigError(f"the {kind} step needs at least n_x + 1 samples")
    n_g = data.G.shape[1]
    if penalties is None:
        penalties = _initial_penalties(n_g)
    penalties = np.atleast_1d(np.asarray(penalties, dtype=float))
    if penalties.shape != (max(n_g, 1),) or not np.all(penalties > 0):
        raise ConfigError(
            f"need {max(n_g, 1)} penalties > 0, one per constraint column; got {penalties}"
        )
    if not method.sees_constraints:
        data = Dataset(data.X, data.y)

    f_model = method.fit(data)
    g_models = [method.fit(Dataset(data.X, data.G[:, i])) for i in range(data.G.shape[1])]
    radius = tr.radius * method.radius_scale

    def predict(X):
        return f_model.predict(X), [gm.predict(X) for gm in g_models]

    def keys(X):
        f_hat, g_hats = predict(X)
        if method.feasibility_first:
            return _feasibility_first_keys(f_hat, g_hats)
        return _plain_keys(method.merit(f_hat, g_hats, penalties))

    def merit_at(x):
        return float(method.merit(*predict(x[None, :]), penalties)[0])

    x = _pool_minimize(
        keys, bounds, seed, center=tr.center, radius=radius,
        extra=method.extras(f_model, tr.center, radius),
    )
    on_boundary = float(np.linalg.norm(x - tr.center)) >= radius * (1.0 - 1e-3)
    return TrustRegionStep(x, merit_at(tr.center) - merit_at(x), on_boundary)


def trust_region_update(
    tr: TrustRegionState,
    predicted_reduction: float,
    actual_reduction: float,
    step_on_boundary: bool,
    new_point: Optional[np.ndarray] = None,
    feasible: bool = True,
) -> TrustRegionState:
    """Ratio-based radius adaptation and center move.

    ratio >= 0.75 on the boundary doubles the radius (capped); ratio < 0.25
    or no actual reduction halves it (floored); the center moves to
    ``new_point`` only on actual improvement by a feasible point.
    """
    ratio = (
        actual_reduction / predicted_reduction
        if predicted_reduction > 0
        else -math.inf
    )
    radius = tr.radius
    if ratio >= 0.75 and step_on_boundary:
        radius = min(radius * 2.0, tr.max_radius)
    elif ratio < 0.25 or actual_reduction <= 0:
        radius = max(radius * 0.5, tr.min_radius)
    center = tr.center
    if actual_reduction > 0 and feasible and new_point is not None:
        center = np.asarray(new_point, dtype=float)
    return replace(tr, center=center, radius=radius)


# ------------------------------------------------------------------ DYCORS


def dycors_select_probability(state: DycorsState, dim: int) -> float:
    """Coordinate perturbation probability, decaying logarithmically."""
    denom = math.log(max(state.max_iterations, 2))
    decay = 1.0 - math.log(state.iteration + 1) / denom
    return min(20.0 / dim, 1.0) * max(decay, 0.0)


def _unit_rescale(v: np.ndarray) -> np.ndarray:
    lo, hi = float(np.min(v)), float(np.max(v))
    if hi - lo < 1e-12:
        return np.ones_like(v)
    return (v - lo) / (hi - lo)


def dycors_step(
    data: Dataset, bounds: Bounds, state: DycorsState, incumbent, seed: int = 0,
) -> np.ndarray:
    """Perturb incumbent coordinates stochastically, score by RBF value and distance.

    One trial-to-center distance matrix serves both scores: the cubic RBF's
    value and each trial's distance to its nearest sample. It comes from one
    gemm in coordinates centred on the incumbent (``_centred_distances``):
    each squared distance is within 8 eps (|t - incumbent|^2 +
    |c - incumbent|^2) of the exact one, and the proposal is a row of the
    trials, so it moves only where two scores tie to about that. The fit's
    own n x n matrix stays on the exact difference sum of ``_distances``. The
    centers are ``data.X`` with rows closer than 1e-10 merged (``fit_rbf``),
    so the distance score differs from one taken over ``data.X`` itself only
    when ``data`` holds two points that close, and then by at most 1e-10.
    A failed RBF fit raises :class:`~surropt.surrogates.SurrogateFitError`.
    """
    incumbent = np.asarray(incumbent, dtype=float)
    d = bounds.dim
    n_trials = 100 * d
    rng = substream(seed, "dycors")
    p = dycors_select_probability(state, d)
    mask = rng.uniform(size=(n_trials, d)) < p
    forced = rng.integers(0, d, size=n_trials)
    noise = rng.standard_normal((n_trials, d))
    empty = ~mask.any(axis=1)
    mask[empty, forced[empty]] = True  # at least one coordinate moves

    sigma = state.step_size * bounds.width
    trials = incumbent + mask * (noise * sigma)
    trials = np.clip(trials, bounds.lower, bounds.upper)

    model = fit_rbf(data)
    dist = _centred_distances(trials, model.centers, incumbent)
    v_f = _unit_rescale(_rbf_values(model, trials, dist))
    v_d = _unit_rescale(dist.min(axis=1))
    w = DYCORS_WEIGHTS[state.iteration % len(DYCORS_WEIGHTS)]
    score = w * v_f + (1.0 - w) * (1.0 - v_d)
    return trials[int(np.argmin(score))]


def dycors_update(state: DycorsState, success: bool) -> DycorsState:
    """Advance counters; 3 straight successes double the step, 5 failures halve it."""
    step = state.step_size
    succ, fail = state.success_count, state.fail_count
    if success:
        succ, fail = succ + 1, 0
        if succ >= 3:
            step = min(step * 2.0, _DYCORS_STEP)  # capped at initial
            succ = 0
    else:
        succ, fail = 0, fail + 1
        if fail >= 5:
            step = max(step * 0.5, 1e-3 * _DYCORS_STEP)
            fail = 0
    return replace(
        state,
        iteration=min(state.iteration + 1, state.max_iterations),
        step_size=step,
        success_count=succ,
        fail_count=fail,
    )


# ------------------------------------------------------------------ runner


def initial_design_size(algorithm: str, dim: int) -> int:
    if algorithm in _TR_METHODS:
        return dim + 1
    return max(5, 2 * dim)


def check_cell(algorithm: str, problem: Optional[Problem] = None,
               budget: Optional[int] = None) -> None:
    """Raise the ConfigError that refuses a cell of ``algorithm`` on ``problem``
    at ``budget``: an unknown algorithm, cbo without constraints, or a budget
    below the initial design size. Without a problem only the name is checked."""
    if algorithm not in ALGORITHMS:
        raise unknown_name("algorithm", algorithm, ALGORITHMS)
    if problem is None:
        return
    if algorithm == "cbo" and problem.n_constraints < 1:
        raise ConfigError("cbo requires a constrained problem")
    if budget < (n_init := initial_design_size(algorithm, problem.dim)):
        raise ConfigError(f"budget {budget} is below the initial design size {n_init} "
                          f"of '{algorithm}'")


class _BoStrategy:
    """Runner-side state of bo and cbo: the proposal, picked once."""

    def __init__(self, bounds: Bounds, constrained: bool):
        self.bounds = bounds
        self._propose = propose_cbo if constrained else propose_bo

    def propose(self, data: Dataset, seed: int):
        return self._propose(data, self.bounds, seed=seed)

    def update(self, x, y, g):
        pass


class _Simplex:
    """COBYLA's n_x + 1 interpolation points, the rows of one Dataset.

    A degenerate simplex is replaced by a right-angled one around the centre
    at the current radius. Its other vertices are ``pending`` row indices,
    evaluated one per step; the rows are read only once none is pending.
    """

    def __init__(self, data: Dataset):
        self.data = data  # the initial design's rows, overwritten in place
        self.pending: list = []

    def degenerate(self) -> bool:
        # a rank-deficient E has a condition number of 1e15 or more, or inf
        X = self.data.X
        return np.linalg.cond(X[1:] - X[0]) > 1e8

    def queue_rebuild(self, bounds: Bounds, tr: TrustRegionState, center_y, center_g):
        c = tr.center
        room_up, room_dn = bounds.upper - c, c - bounds.lower
        length = np.minimum(tr.radius, np.maximum(room_up, room_dn))
        direction = np.where(room_up >= room_dn, 1.0, -1.0)
        X, y, G = self.data.X, self.data.y, self.data.G
        X[:] = c
        X[1:][np.diag_indices(c.size)] += direction * np.maximum(length, 1e-8)
        y[0], G[0] = center_y, center_g
        self.pending = list(range(1, c.size + 1))

    def fill_pending(self, x, y, g):
        i = self.pending.pop(0)
        self.data.X[i], self.data.y[i], self.data.G[i] = x, y, g

    def replace_worst(self, x, y, g, center, merit):
        # the worst vertex by merit that is not the centre makes way for x
        for i in np.argsort(merit(self.data.y, self.data.G))[::-1]:
            if not np.array_equal(self.data.X[i], center):
                self.data.X[i], self.data.y[i], self.data.G[i] = x, y, g
                break


class _TrustRegionStrategy:
    """Runner-side state of lsqm, cuatro, cobyqa and cobyla, centred on the
    initial design's best point; cobyla's simplex is the design itself."""

    def __init__(self, kind: str, bounds: Bounds, data: Dataset):
        self.kind = kind
        self.method = _TR_METHODS[kind]
        self.bounds = bounds
        self.penalties = _initial_penalties(data.G.shape[1])
        i = _best_index(data.y, data.G)
        width = float(np.max(bounds.width))
        self.tr = TrustRegionState(
            center=data.X[i].copy(), radius=0.1 * width, min_radius=1e-6, max_radius=width,
        )
        self.center_y = float(data.y[i])
        self.center_g = data.G[i].copy()
        self.simplex = _Simplex(data) if self.method.simplex else None
        self._step: Optional[TrustRegionStep] = None  # None for a rebuild point

    def _merits(self, y: np.ndarray, G: np.ndarray) -> np.ndarray:
        """The method's merit of observed values y (m,) and G (m, n_g).

        A method whose step does not see the constraints scores y alone, as
        its step's predicted reduction does.
        """
        g_list = list(G.T) if self.method.sees_constraints else []
        return self.method.merit(y, g_list, self.penalties)

    def propose(self, data: Dataset, seed: int):
        if self.simplex is not None:
            if not self.simplex.pending and self.simplex.degenerate():
                self.simplex.queue_rebuild(self.bounds, self.tr, self.center_y, self.center_g)
            if self.simplex.pending:
                self._step = None
                return self.simplex.data.X[self.simplex.pending[0]]
            data = self.simplex.data
        self._step = trust_region_step(
            self.kind, data, self.bounds, self.tr, self.penalties, seed
        )
        return self._step.x

    def update(self, x, y, g):
        y = float(y)
        g_arr = np.atleast_1d(np.asarray(g, dtype=float))
        if self._step is None:  # a vertex of the rebuilt simplex
            self.simplex.fill_pending(x, y, g_arr)
            return
        merit_center, merit_new = self._merits(
            np.array([self.center_y, y]), np.array([self.center_g, g_arr])
        )
        actual = float(merit_center - merit_new)
        ok = bool(feasible(g_arr))
        if self.simplex is not None:
            self.simplex.replace_worst(x, y, g_arr, self.tr.center, self._merits)
        self.tr = trust_region_update(
            self.tr, self._step.predicted_reduction, actual, self._step.on_boundary,
            new_point=x, feasible=ok,
        )
        if actual > 0 and ok:
            self.center_y = y
            self.center_g = g_arr.copy()
        if not ok and self.method.grows_penalty:
            self.penalties = np.minimum(self.penalties * _PENALTY_GROWTH, _PENALTY_CAP)


class _DycorsStrategy:
    """Runner-side state of dycors: its counters over the steps left after the design."""

    def __init__(self, bounds: Bounds, data: Dataset, budget: int):
        self.bounds = bounds
        steps = max(budget - data.n, 1)
        self.state = DycorsState(iteration=0, max_iterations=steps, step_size=_DYCORS_STEP)
        self.incumbent_y = float(np.min(data.y))

    def propose(self, data: Dataset, seed: int):
        # the first sample of least y: updates move the incumbent only on strict improvement
        incumbent = data.X[int(np.argmin(data.y))]
        return dycors_step(data, self.bounds, self.state, incumbent, seed)

    def update(self, x, y, g):
        success = y < self.incumbent_y
        if success:
            self.incumbent_y = float(y)
        self.state = dycors_update(self.state, success)


def _make_strategy(algorithm: str, bounds: Bounds, data: Dataset, budget: int):
    """The runner state of a checked ``algorithm``, built from its initial design."""
    if algorithm in _TR_METHODS:
        return _TrustRegionStrategy(algorithm, bounds, data)
    if algorithm == "dycors":
        return _DycorsStrategy(bounds, data, budget)
    return _BoStrategy(bounds, constrained=algorithm == "cbo")


def run_optimizer(algorithm: str, problem: Problem, budget: int, seed: int) -> Trajectory:
    """Run one optimizer for exactly ``budget`` evaluations.

    ``check_cell`` refuses the algorithm, problem and budget before the
    first evaluation, as it does for a planned benchmark. The run then
    evaluates a Latin hypercube design of ``initial_design_size`` points,
    builds the method's state from it, and loops
    propose -> clip -> evaluate -> update. This is the one failure policy
    of all seven methods, whose steps raise rather than substitute a point:
    a numerical failure inside a proposal (a surrogate fit error,
    ``LinAlgError`` or ``FloatingPointError``) spends the remaining budget
    on random search, logged and recorded as ``fallback_at`` and
    ``fallback_reason`` in ``trajectory.meta``, so the trajectory still has
    exactly ``budget`` evaluations. Any other exception propagates,
    including :class:`~surropt.core.EvaluationFailed` from the problem.

    The whole run holds numpy's BLAS at one thread and then restores the
    caller's count (``core._one_blas_thread``), so the trajectory is the same
    at every thread setting of the caller, in a pool worker or not. The pin
    sits inside the body, not on a decorator, so a frame whose code is
    ``run_optimizer.__code__`` holds ``algorithm``, ``problem`` and ``seed``
    (perfbench attributes each fallback warning by them).
    """
    with _one_blas_thread():
        check_cell(algorithm, problem, budget)
        n_init = initial_design_size(algorithm, problem.dim)
        traj = Trajectory(budget=budget, seed=seed)
        noise_rng = substream(seed, "noise")
        for x in latin_hypercube(problem.bounds, n_init, derive_seed(seed, "init")):
            evaluate(problem, x, noise_rng, trajectory=traj)
        strategy = _make_strategy(algorithm, problem.bounds, Dataset.from_trajectory(traj), budget)

        k = 0
        while len(traj) < budget:
            step_seed = derive_seed(seed, "step", k)
            try:
                x = strategy.propose(Dataset.from_trajectory(traj), step_seed)
            except (SurrogateFitError, np.linalg.LinAlgError, FloatingPointError) as exc:
                logger.warning(
                    "%s failed at iteration %d (%s); random search for remaining budget",
                    algorithm, k, exc,
                )
                traj.meta["fallback_at"] = len(traj) + 1
                traj.meta["fallback_reason"] = f"{type(exc).__name__}: {exc}"
                fb = substream(seed, "fallback")
                while len(traj) < budget:
                    x_rand = fb.uniform(problem.bounds.lower, problem.bounds.upper)
                    evaluate(problem, x_rand, noise_rng, trajectory=traj)
                break
            ev = evaluate(problem, x, noise_rng, trajectory=traj)
            strategy.update(ev.x, ev.y, ev.g)
            k += 1
        return traj
