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

The four trust-region methods differ only in the fields of ``_TR_METHODS``
and share one public step, ``trust_region_step(kind, ...)``. The runner
drives each method as one generator over the run's record, whose every
``next()`` absorbs the newest evaluation and yields the next point to
evaluate: ``_gp_steps``, ``_trust_region_steps`` or ``_dycors_steps``.
Every trust-region step first solves its objective model exactly over
the ball and the box (``_trust_region_subproblem``: an ``eigh``, Newton on
the secular equation with the hard case of an indefinite Hessian, and an
active set over the box faces). That point is the step where the objective
model is the whole key: every ``lsqm`` step, and ``cuatro``, ``cobyla`` and
``cobyqa`` on data without constraint columns. A step that reads constraint
models passes it, with the centre, to the candidate-pool search as its
analytic seeds. Where ``cobyqa``'s model is indefinite, the box cuts off
its ball minimizer and the active set's end carries no certificate of
being the least, the step also runs the pool, seeded with the centre
alone, and keeps the lower point. The acquisition of ``bo`` and ``cbo``
uses the same derivative-free search (a seeded pool plus given candidates,
then coordinate pattern refinement). Either way every step
operation is a pure function of (data, state, seed). A box
pool is a Latin hypercube; a ball pool is normed normal directions with
radii radius * u^(1/d). The refinement evaluates its step levels ahead,
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
    LinModel,
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
_NEWTON_STEPS = 50  # secular-equation iterations of an exact ball step, at most
_ZERO_EIG = 1e-12  # an eigenvalue less than this times ||H|| below 0 counts as 0
_PENALTY_START = 100.0  # each constraint's merit penalty before any step
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


def _ball_candidates(center, radius, bounds, n, rng):
    """n points uniform in the ball around ``center``, clipped into the box.

    ``rng`` gives n normal directions, each normed, then n radii
    radius * u^(1/d) (Muller 1959).
    """
    d = center.size
    X = rng.standard_normal((n, d))
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    radii = radius * rng.uniform(size=(n, 1)) ** (1.0 / d)
    # in place: the bytes of np.clip(center + X / norms * radii, lower, upper)
    X /= norms
    X *= radii
    X += center
    return np.clip(X, bounds.lower, bounds.upper, out=X)


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
    (a Latin hypercube, or ``_ball_candidates``: uniform points in the ball
    around ``center``), plus the analytic candidates ``extra`` (the
    incumbent of a GP search; the centre and the exact objective step of a
    trust-region search), each projected into the box and the ball, is
    ranked as a stack of one, so the result is never above the best of
    ``extra`` by ``keys_fn``. Its best point x is refined by at most
    ``_REFINE_STEPS`` pattern steps: x moves to the best of its 2d trials
    x +/- step * e_j if that beats x's key, and otherwise the step halves.
    The step starts at radius/4 in a ball and at a tenth of the widest box
    side in a box. A ball search stops once the step falls below
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


def _ball_subproblem(g, H, radius):
    """(s, lam, shift): argmin g's + s'Hs/2 over ||s|| <= radius for a
    symmetric H, the ball's multiplier lam (Moré & Sorensen 1983), and
    shift = max(0, -w_min), which is > 0 exactly where H counts as indefinite.

    One ``eigh`` H = V diag(w) V', where eigenvalues less than
    ``_ZERO_EIG`` ||H|| below 0 count as 0, so a PSD H keeps its rounding. With a = V'g,
    s(lam) = -V a / (w + lam) for lam above shift = max(0, -w_min). lam = 0
    and the least-norm minimizer when H is PSD and that lies in the ball.
    Else the root of 1/||s(lam)|| - 1/radius, which is concave and
    increasing in lam > shift, by Newton from a lower bound, inside the
    bracket [lower, ||a|| / radius + shift]; Newton from the left stays left
    of the root, so the bracket only guards rounding, and the point is
    scaled onto the sphere at the end. The hard case, for an indefinite H:
    where a has no component along the lowest eigenvectors and s(shift)
    over the others lies inside the ball, lam = shift and a multiple of a
    lowest eigenvector takes the point to the sphere. Where those
    components are nonzero but lost in the rounding of lam, both points
    are made and the lower one is returned. For H = 0 the minimizer is
    -radius g / ||g||, in closed form, with lam = ||g|| / radius.
    """
    if not H.any():
        norm = float(np.linalg.norm(g))
        return (-radius * g / norm if norm else np.zeros_like(g)), norm / radius, 0.0
    w, V = np.linalg.eigh(H)
    tol = _ZERO_EIG * float(np.max(np.abs(w)))
    w = np.where(w < -tol, w, np.maximum(w, 0.0))  # a PSD H stays PSD
    a = V.T @ g
    shift = max(0.0, -float(w[0]))  # eigh sorts w ascending
    # |s_i(lam)| <= radius for every i needs lam >= |a_i| / radius - w_i
    lam = max(shift, float(np.max(np.abs(a) / radius - w)))
    if lam == 0.0:
        # every a_i with w_i = 0 is 0: the least-norm minimizer, when it fits
        z = np.divide(a, w, out=np.zeros_like(a), where=w > 0)
        if z @ z <= radius * radius:
            return -(V @ z), 0.0, 0.0
    candidates = []
    if shift > 0.0:
        # the hard case: lam = shift, the lowest eigenvectors fill the radius
        low = w <= w[0] + tol
        y = np.zeros_like(a)
        y[~low] = -a[~low] / (w[~low] + shift)
        left = radius * radius - y @ y
        if left >= 0.0:
            # along -a's lowest components, the first lowest eigenvector where they are 0
            u = -a[low]
            size = math.sqrt(u @ u)
            y[low] = math.sqrt(left) * (u / size if size else np.eye(u.size)[0])
            candidates.append((V @ y, shift))
    if lam > shift or not candidates:
        # where a_i = 0, s_i = 0 at every lam; elsewhere w_i + lam > 0 but
        # where a lowest a_i is below the rounding of lam, which counts as 0
        keep = (a != 0.0) & (w + lam > 0.0)
        a, w, V = a[keep], w[keep], V[:, keep]
        lo, hi = lam, math.sqrt(a @ a) / radius + shift
        for _ in range(_NEWTON_STEPS):
            z = a / (w + lam)
            norm = math.sqrt(z @ z)
            if abs(norm - radius) <= 1e-13 * radius:
                break
            if norm > radius:
                lo = lam
            else:
                hi = lam
            # Newton on 1/||s|| - 1/radius: its derivative is z'(z / (w + lam)) / ||s||^3
            step = lam + (norm - radius) / radius * norm * norm / float(z @ (z / (w + lam)))
            if not lo < step < hi:
                step = 0.5 * (lo + hi)
            if step == lam:
                break
            lam = step
        candidates.append((-(V @ z) * (radius / norm), lam))
    s, lam = min(candidates, key=lambda c: g @ c[0] + 0.5 * c[0] @ H @ c[0])
    return s, lam, shift


def _trust_region_subproblem(g, H, radius, lower, upper):
    """(s, certified): argmin g's + s'Hs/2 over ||s|| <= radius and
    lower <= s <= upper, for a symmetric H (H = 0: a linear model) and
    lower <= 0 <= upper, and whether s is certified as that minimizer.

    s is the ball's minimizer (``_ball_subproblem``) when it lies in the box,
    else the end of ``_box_walk`` towards it, which is the minimizer for a
    PSD H. For an indefinite H the walk's end is the minimizer where it is a
    KKT point whose ball multiplier lam makes H + lam I PSD: the Lagrangian
    is then convex and least there, and no point of ball and box lies below
    it. Short of that certificate (the box can cut the ball's minimizer off
    on one side of the lowest eigenvector and leave a lower point on the
    other) ``certified`` is False; it is True in every other case.

    A non-finite g or H raises ``np.linalg.LinAlgError``, as a failed
    ``eigh`` does, so that ``run_optimizer`` falls back.
    """
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(H))):
        raise np.linalg.LinAlgError("non-finite trust-region model")
    first, _, shift = _ball_subproblem(g, H, radius)
    if np.all((lower <= first) & (first <= upper)):
        return first, True
    s, lam = _box_walk(g, H, radius, lower, upper, first)
    return s, shift == 0.0 or (lam is not None and lam >= shift)


def _box_walk(g, H, radius, lower, upper, first):
    """An active-set loop over the box faces (Conn, Gould & Toint 2000,
    ch. 7), feasible throughout, for the ball-and-box problem.

    From s = 0 it walks towards ``first`` and, once a coordinate is fixed,
    towards the ball's minimizer over the free coordinates
    (``_ball_subproblem``), with the fixed ones at their bounds and the
    radius they leave. A coordinate that would leave the box on the way
    stops the walk there and is fixed at its bound. The model along a walk
    is a 1-D quadratic phi(t), and phi(1) is its least value on [0, 1],
    since the target minimizes the model over a ball that holds the whole
    segment. A convex phi is then falling up to the face at t < 1, and a
    concave one is least at 0 or at the face; where the face lies above s
    (only an indefinite H can do that) the loop ends at s. So each walk
    stops at its least value on [0, face] and none raises the model. Once
    a target is reached, a fixed coordinate whose bound multiplier has the
    wrong sign is released. Each pass lowers the model value or fixes one
    more coordinate; short of such a stop the loop ends at a KKT point.

    Returns (s, lam): lam is the ball's multiplier where the loop ends at a
    KKT point, and None where it ends short of one.
    """
    d = g.size
    s = np.zeros(d)
    fixed = np.zeros(d, dtype=bool)
    for _ in range(4 * d + 10):  # a bound on rounding-driven cycles only
        target, lam = s.copy(), 0.0
        left = radius * radius - s[fixed] @ s[fixed]
        if not fixed.any():
            target = first
        elif left > 0.0 and not fixed.all():
            free = ~fixed
            H_free = H[free]
            target[free], lam, _ = _ball_subproblem(g[free] + H_free[:, fixed] @ s[fixed],
                                                    H_free[:, free], math.sqrt(left))
        out = (target < lower) | (target > upper)
        if out.any():
            # walk from s towards the target up to the first face it crosses
            move = target - s
            moving = move != 0.0
            face = np.where(move > 0.0, upper, lower)
            reach = np.full(d, np.inf)
            reach[moving] = (face[moving] - s[moving]) / move[moving]
            t = max(float(np.min(reach)), 0.0)  # 0: a rounding put s a hair past a face
            if t * ((g + H @ s) @ move + 0.5 * t * (move @ H @ move)) > 0.0:
                return s, None  # the model would rise from s to the face
            hit = reach <= t
            s = s + t * move
            s[hit] = face[hit]
            fixed |= hit
            continue
        s = target
        if not fixed.any():
            return s, None
        # the Lagrangian's gradient g + Hs + lam s on a fixed coordinate is
        # minus its bound multiplier at the upper bound, plus it at the lower
        grad = g + H @ s + lam * s
        tol = 1e-10 * (math.sqrt(g @ g) + float(np.max(np.abs(grad - g))))
        wrong = fixed & np.where(s >= upper, grad > tol, grad < -tol)
        if not wrong.any():
            return s, lam
        fixed[np.argmax(np.where(wrong, np.abs(grad), -1.0))] = False
    return s, None


def _expansion(model, center):
    """(g, H) of m(center + s) - m(center) = g's + s'Hs/2."""
    if isinstance(model, LinModel):
        return model.g_hat, np.zeros((center.size, center.size))
    return 2.0 * model.Q @ center + model.c, 2.0 * model.Q


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
    feasibility_first: bool = False  # rank feasible-first instead of by merit
    radius_scale: float = 1.0  # searched ball radius / trust radius
    grows_penalty: bool = False  # raise the penalties after an infeasible step
    sees_constraints: bool = True  # False: the step fits the objective alone
    simplex: bool = False  # the step sees COBYLA's simplex, not the history


# fits are looked up at call time so that wrappers set on this module apply
_CUATRO = _TrustRegionMethod(
    fit=lambda data: fit_quadratic(data, psd=True), merit=_penalized_merit,
    feasibility_first=True, grows_penalty=True,
)
_TR_METHODS = {
    "lsqm": replace(_CUATRO, sees_constraints=False),  # its step reads no penalty
    "cuatro": _CUATRO,
    "cobyqa": _TrustRegionMethod(
        fit=lambda data: fit_quadratic(data), merit=_penalized_merit, grows_penalty=True,
    ),
    "cobyla": _TrustRegionMethod(
        fit=lambda data: fit_linear(data), merit=_max_merit, radius_scale=0.5, simplex=True,
    ),
}


def trust_region_step(
    kind: str, data: Dataset, bounds: Bounds, tr: TrustRegionState,
    penalties=None, seed: int = 0,
) -> TrustRegionStep:
    """One step of trust-region method ``kind``: lsqm, cuatro, cobyqa or cobyla.

    Fits the method's surrogates to ``data``, at least n_x + 1 samples
    (``lsqm`` ignores the constraint columns, ``cobyla`` expects its
    simplex), and minimizes over the trust-region ball within ``bounds``.
    The objective model is minimized exactly first
    (``_trust_region_subproblem``, with the (g, H) of the model's type:
    2Qc + c and 2Q for a QuadModel, which ``cobyqa``'s can make indefinite,
    g_hat and 0 for a LinModel), and that point x is the step on data
    without constraint columns. With constraint columns the step is the
    pool search's point, with the centre and x as its analytic candidates,
    so its key is never worse than that of x projected into the ball. Where
    an indefinite model's ball minimizer lies outside the box and the
    active set's end is not certified as the least, the step is the lower
    of x and the point of a pool search seeded with the centre alone.
    ``penalties`` holds one value > 0 per constraint column of ``data``, none
    when there are none, and defaults to 100 each.
    """
    method = _TR_METHODS[kind]
    if data.n < bounds.dim + 1:
        raise ConfigError(f"the {kind} step needs at least n_x + 1 samples")
    n_g = data.G.shape[1]
    if penalties is None:
        penalties = np.full(n_g, _PENALTY_START)
    penalties = np.atleast_1d(np.asarray(penalties, dtype=float))
    if penalties.shape != (n_g,) or not np.all(penalties > 0):
        raise ConfigError(f"need {n_g} penalties > 0, one per constraint column; got {penalties}")
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

    g, H = _expansion(f_model, tr.center)
    s, certified = _trust_region_subproblem(g, H, radius, bounds.lower - tr.center,
                                            bounds.upper - tr.center)
    x = bounds.clip(tr.center + s)
    if g_models:
        # the pool ranks the exact objective step among its candidates
        x = _pool_minimize(keys, bounds, seed, center=tr.center, radius=radius,
                           extra=[tr.center, x])
    elif not certified:
        # a pool seeded with x would only refine that KKT point; one seeded
        # with the centre alone can reach the lower side of the cut-off ball
        pool = _pool_minimize(keys, bounds, seed, center=tr.center, radius=radius,
                              extra=[tr.center])
        if merit_at(pool) < merit_at(x):
            x = pool
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


def _gp_steps(traj: Trajectory, bounds: Bounds, constrained: bool, step_seed):
    """bo's and cbo's loop: each proposal fits the run's record anew."""
    while True:
        propose = propose_cbo if constrained else propose_bo
        yield propose(Dataset.from_trajectory(traj), bounds, seed=step_seed())


def _simplex_vertices(bounds: Bounds, tr: TrustRegionState) -> np.ndarray:
    """The n_x points that with the centre make a right-angled simplex: the
    centre moved along each axis by the radius, towards the side of the box
    with more room and at most to its edge, and by at least 1e-8."""
    c = tr.center
    room_up, room_dn = bounds.upper - c, c - bounds.lower
    length = np.minimum(tr.radius, np.maximum(room_up, room_dn))
    direction = np.where(room_up >= room_dn, 1.0, -1.0)
    P = np.repeat(c[None, :], c.size, axis=0)
    P[np.diag_indices(c.size)] += direction * np.maximum(length, 1e-8)
    return P


def _trust_region_steps(kind: str, traj: Trajectory, bounds: Bounds, step_seed):
    """The loop of lsqm, cuatro, cobyqa and cobyla. The centre is a row of the
    record, at first the design's best point, and ``tr.center`` a read-only
    view of it. cobyla's simplex is a list of rows, at first the design's; a
    degenerate one becomes the centre's row and those of ``_simplex_vertices``,
    each evaluated as a step of its own, and is checked again."""
    method = _TR_METHODS[kind]
    data = Dataset.from_trajectory(traj)
    penalties = np.full(data.G.shape[1], _PENALTY_START)
    center = _best_index(data.y, data.G)
    width = float(np.max(bounds.width))
    tr = TrustRegionState(center=data.X[center], radius=0.1 * width, min_radius=1e-6,
                          max_radius=width)
    simplex = list(range(data.n))

    def merits(rows):
        # the method's merit of observed rows; a step that does not see the
        # constraints scores y alone, as its predicted reduction does
        g_list = list(data.G[rows].T) if method.sees_constraints else []
        return method.merit(data.y[rows], g_list, penalties)

    while True:
        # a rank-deficient E has a condition number of 1e15 or more, or inf
        while method.simplex and np.linalg.cond(data.X[simplex[1:]] - data.X[simplex[0]]) > 1e8:
            simplex = [center]
            for x in _simplex_vertices(bounds, tr):
                yield x
                data = Dataset.from_trajectory(traj)
                simplex.append(data.n - 1)
        step_data = (Dataset(data.X[simplex], data.y[simplex], data.G[simplex])
                     if method.simplex else data)
        step = trust_region_step(kind, step_data, bounds, tr, penalties, step_seed())
        yield step.x

        data = Dataset.from_trajectory(traj)
        new = data.n - 1
        merit_center, merit_new = merits([center, new])
        actual = float(merit_center - merit_new)
        ok = bool(feasible(data.G[new]))
        if method.simplex:
            # the worst vertex by merit that is not the centre makes way for the newest row
            for i in np.argsort(merits(simplex))[::-1]:
                if not np.array_equal(data.X[simplex[i]], tr.center):
                    simplex[i] = new
                    break
        tr = trust_region_update(tr, step.predicted_reduction, actual, step.on_boundary,
                                 new_point=data.X[new], feasible=ok)
        if actual > 0 and ok:
            center = new
        if not ok and method.grows_penalty:
            penalties = np.minimum(penalties * _PENALTY_GROWTH, _PENALTY_CAP)


def _dycors_steps(traj: Trajectory, bounds: Bounds, budget: int, step_seed):
    """dycors's loop: its counters run over the steps left after the design."""
    data = Dataset.from_trajectory(traj)
    state = DycorsState(iteration=0, max_iterations=max(budget - data.n, 1),
                        step_size=_DYCORS_STEP)
    while True:
        # the first sample of least y: the incumbent moves only on strict improvement
        incumbent = data.X[int(np.argmin(data.y))]
        yield dycors_step(data, bounds, state, incumbent, step_seed())
        data = Dataset.from_trajectory(traj)
        # a success beats every earlier sample
        state = dycors_update(state, data.y[-1] < data.y[:-1].min())


def _steps(algorithm: str, traj: Trajectory, bounds: Bounds, budget: int, seed: int):
    """The loop of a checked ``algorithm`` over ``traj``, which holds its design.
    Each point it yields takes the seed of its row's index after the design."""
    n_init = len(traj)

    def step_seed():
        return derive_seed(seed, "step", len(traj) - n_init)

    if algorithm in _TR_METHODS:
        return _trust_region_steps(algorithm, traj, bounds, step_seed)
    if algorithm == "dycors":
        return _dycors_steps(traj, bounds, budget, step_seed)
    return _gp_steps(traj, bounds, algorithm == "cbo", step_seed)


def run_optimizer(algorithm: str, problem: Problem, budget: int, seed: int) -> Trajectory:
    """Run one optimizer for exactly ``budget`` evaluations.

    ``check_cell`` refuses the algorithm, problem and budget before the
    first evaluation, as it does for a planned benchmark. The run then
    evaluates a Latin hypercube design of ``initial_design_size`` points,
    starts the method's loop (``_steps``) on it, and evaluates each point
    the loop yields, clipped into the box. One ``next()`` absorbs the last
    evaluation and makes the next proposal. This is the one failure policy
    of all seven methods, whose steps raise rather than substitute a point:
    a numerical failure inside a ``next()`` (a surrogate fit error,
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
        traj = Trajectory(budget, problem.dim, problem.n_constraints)
        noise_rng = substream(seed, "noise")
        for x in latin_hypercube(problem.bounds, n_init, derive_seed(seed, "init")):
            evaluate(problem, x, noise_rng, trajectory=traj)
        steps = _steps(algorithm, traj, problem.bounds, budget, seed)
        while len(traj) < budget:
            try:
                x = next(steps)
            except (SurrogateFitError, np.linalg.LinAlgError, FloatingPointError) as exc:
                logger.warning(
                    "%s failed at iteration %d (%s); random search for remaining budget",
                    algorithm, len(traj) - n_init, exc,
                )
                traj.meta["fallback_at"] = len(traj) + 1
                traj.meta["fallback_reason"] = f"{type(exc).__name__}: {exc}"
                fb = substream(seed, "fallback")
                while len(traj) < budget:
                    x_rand = fb.uniform(problem.bounds.lower, problem.bounds.upper)
                    evaluate(problem, x_rand, noise_rng, trajectory=traj)
                break
            evaluate(problem, x, noise_rng, trajectory=traj)
        return traj
