"""Surrogate models: Gaussian process, quadratic, linear, and cubic RBF.

All fits consume a :class:`~surropt.core.Dataset` (rows are samples) and
return immutable fitted models with cheap predict contracts. The GP uses a
squared-exponential kernel with per-dimension lengthscales on standardized
targets; hyperparameters are chosen by maximizing the log marginal likelihood
with the signal variance profiled out: seeded starts and per-lengthscale
grids factored as stacks, and noise-ratio sweeps on one eigendecomposition
(derivative-free, deterministic under seed).

The quadratic fit optionally projects its Hessian onto the PSD cone by
eigenvalue clipping; this replaces a semidefinite-programming formulation to
keep the toolkit dependency-free while preserving surrogate convexity.
"""

from __future__ import annotations

import functools
import math
import threading
import weakref
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import Dataset, substream

__all__ = [
    "SurrogateFitError",
    "GpModel",
    "QuadModel",
    "LinModel",
    "RbfModel",
    "fit_gp",
    "fit_gps",
    "gp_from_hyperparameters",
    "gp_posterior",
    "fit_quadratic",
    "psd_project",
    "fit_linear",
    "fit_rbf",
    "rbf_predict",
]

_DUPLICATE_TOL = 1e-10
_JITTERS = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4)
# Corner of the bordered kernel (_BorderedKernel): far above any ys' K^-1 ys it meets.
_BORDER_CORNER = 1e300
# Cap on the scaled squared distance in the SE kernel. exp(-230 / 2) is about
# 1.2e-50, a normal number, so no kernel entry is subnormal: np.exp and
# LAPACK run many times slower on subnormal values. Only entries already
# below 1.2e-50 sv move.
_SQDIST_CAP = 230.0


class SurrogateFitError(RuntimeError):
    """Raised when a surrogate cannot be fitted (singular or non-PD system)."""


def _distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(m, n) Euclidean distances between the rows of A (m, d) and B (n, d).

    ``sqrt(sum((a - b) ** 2, axis=-1))`` over one (m, n, d) difference tensor
    squared in place, exact at zero distance where the Gram identity is not.
    It serves ``_merge_duplicates`` (through ``fit_gps``,
    ``gp_from_hyperparameters`` and ``fit_rbf``), ``fit_rbf``'s kernel and
    ``rbf_predict``.
    """
    diff = A[:, None, :] - B[None, :, :]
    diff *= diff
    return np.sqrt(diff.sum(axis=-1))


def _centred_distances(A: np.ndarray, B: np.ndarray, origin: np.ndarray) -> np.ndarray:
    """(m, n) Euclidean distances between the rows of A and B, from one gemm.

    With a' = a - origin and b' = b - origin, D^2 = |a'|^2 + |b'|^2 - 2 a'.b',
    clamped at 0 before the root. Each D^2 is within 8 eps (|a'|^2 + |b'|^2)
    of the exact one (5.7 eps at most in tests/test_surrogates.py's cases),
    so an origin near both sets, as DYCORS's incumbent is, keeps the error on
    the scale of the distances themselves; far from the origin the identity
    loses the digits the difference sum of ``_distances`` keeps. A row of A
    equal to the origin is exactly 0 from a row of B equal to it.
    """
    A, B = A - origin, B - origin
    out = A @ (B * -2.0).T
    out += np.einsum("ij,ij->i", A, A)[:, None]
    out += np.einsum("ij,ij->i", B, B)
    np.maximum(out, 0.0, out=out)
    return np.sqrt(out, out=out)


def _merge_duplicates(dist: np.ndarray, y: np.ndarray):
    """Merge rows closer than ``_DUPLICATE_TOL``, averaging their y.

    ``dist`` is ``_distances(X, X)``, exactly 0 between equal rows, and y
    is (n,) or a (k, n) stack of targets. A row joins the first kept row
    that close; each kept row's y is the mean of its members in row order,
    one 1-D ``np.mean`` per target (a row mean of the 2-D stack rounds
    differently from 8 members on). A kept row with no other member keeps
    its own y plus 0.0: ``np.mean`` of one element sums it onto 0.0, which
    turns -0.0 into 0.0 and leaves every other value as it is. Returns the
    indices of the kept rows and their y.
    """
    rows = np.arange(dist.shape[0])
    close = dist < _DUPLICATE_TOL
    if np.count_nonzero(close) == rows.size and close.diagonal().all():
        # each row is close to itself alone: about 3% of a fit at n = 12, d = 2
        return rows, y + 0.0
    close = np.tril(close, k=-1)
    owner = rows.copy()
    for i in np.flatnonzero(close.any(axis=1)):
        hits = np.flatnonzero(close[i, :i] & (owner[:i] == rows[:i]))
        if hits.size:
            owner[i] = hits[0]
    kept = rows[owner == rows]
    y_kept = y[..., kept] + 0.0
    for j in np.flatnonzero(np.bincount(owner)[kept] > 1):
        members = owner == kept[j]
        for target, merged in zip(np.atleast_2d(y), np.atleast_2d(y_kept)):
            merged[j] = np.mean(target[members])
    return kept, y_kept


def _unit_kernel(planes: np.ndarray, lengthscales) -> np.ndarray:
    """The flat (n*n,) SE training kernel at unit signal variance.

    ``lengthscales`` is (d,), or (s, d) for an (s, n*n) stack of kernels.
    One product weighs the planes by 1 / l_k^2, giving minus half the scaled
    squared distance; it is bounded below by ``-_SQDIST_CAP / 2`` and
    exponentiated in place. The weights enter as an (..., 1, d) operand, one
    gemv per kernel, so each kernel of a stack equals, bit for bit, the
    kernel of its lengthscales alone. The diagonal is exactly 1, and so no
    entry is below exp(-115).
    """
    W = 1.0 / (lengthscales * lengthscales)
    S = (W[..., None, :] @ planes)[..., 0, :]
    np.maximum(S, -0.5 * _SQDIST_CAP, out=S)
    return np.exp(S, out=S)


def _se_kernel(A, B, lengthscales, signal_variance) -> np.ndarray:
    """SE-ARD cross kernel k(a, b) between the rows of A and of B (n, d).

    A is an (m, d) batch or an (..., m, d) stack of them; the result has
    shape (..., m, n). The scaled squared distances come from the Gram
    identity, bounded to [0, ``_SQDIST_CAP``], and the rest is done in place
    on the one output buffer, so every entry is at or above
    ``sv * exp(-115)`` (about 1.2e-50 sv) and no product downstream meets a
    subnormal number. The matmul's left operand is the separate buffer
    ``2.0 * As``: numpy sends ``As @ As.T`` on one buffer to BLAS syrk,
    which rounds differently from gemm. A stacked matmul makes one BLAS
    call per (m, d) slice and the row sums run along the last axis, so each
    slice of a stack equals, bit for bit, the kernel of that slice alone.
    The training kernel of a GP fit is built from planes instead
    (``_BorderedKernel.unit``).
    """
    As = A / lengthscales
    Bs = B / lengthscales
    K = np.sum(As**2, axis=-1)[..., None] + np.sum(Bs**2, axis=1)
    K -= (2.0 * As) @ Bs.T
    np.maximum(K, 0.0, out=K)
    np.minimum(K, _SQDIST_CAP, out=K)
    K *= -0.5
    np.exp(K, out=K)
    K *= signal_variance
    return K


def _chol_with_jitter(K: np.ndarray):
    for jitter in _JITTERS:
        try:
            L = np.linalg.cholesky(K if jitter == 0.0 else K + jitter * np.eye(K.shape[0]))
            return L, jitter
        except np.linalg.LinAlgError:
            continue
    raise SurrogateFitError(
        "kernel matrix not positive definite after jitter escalation to 1e-4"
    )


def _chol_stack(M: np.ndarray) -> np.ndarray:
    """Cholesky factors of an (s, m, m) stack, in one ``np.linalg.cholesky`` call.

    Where a member does not factor, the call raises for the whole stack; then
    each member is factored on its own through the jitter ladder, and one that
    fails even there is all nan. Either way each factor has the bytes of the
    single call on its member.
    """
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        F = np.full_like(M, np.nan)
        for i, Mi in enumerate(M):
            try:
                F[i] = _chol_with_jitter(Mi)[0]
            except SurrogateFitError:
                pass
        return F


# ------------------------------------------------------------------ GP


@dataclass(frozen=True)
class GpModel:
    """Fitted zero-mean GP on standardized targets (SE-ARD kernel).

    ``chol_factor`` is L with L L' = K + nv I, ``chol_inverse`` is L^-1,
    computed once at fit time so that a posterior needs no solve,
    ``alpha`` is (K + nv I)^-1 ys, and ``log_marginal_likelihood`` is the
    LML of that factor (``_lml``).
    """

    X_train: np.ndarray
    y_train: np.ndarray  # standardized
    kernel_lengthscales: np.ndarray
    signal_variance: float
    noise_variance: float  # standardized units
    chol_factor: np.ndarray
    chol_inverse: np.ndarray
    alpha: np.ndarray
    y_mean: float
    y_std: float
    log_marginal_likelihood: float


def _standardize(y):
    """(y - mean) / std with the mean and scale; constant targets keep unit scale.

    The mean and the population std are the sums ``np.mean`` and ``np.std``
    take, written out, so they have the same bytes at a quarter of the cost
    (a hypothesis test pins the bytes to theirs). That saves about 3% of a
    fit at n = 12, d = 2; with the early return in ``_merge_duplicates`` it
    pays for the bookkeeping a stack of one carries in ``fit_gps``.
    """
    y_mean = float(y.sum() / y.size)
    centred = y - y_mean
    y_scale = math.sqrt((centred * centred).sum() / y.size)
    if y_scale <= 0:
        y_scale = 1.0
    return centred / y_scale, y_mean, y_scale


# The box fit_gp searches, in standardized units: the signal and noise
# variances, and the lengthscales as multiples of each input's spread.
_SV_BOX = (1e-4, 1e4)
_NV_BOX = (1e-8, 1.0)
_LS_BOX = (1e-2, 1e2)
# Seeded random starts, factored as one stack together with the box centre.
_STARTS = 8
# The lengthscale passes, as (half-width, unit grid): each lengthscale in
# turn gets a grid of 7 points over +-1.5 decades around its value (the box
# permitting), and in the second pass one of 5 points over a quarter of that
# span. A fit factors 10 + 12 d bordered kernels per model. Without the fine
# pass the fit ends further below the L-BFGS-B oracle than its tests allow.
_SPAN = 1.5 * math.log(10.0)
_PASSES = ((_SPAN, np.linspace(0.0, 1.0, 7)), (_SPAN / 4, np.linspace(0.0, 1.0, 5)))
# The last coordinate is swept on _SWEEP points over its whole box, then on
# _SWEEP points between the best's two neighbours.
_SWEEP = 33
_SWEEP_UNIT = np.linspace(0.0, 1.0, _SWEEP)
_SWEEP_FINE = np.linspace(-1.0, 1.0, _SWEEP + 2)[1:-1]


class _BorderedKernel:
    """The training kernels of one GP fit, bordered by its targets.

    One Cholesky of the bordered matrix::

        M = [[K, ys],      chol(M) = [[L,  0],
             [ys', c ]]                [v', s]]

    gives both L, with L L' = K, and v = L^-1 ys: LAPACK's factorization
    does the forward substitution, and s^2 = c - v'v. Border row and column
    are both filled, so the result does not depend on which triangle LAPACK
    reads. The corner c is ``_BORDER_CORNER`` (1e300). v'v = ys' K^-1 ys is
    at most ||ys||^2 / lambda_min, where ||ys||^2 = n for standardized
    targets, so no kernel that factors comes near c. Were v'v >= c, the last
    pivot would fail and the jitter ladder would run, as for a kernel that
    is not positive definite.

    ``ys`` is a (k, n) stack of targets over the one X, one row per model;
    a 1-D ys is a stack of one. A stack of kernels lists the models in
    order, the same number of kernels each, and model i's kernels are
    bordered by row i. The planes P_k[i, j] = -(x_ik - x_jk)^2 / 2 of X are
    written once per fit, in place, into the K block of a zero-bordered
    (d, n+1, n+1) buffer, so a product of the weights with them lays out
    each kernel as the K block of its bordered matrix. Each plane is
    symmetric and zero on its diagonal, exactly.
    :meth:`terms` factors a stack of unit kernels ``E_j + r_j I`` for the
    search, and ``_build_gps`` one kernel ``E_i sv_i + nv_i I`` per model
    for the fitted models, each stack in one ``_chol_stack`` call.
    """

    def __init__(self, X: np.ndarray, ys: np.ndarray):
        n, d = X.shape
        self.X, self.ys = X, np.atleast_2d(ys)
        planes = np.zeros((d, n + 1, n + 1))
        P = planes[:, :n, :n]
        np.subtract(X.T[:, :, None], X.T[:, None, :], out=P)
        np.square(P, out=P)
        P *= -0.5
        self.planes = planes.reshape(d, -1)

    def unit(self, lengthscales) -> np.ndarray:
        """The (..., n, n) training kernels at these (..., d) lengthscales and unit sv."""
        n = self.X.shape[0]
        E = _unit_kernel(self.planes, lengthscales)
        return E.reshape(E.shape[:-1] + (n + 1, n + 1))[..., :n, :n]

    def _border(self, M: np.ndarray, diagonal) -> np.ndarray:
        """Make each K of the stack M [[K + diagonal I, ys_i], [ys_i', c]], i its model."""
        n, k = self.X.shape[0], self.ys.shape[0]
        M.reshape(M.shape[:-2] + (-1,))[..., :n * (n + 2):n + 2] += np.asarray(diagonal)[..., None]
        by_model = M.reshape(k, -1, n + 1, n + 1)
        by_model[..., :n, n] = by_model[..., n, :n] = self.ys[:, None, :]
        M[..., n, n] = _BORDER_CORNER
        return M

    def terms(self, lengthscales: np.ndarray, ratio):
        """Half log-determinant and v'v = ys_i'(E_j + r_j I)^-1 ys_i of each unit kernel.

        One unit kernel E_j per row of the (s, d) ``lengthscales``, s / k
        per model in model order, with the ratio r_j one per row or shared.
        The s bordered matrices are factored in one call (``_chol_stack``);
        a member that does not factor gets nan.
        """
        n = self.X.shape[0]
        M = _unit_kernel(self.planes, lengthscales).reshape(-1, n + 1, n + 1)
        F = _chol_stack(self._border(M, ratio))
        v = F[:, n, :n]
        diagonal = F.reshape(F.shape[0], -1)[:, :n * (n + 2):n + 2]
        return np.log(diagonal).sum(axis=1), (v * v).sum(axis=1)


def _profile(half_logdet, vv, n: int, sv_lo, sv_hi):
    """The LML of sv (E + r I) at its best sv in [sv_lo, sv_hi], and that sv.

    From the half log-determinant of E + r I and vv = ys'(E + r I)^-1 ys,
    the LML is -vv / (2 sv) - half_logdet - (n/2) log(2 pi sv). It is
    unimodal in sv with its peak at sv = vv / n (the process variance
    concentrated out, as in Jones, Schonlau & Welch 1998), so the peak
    clipped to the box is the best sv in it. nan, a kernel that did not
    factor, gives -inf.
    """
    sv = np.minimum(np.maximum(vv / n, sv_lo), sv_hi)
    lml = -0.5 * vv / sv - half_logdet - 0.5 * n * np.log(2 * math.pi * sv)
    return np.fmax(lml, -np.inf), sv


def _ratio_box(t, fixed_nv):
    """(r, sv_lo, sv_hi) at the search's last coordinate t.

    t is log r, r = nv / sv, when the noise is estimated: sv is then
    profiled out within its box and the bounds that keep nv = r sv in its
    box. With a fixed nv, t is log sv, and r = nv / sv; ``fixed_nv`` holds
    one nv per model, and t the same number of trials for each model.
    """
    if fixed_nv is None:
        r = np.exp(t)
        return r, np.maximum(_SV_BOX[0], _NV_BOX[0] / r), np.minimum(_SV_BOX[1], _NV_BOX[1] / r)
    sv = np.exp(t)
    return fixed_nv.repeat(t.size // fixed_nv.size) / sv, sv, sv


def _lml(L, v) -> float:
    """-v'v/2 - sum(log L_ii) - (n/2) log(2 pi), with v = L^-1 ys (R&W Alg. 2.1)."""
    return float(
        -0.5 * v @ v - np.log(L.diagonal()).sum() - 0.5 * v.size * math.log(2 * math.pi)
    )


def _build_gps(bk: _BorderedKernel, lengthscales, signal_variance, noise_variance,
               y_mean, y_scale) -> list:
    """The k models of ``bk``'s stack, factored at their hyperparameters in one call.

    Model i takes row i of the (k, d) ``lengthscales`` and entry i of the
    other (k,) sequences. Its kernel ``E_i sv_i + nv_i I``, bordered by its
    targets as in :meth:`_BorderedKernel.terms`, is one member of a
    ``_chol_stack`` call, which gives L_i and v_i = L_i^-1 ys_i; the model
    stores L_i^-1, alpha and the LML of that factor (``_lml``). A kernel
    that does not factor even with jitter raises :class:`SurrogateFitError`.
    """
    n = bk.X.shape[0]
    M = _unit_kernel(bk.planes, lengthscales).reshape(-1, n + 1, n + 1)
    M *= np.asarray(signal_variance, dtype=float)[:, None, None]
    F = _chol_stack(bk._border(M, noise_variance))
    models = []
    for i, Fi in enumerate(F):
        if np.isnan(Fi).all():
            raise SurrogateFitError(
                "kernel matrix not positive definite after jitter escalation to 1e-4"
            )
        L, v = Fi[:n, :n], Fi[n, :n]
        models.append(GpModel(
            X_train=bk.X,
            y_train=bk.ys[i],
            kernel_lengthscales=lengthscales[i],
            signal_variance=float(signal_variance[i]),
            noise_variance=float(noise_variance[i]),
            chol_factor=L,
            chol_inverse=np.linalg.solve(L, np.eye(n)),
            alpha=np.linalg.solve(L.T, v),
            y_mean=float(y_mean[i]),
            y_std=float(y_scale[i]),
            log_marginal_likelihood=_lml(L, v),
        ))
    return models


def _fixed_noise_variance(noise_variance) -> float:
    """A fixed noise variance as a float, or a ValueError unless it is finite and >= 0."""
    nv = float(noise_variance)
    if not 0.0 <= nv < math.inf:
        raise ValueError(f"noise_variance must be finite and >= 0, got {noise_variance!r}")
    return nv


def _positive_finite(name: str, value, shape: tuple) -> np.ndarray:
    """``value`` broadcast to ``shape`` as floats, or a ValueError naming ``name``
    unless it broadcasts and every entry is finite and > 0."""
    try:
        arr = np.broadcast_to(np.asarray(value, dtype=float), shape)
    except ValueError:
        raise ValueError(f"{name} must broadcast to shape {shape}, "
                         f"got shape {np.shape(value)}") from None
    if not np.all((arr > 0.0) & (arr < math.inf)):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    return arr


def gp_from_hyperparameters(
    data: Dataset,
    lengthscales,
    signal_variance: float,
    noise_variance: float,
    standardize: bool = True,
) -> GpModel:
    """Construct a GP with fixed hyperparameters (no marginal-likelihood search).

    With ``standardize=False`` the targets are used raw under a zero-mean
    prior, and ``noise_variance``/``signal_variance`` are in output units.
    A ValueError names the argument when ``lengthscales`` does not broadcast
    to one per dimension or any of them, or ``signal_variance``, is nan, inf
    or <= 0, and when ``noise_variance`` is negative, nan or inf.
    """
    lengthscales = _positive_finite("lengthscales", lengthscales, (1, data.X.shape[1]))
    sv = _positive_finite("signal_variance", signal_variance, (1,))
    nv = _fixed_noise_variance(noise_variance)
    kept, y = _merge_duplicates(_distances(data.X, data.X), data.y)
    X = data.X[kept]
    ys, y_mean, y_scale = _standardize(y) if standardize else (y, 0.0, 1.0)
    return _build_gps(_BorderedKernel(X, ys), lengthscales.copy(), sv,
                      [nv / y_scale**2], [y_mean], [y_scale])[0]


def fit_gp(
    data: Dataset,
    noise_variance: Union[str, float] = "estimated",
    seed: int = 0,
) -> GpModel:
    """Fit a GP to ``data.y`` by maximizing its log marginal likelihood.

    This is :func:`fit_gps` on a stack of one target with this seed; the
    search and ``noise_variance`` are described there. A target that is one
    row of a stack, with the same seed, gets this model bit for bit.
    """
    return fit_gps(data.X, data.y[None], [seed], noise_variance)[0]


def fit_gps(
    X: np.ndarray,
    Y: np.ndarray,
    seeds,
    noise_variance: Union[str, float] = "estimated",
) -> list:
    """Fit one GP per row of the (k, n) targets Y over the one X, in lockstep.

    Each model maximizes the log marginal likelihood of its standardized
    targets, from its own seed; ``noise_variance`` is ``"estimated"``
    (fitted alongside the kernel hyperparameters) or a fixed float >= 0 in
    output units, for every model; a negative, nan or inf one is a
    ValueError. The kernel is written K = sv (E + r I), with E the unit SE
    kernel and r = nv / sv. For given lengthscales and r the best sv is
    closed-form (``_profile``), so the search runs over the log
    lengthscales and one last coordinate t: log r, or log sv where nv is
    fixed (Rasmussen & Williams 2006, sec. 5.4). Each model takes the best
    of 8 seeded random starts and the box centre, and then:

    - sweeps t: one ``eigh`` of the unit kernel E, after which each t costs
      O(n), over t's box and then finer around its best (``sweep``);
    - gives each lengthscale in turn a grid of 7 points over +-1.5 decades,
      and sweeps t again;
    - does the same with grids of 5 points over +-3/8 decade, and sweeps t
      a last time (``_PASSES``).

    The models share what depends on X alone: the merge of duplicate rows,
    the planes of the kernel, the input widths and the search box. Each
    step takes all k models at once, as in batch-mode GP libraries: the
    starts are one stack of k * 9 bordered kernels, and each lengthscale
    grid one of k * 7 or k * 5 (``_BorderedKernel.terms``), each sweep takes
    one stacked ``eigh``, and each model keeps the best of its own trials.
    The k chosen models are factored as one more stack (``_build_gps``), and
    each stores its factor's LML. That is 2 d + 2 Cholesky calls and 3
    ``eigh`` calls for the whole stack, over 10 + 12 d bordered kernels per
    model: at d = 2, 6 calls over 34 kernels. A model has the bytes it has
    as a stack of one (``fit_gp``). The fit raises
    :class:`SurrogateFitError` if every start of any model fails, or if a
    chosen kernel does not factor.
    """
    X = np.asarray(X, dtype=float)
    kept, Y = _merge_duplicates(_distances(X, X), np.atleast_2d(Y))
    X = X[kept]
    if X.shape[0] < 1:
        raise SurrogateFitError("no samples to fit")
    (n, d), k = X.shape, Y.shape[0]
    if len(seeds) != k:
        raise ValueError("fit_gps needs one seed per row of Y")
    ys = np.empty(Y.shape)  # C order: a row of Y[:, kept] is strided
    y_mean, y_scale = np.empty(k), np.empty(k)
    for i, y in enumerate(Y):
        ys[i], y_mean[i], y_scale[i] = _standardize(y)
    bk = _BorderedKernel(X, ys)

    widths = X.max(axis=0) - X.min(axis=0)
    widths[widths <= 0] = 1.0

    estimate_noise = isinstance(noise_variance, str)
    if estimate_noise and noise_variance != "estimated":
        raise ValueError("noise_variance must be 'estimated' or a float")
    fixed_nv = None if estimate_noise else _fixed_noise_variance(noise_variance) / y_scale**2

    # log-space search box: the lengthscales, then t
    t_box = ((_NV_BOX[0] / _SV_BOX[1], _NV_BOX[1] / _SV_BOX[0]) if estimate_noise
             else _SV_BOX)
    lo = np.append(np.log(_LS_BOX[0] * widths), math.log(t_box[0]))
    hi = np.append(np.log(_LS_BOX[1] * widths), math.log(t_box[1]))

    def factored(trials):
        """(LML, sv) of each row of the (s, d + 1) trials, from one stack."""
        r, sv_lo, sv_hi = _ratio_box(trials[:, d], fixed_nv)
        return _profile(*bk.terms(np.exp(trials[:, :d]), r), n, sv_lo, sv_hi)

    # Each model's best so far, a (value, theta, sv) triple; improve replaces it.
    best = [(-np.inf, 0.5 * (lo + hi), None)] * k

    def improve(c, grids, evaluate):
        """Replace each model's best by its best trial where that is better.

        Model i's trials are its best theta with coordinate c set to each
        entry of ``grids[i]`` (with a slice c, each row sets those
        coordinates), clipped to the box. The (k * s, d + 1) trials go to
        ``evaluate`` as one stack, model after model.
        """
        s = len(grids[0])
        trials = np.empty((k, s, d + 1))
        for i, ((_, theta, _), grid) in enumerate(zip(best, grids)):
            trials[i] = theta
            trials[i, :, c] = np.minimum(np.maximum(grid, lo[c]), hi[c])
        trials = trials.reshape(-1, d + 1)
        values, svs = evaluate(trials)
        for i in range(k):
            j = i * s + int(values[i * s:(i + 1) * s].argmax())
            if values[j] > best[i][0]:
                best[i] = (values[j], trials[j], svs[j])

    # the starts set every coordinate: 8 seeded ones and the box centre
    starts = [np.vstack([substream(seed, "gp-hypers").uniform(lo, hi, size=(_STARTS, d + 1)),
                         best[0][1]]) for seed in seeds]
    improve(slice(None), starts, factored)
    if not all(math.isfinite(value) for value, _, _ in best):
        raise SurrogateFitError("all hyperparameter starts failed")

    coarse = [lo[d] + (hi[d] - lo[d]) * _SWEEP_UNIT] * k
    fine = (hi[d] - lo[d]) / (_SWEEP - 1) * _SWEEP_FINE

    def sweep():
        """Each model's best improved along t on one eigendecomposition of its unit kernel.

        With E = Q diag(lam) Q' and z = Q'ys, E + r I has half
        log-determinant sum(log(lam + r)) / 2 and ys'(E + r I)^-1 ys =
        sum(z^2 / (lam + r)). A shift lam + r <= 0 does not factor.
        """
        thetas = np.array([theta for _, theta, _ in best])
        lam, Q = np.linalg.eigh(bk.unit(np.exp(thetas[:, :d])))
        z2 = np.square(np.swapaxes(Q, -1, -2) @ ys[..., None])[..., 0]
        # one row per trial, as improve lays the trials out
        lam, z2 = lam.repeat(_SWEEP, axis=0), z2.repeat(_SWEEP, axis=0)

        def swept(trials):
            r, sv_lo, sv_hi = _ratio_box(trials[:, d], fixed_nv)
            shifted = lam + r[:, None]
            factors = (shifted > 0).all(axis=1)
            shifted[~factors] = 1.0
            values, svs = _profile(0.5 * np.log(shifted).sum(axis=1),
                                   (z2 / shifted).sum(axis=1), n, sv_lo, sv_hi)
            values[~factors] = -np.inf
            return values, svs

        improve(d, coarse, swept)
        improve(d, [theta[d] + fine for _, theta, _ in best], swept)

    sweep()
    for span, unit in _PASSES:
        for c in range(d):
            grids = []
            for _, theta, _ in best:
                a, b = max(lo[c], theta[c] - span), min(hi[c], theta[c] + span)
                grids.append(a + (b - a) * unit)
            improve(c, grids, factored)
        sweep()

    nvs = fixed_nv if fixed_nv is not None else [
        min(max(math.exp(theta[d]) * sv, _NV_BOX[0]), _NV_BOX[1]) for _, theta, sv in best]
    return _build_gps(bk, np.array([np.exp(theta[:d]) for _, theta, _ in best]),
                      [sv for _, _, sv in best], nvs, y_mean, y_scale)


def _posterior_mean(model: GpModel, X_query: np.ndarray):
    """De-standardized posterior mean k* alpha at the rows of X_query, and k*.

    X_query is an (m, d) batch or an (..., m, d) stack; the mean has its
    leading shape, (..., m), and k* is (..., m, n).
    """
    k_star = _se_kernel(
        X_query, model.X_train, model.kernel_lengthscales, model.signal_variance
    )
    return (k_star @ model.alpha) * model.y_std + model.y_mean, k_star


def gp_posterior(model: GpModel, x):
    """Posterior mean and variance at ``x`` (de-standardized).

    Accepts a single point (returns two floats), an (m, d) batch or an
    (..., m, d) stack of batches (returns two arrays of shape (m,) or
    (..., m)). With k* the cross kernel, the mean is k* alpha
    (``_posterior_mean``) and the variance sv - rowsum(W**2) with
    W = k* L^-T: one gemm against the model's stored ``chol_inverse``, no
    solve per call (R&W 2006, Alg. 2.1). Each slice of a stack gets the
    same bits as that slice passed on its own.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    mu, k_star = _posterior_mean(model, np.atleast_2d(x))
    W = k_star @ model.chol_inverse.T
    var_std = np.maximum(model.signal_variance - np.sum(W**2, axis=-1), 0.0)
    var = var_std * model.y_std**2
    if single:
        return float(mu[0]), float(var[0])
    return mu, var


# ------------------------------------------------------------------ quadratic


@dataclass(frozen=True)
class QuadModel:
    """Quadratic surrogate f(x) = x'Qx + c'x + b with symmetric Q."""

    Q: np.ndarray
    c: np.ndarray
    b: float

    def predict(self, x):
        """Value at a point (a float), or at each row of an (m, d) batch or
        an (..., m, d) stack.

        The quadratic term is one gemm ``X @ Q`` and a row sum of its
        product with X along the last axis. A stacked matmul makes one BLAS
        call per slice, so each slice of a stack gets, bit for bit, the
        values it gets on its own.
        """
        x = np.asarray(x, dtype=float)
        X = x[None, :] if x.ndim == 1 else x
        vals = np.sum((X @ self.Q) * X, axis=-1) + X @ self.c + self.b
        return float(vals[0]) if x.ndim == 1 else vals


def psd_project(Q: np.ndarray) -> np.ndarray:
    """Frobenius-nearest PSD matrix: symmetrize, clip eigenvalues at zero."""
    S = 0.5 * (Q + Q.T)
    w, V = np.linalg.eigh(S)
    w = np.maximum(w, 0.0)
    P = (V * w) @ V.T
    return 0.5 * (P + P.T)


@functools.lru_cache(maxsize=None)
def _quadratic_terms(d: int):
    """(iu, ju, iu == ju) of the x_i * x_j terms, i <= j in row-major order.

    Computed once per d and read-only, since every call shares them.
    """
    iu, ju = np.triu_indices(d)
    terms = (iu, ju, iu == ju)
    for a in terms:
        a.flags.writeable = False
    return terms


def _write_features(X: np.ndarray, A: np.ndarray) -> None:
    """Write the quadratic features of each row of X into the rows of A:
    1, x_i, then x_i * x_j for i <= j."""
    d = X.shape[1]
    iu, ju, _ = _quadratic_terms(d)
    A[:, 0] = 1.0
    A[:, 1 : 1 + d] = X
    np.multiply(X.T[iu], X.T[ju], out=A[:, 1 + d :].T)


class _DualFactor:
    """The Q of a thin QR factor M = QR of the dual ridge system
    M = [A'; s I_n] of the rows it was built from, grown by one column per
    appended row.

    Column k of M is [a_k; s e_k], a_k the p features of row k. ``Qt`` holds
    Q' by rows, and q_k is zero past entry p + k, so a row is written once
    and a later append never changes it: the factor of the first k rows is
    the first k rows of ``Qt`` of any longer one, bit for bit. R is never
    formed: s I_n = Q_bot R gives R^-1 = Q_bot / s, so the dual solution is
    w = Q_bot Q_bot' y / s^2 and beta = A'w = Q_top Q_bot' y / s.

    The buffers are sized once for the dual route's largest n, p - 1, and
    written only as far as the rows go: at d = 32 that is 5 MB of address
    space, of which a run touches about 9 KB per row, and no smaller
    buffers are left behind in the heap as a growing one would.
    """

    def __init__(self, d: int, s: float):
        self.d, self.s = d, s
        self.p = 1 + d + _quadratic_terms(d)[0].size
        self.n = 0
        self.rows = np.empty((self.p - 1, d))  # the rows appended, bit for bit
        self.Qt = np.empty((self.p - 1, 2 * self.p - 1))

    def extend(self, X: np.ndarray) -> None:
        """Append the rows of X past the first ``self.n``, one at a time.

        Each new column is orthogonalized against Q by two classical
        Gram-Schmidt passes ("twice is enough": Giraud, Langou and
        Rozloznik 2005), at O((p + n) n) each, and normalized.
        """
        n, p, k0 = X.shape[0], self.p, self.n
        if n <= k0:
            return
        Qt = self.Qt
        self.rows[k0:n] = X[k0:n]
        _write_features(X[k0:n], Qt[k0:n, :p])
        Qt[k0:n, p:] = 0.0
        for k in range(k0, n):
            Qt[k, p + k] = self.s
            v, Qk = Qt[k, : p + k + 1], Qt[:k, : p + k + 1]
            v -= (Qk @ v) @ Qk
            v -= (Qk @ v) @ Qk
            v /= math.sqrt(v @ v)
            self.n = k + 1

    def beta(self, y: np.ndarray) -> np.ndarray:
        """The ridge coefficients Q_top Q_bot' y / s for the first y.size rows."""
        n, p = y.size, self.p
        return (self.Qt[:n, p : p + n] @ (y / self.s)) @ self.Qt[:n, :p]


class _FactorMemo:
    """One thread's dual factor and a weak reference to the record (the array
    that owns the fitted rows' memory) it last served; the factor is dropped
    when that record is."""

    def __init__(self):
        self.factor = self.record = None

    def forget(self, record) -> None:
        if self.record is record:
            self.factor = self.record = None


_memos = threading.local()


def _dual_factor(X: np.ndarray, s: float) -> _DualFactor:
    """This thread's dual factor, grown to X's rows.

    The rows it shares with X from the first on are kept, and it appends
    X's rows from the first that differs (all of them for a new factor).
    Since a factor's first k columns depend only on its first k rows, the
    result is the factor of X alone, bit for bit.
    """
    memo = getattr(_memos, "memo", None)
    if memo is None:
        memo = _memos.memo = _FactorMemo()
    n, d = X.shape
    f = memo.factor
    if f is None or f.d != d or f.s != s:
        f = _DualFactor(d, s)
    m = min(f.n, n)
    same = np.all(f.rows[:m].view(np.int64) == X[:m].view(np.int64), axis=1)
    if not same.all():
        f.n = int(np.argmin(same))
    f.extend(X)
    record = X
    while isinstance(record.base, np.ndarray):
        record = record.base
    if memo.record is None or memo.record() is not record:
        memo.record = weakref.ref(record, memo.forget)
    memo.factor = f
    return f


def fit_quadratic(
    data: Dataset, ridge: float = 1e-8, psd: bool = False
) -> QuadModel:
    """Ridge least-squares quadratic fit; optionally PSD-project the Hessian.

    The n x p feature matrix A has p = 1 + d + d(d+1)/2 columns. With
    ``ridge > 0`` the coefficients are beta = (A'A + ridge I)^-1 A'y, the
    least-squares solution of one of two augmented systems (s = sqrt(ridge)):

    - n >= p (primal): [A; s I_p] beta = [y; 0], p unknowns. The system and
      its right-hand side are written into one buffer [M | b]; one
      Householder QR keeps only R, and back substitution in its leading
      block against its last column gives beta. The s I block gives M full
      column rank, with no singular value below s, so no rank-revealing
      solve is needed.
    - n < p (dual): [A'; s I_n] w = [0; y / s], n unknowns, then beta = A'w,
      the same minimizer at O(p n^2) instead of O(p^3) (p = 561 at d = 32).
      Its thin QR factor grows by one column per row (:class:`_DualFactor`),
      so a fit on a record one row longer than the last costs O((p + n) n),
      not a new QR, and beta = Q_top Q_bot' y / s needs neither R nor A.
      Each thread keeps its last factor: a call appends only the rows from
      the first one that differs from the factor's, and the factor is
      dropped with the record its rows were last read from. A factor's
      first k columns depend only on its first k rows, so a fit's bytes
      depend only on its data, and one factor serves a step's objective and
      every constraint model.

    With ``ridge == 0`` it is plain ``lstsq(A, y)``: the minimum-norm
    least-squares solution. Either way the fit is well-posed from n_x + 1
    samples onward. A ValueError names ``ridge`` unless 0 <= ridge < inf.
    """
    if not 0.0 <= ridge < math.inf:
        raise ValueError(f"ridge must be finite and >= 0, got {ridge!r}")
    X = data.X
    y = data.y
    n, d = X.shape
    iu, ju, diagonal = _quadratic_terms(d)
    p = 1 + d + iu.size
    if ridge > 0 and n < p:
        beta = _dual_factor(X, math.sqrt(ridge)).beta(y)
    elif ridge > 0:
        M = np.zeros((n + p, p + 1))
        _write_features(X, M[:n, :p])
        M[:n, p] = y
        np.fill_diagonal(M[n:], math.sqrt(ridge))
        R = np.linalg.qr(M, mode="r")
        beta = np.linalg.solve(R[:p, :p], R[:p, p])
    else:
        A = np.empty((n, p))
        _write_features(X, A)
        beta, *_ = np.linalg.lstsq(A, y, rcond=None)
    b = beta[0]
    c = beta[1 : 1 + d].copy()
    q = beta[1 + d :]
    Q = np.zeros((d, d))
    Q[iu, ju] = Q[ju, iu] = np.where(diagonal, q, 0.5 * q)
    if psd:
        Q = psd_project(Q)
    return QuadModel(Q=Q, c=c, b=float(b))


# ------------------------------------------------------------------ linear


@dataclass(frozen=True)
class LinModel:
    """Affine surrogate f(x) = g_hat'x + b."""

    g_hat: np.ndarray
    b: float

    def predict(self, x):
        """Value at a point (a float), or at each row of an (m, d) batch or
        an (..., m, d) stack; each slice of a stack as on its own, bit for bit."""
        x = np.asarray(x, dtype=float)
        vals = (x[None, :] if x.ndim == 1 else x) @ self.g_hat + self.b
        return float(vals[0]) if x.ndim == 1 else vals


def fit_linear(data: Dataset) -> LinModel:
    """Least-squares affine fit.

    Interpolates exactly on a non-degenerate simplex of n_x + 1 points.
    """
    X, y = data.X, data.y
    A = np.column_stack([X, np.ones(X.shape[0])])
    beta, *_ = np.linalg.lstsq(A, y, rcond=None)
    return LinModel(g_hat=beta[:-1].copy(), b=float(beta[-1]))


# ------------------------------------------------------------------ cubic RBF


@dataclass(frozen=True)
class RbfModel:
    """Cubic RBF interpolant s(x) = sum_i lambda_i ||x - x_i||^3 + a'x + b."""

    centers: np.ndarray
    lam: np.ndarray
    poly_coeffs: np.ndarray  # [a_1..a_d, b]


def fit_rbf(data: Dataset) -> RbfModel:
    """Fit the cubic RBF interpolant by solving the saddle system.

    Requires n_d >= n_x + 1 distinct points with a full-rank linear tail;
    rank-deficient or singular systems raise :class:`SurrogateFitError`.
    """
    dist = _distances(data.X, data.X)
    kept, y = _merge_duplicates(dist, data.y)
    X = data.X[kept]
    n, d = X.shape
    if n < d + 1:
        raise SurrogateFitError(
            f"cubic RBF needs at least n_x+1={d + 1} distinct points, got {n}"
        )
    P = np.column_stack([X, np.ones(n)])
    if np.linalg.matrix_rank(P) < d + 1:
        raise SurrogateFitError(
            "rank-deficient polynomial tail: sample points are affinely degenerate"
        )
    Phi = dist[np.ix_(kept, kept)] ** 3
    M = np.zeros((n + d + 1, n + d + 1))
    M[:n, :n] = Phi
    M[:n, n:] = P
    M[n:, :n] = P.T
    rhs = np.concatenate([y, np.zeros(d + 1)])
    try:
        sol = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        cond = np.linalg.cond(M)
        raise SurrogateFitError(
            f"singular RBF saddle system (cond={cond:.3e})"
        ) from exc
    return RbfModel(centers=X, lam=sol[:n].copy(), poly_coeffs=sol[n:].copy())


def _rbf_values(model: RbfModel, Xq: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """The interpolant at the rows of Xq, given ``dist``, their distances to ``model.centers``."""
    a = model.poly_coeffs[:-1]
    b = model.poly_coeffs[-1]
    return (dist ** 3) @ model.lam + Xq @ a + b


def rbf_predict(model: RbfModel, x):
    """Evaluate the RBF interpolant at a point or an (m, d) batch, through one
    (m, n, d) difference tensor to its n centers (``_distances``)."""
    x = np.asarray(x, dtype=float)
    Xq = np.atleast_2d(x)
    vals = _rbf_values(model, Xq, _distances(Xq, model.centers))
    return float(vals[0]) if x.ndim == 1 else vals
