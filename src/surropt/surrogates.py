"""Surrogate models: Gaussian process, quadratic, linear, and cubic RBF.

All fits consume a :class:`~surropt.core.Dataset` (rows are samples) and
return immutable fitted models with cheap predict contracts. The GP uses a
squared-exponential kernel with per-dimension lengthscales on standardized
targets; hyperparameters are chosen by maximizing the log marginal likelihood
with a seeded multi-start search plus coordinate-wise golden-section
refinement (derivative-free, deterministic under seed).

The quadratic fit optionally projects its Hessian onto the PSD cone by
eigenvalue clipping; this replaces a semidefinite-programming formulation to
keep the toolkit dependency-free while preserving surrogate convexity.
"""

from __future__ import annotations

import math
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
    "gp_from_hyperparameters",
    "gp_posterior",
    "gp_log_marginal_likelihood",
    "fit_quadratic",
    "psd_project",
    "fit_linear",
    "fit_rbf",
    "rbf_predict",
]

_DUPLICATE_TOL = 1e-10
_JITTERS = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4)
# Floats per block of the (m, n, d) difference tensor in _distances (2 MB).
_BLOCK_FLOATS = 1 << 18
# Corner of the bordered kernel in _factor: far above any ys' K^-1 ys it meets.
_BORDER_CORNER = 1e300
# Cap on the scaled squared distance in _se_kernel. exp(-230 / 2) is about
# 1.2e-50, a normal number, so no kernel entry is subnormal: np.exp and
# LAPACK run many times slower on subnormal values. Only entries already
# below 1.2e-50 sv move.
_SQDIST_CAP = 230.0


class SurrogateFitError(RuntimeError):
    """Raised when a surrogate cannot be fitted (singular or non-PD system)."""


def _distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(m, n) Euclidean distances between the rows of A (m, d) and B (n, d).

    Summed over the difference tensor rather than by the Gram identity,
    which is not exact at zero distance. The tensor is built for a block of
    rows of A at a time, at most ``_BLOCK_FLOATS`` floats (and at least one
    row) per block, so memory does not grow with m. Each entry is still
    ``sqrt(sum((a - b) ** 2))`` over the same d differences, whatever the
    block size.
    """
    out = np.empty((A.shape[0], B.shape[0]))
    rows = max(1, _BLOCK_FLOATS // max(B.size, 1))
    for i in range(0, A.shape[0], rows):
        diff = A[i:i + rows, None, :] - B[None, :, :]
        np.square(diff, out=diff)
        np.sum(diff, axis=2, out=out[i:i + rows])
    return np.sqrt(out, out=out)


def _merge_duplicates(X: np.ndarray, y: np.ndarray):
    """Merge rows of X closer than ``_DUPLICATE_TOL``, averaging their y.

    A row joins the first kept row that close; each kept row's y is the
    mean of its members in row order.
    """
    rows = np.arange(X.shape[0])
    close = np.tril(_distances(X, X) < _DUPLICATE_TOL, k=-1)
    owner = rows.copy()
    for i in np.flatnonzero(close.any(axis=1)):
        hits = np.flatnonzero(close[i, :i] & (owner[:i] == rows[:i]))
        if hits.size:
            owner[i] = hits[0]
    kept = rows[owner == rows]
    return X[kept], np.array([np.mean(y[owner == k]) for k in kept])


def _se_kernel(A, lengthscales, signal_variance, B=None) -> np.ndarray:
    """SE-ARD kernel between the rows of A and of B; B defaults to A itself.

    Scaled squared distances come from the Gram identity, bounded to
    [0, ``_SQDIST_CAP``], and the rest is done in place on the one (m, n)
    buffer. The bound keeps every entry at or above ``sv * exp(-115)``
    (about 1.2e-50 sv), so neither ``np.exp`` nor the Cholesky and products
    downstream ever meet a subnormal number; it moves only entries that were
    already below that. The matmul's left operand is the separate buffer
    ``2.0 * As``: numpy sends ``As @ As.T`` on one buffer to BLAS syrk,
    which rounds differently from gemm.
    """
    As = A / lengthscales
    aa = np.sum(As**2, axis=1)
    if B is None:
        Bs, bb = As, aa
    else:
        Bs = B / lengthscales
        bb = np.sum(Bs**2, axis=1)
    K = aa[:, None] + bb[None, :]
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


# ------------------------------------------------------------------ GP


@dataclass(frozen=True)
class GpModel:
    """Fitted zero-mean GP on standardized targets (SE-ARD kernel).

    ``chol_factor`` is L with L L' = K + nv I, ``chol_inverse`` is L^-1,
    computed once at fit time so that a posterior needs no solve, and
    ``alpha`` is (K + nv I)^-1 ys.
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


def _standardize(y):
    """(y - mean) / std with the mean and scale; constant targets keep unit scale."""
    y_mean = float(np.mean(y))
    y_scale = float(np.std(y))
    if y_scale <= 0:
        y_scale = 1.0
    return (y - y_mean) / y_scale, y_mean, y_scale


def _factor(X, ys, lengthscales, signal_variance, noise_variance):
    """L with L L' = K + nv I (the noisy training kernel) and v = L^-1 ys.

    Both come from one Cholesky, of the kernel bordered by ys::

        M = [[K + nv I, ys],      chol(M) = [[L,  0],
             [ys',      c ]]                 [v', s]]

    so LAPACK's factorization does the forward substitution for v, and
    s^2 = c - v'v. Border row and column are both filled, so the result does
    not depend on which triangle LAPACK reads. The corner c is
    ``_BORDER_CORNER`` (1e300). v'v = ys'(K + nv I)^-1 ys is at most
    ||ys||^2 / lambda_min, where ||ys||^2 = n for standardized targets, so
    no kernel that factors comes near c. Were v'v >= c, the last pivot
    would fail and the jitter ladder would run, as for a kernel that is not
    positive definite.
    """
    n = X.shape[0]
    M = np.empty((n + 1, n + 1))
    M[:n, :n] = _se_kernel(X, lengthscales, signal_variance)
    M.flat[:n * (n + 2):n + 2] += noise_variance
    M[:n, n] = M[n, :n] = ys
    M[n, n] = _BORDER_CORNER
    F, _ = _chol_with_jitter(M)
    return F[:n, :n], F[n, :n]


def _lml(L, v) -> float:
    """-v'v/2 - sum(log L_ii) - (n/2) log(2 pi), with v = L^-1 ys (R&W Alg. 2.1)."""
    return float(
        -0.5 * v @ v - np.log(L.diagonal()).sum() - 0.5 * v.size * math.log(2 * math.pi)
    )


def _build_gp(X, y_std_units, lengthscales, signal_variance, noise_variance,
              y_mean, y_scale) -> GpModel:
    L, v = _factor(X, y_std_units, lengthscales, signal_variance, noise_variance)
    return GpModel(
        X_train=X,
        y_train=y_std_units,
        kernel_lengthscales=np.asarray(lengthscales, dtype=float),
        signal_variance=float(signal_variance),
        noise_variance=float(noise_variance),
        chol_factor=L,
        chol_inverse=np.linalg.solve(L, np.eye(L.shape[0])),
        alpha=np.linalg.solve(L.T, v),
        y_mean=float(y_mean),
        y_std=float(y_scale),
    )


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
    """
    X, y = _merge_duplicates(data.X, data.y)
    lengthscales = np.broadcast_to(
        np.asarray(lengthscales, dtype=float), (X.shape[1],)
    ).copy()
    if standardize:
        ys, y_mean, y_scale = _standardize(y)
        nv = noise_variance / y_scale**2
    else:
        y_mean, y_scale = 0.0, 1.0
        ys = y
        nv = noise_variance
    return _build_gp(X, ys, lengthscales, signal_variance, nv, y_mean, y_scale)


def _gp_lml(X, ys, lengthscales, signal_variance, noise_variance) -> float:
    try:
        return _lml(*_factor(X, ys, lengthscales, signal_variance, noise_variance))
    except SurrogateFitError:
        return -np.inf


def _golden_section(f, lo, hi):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(16):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (c, fc) if fc < fd else (d, fd)


def fit_gp(
    data: Dataset,
    noise_variance: Union[str, float] = "estimated",
    seed: int = 0,
) -> GpModel:
    """Fit a GP by maximizing log marginal likelihood on standardized targets.

    ``noise_variance`` is either ``"estimated"`` (fitted alongside the kernel
    hyperparameters) or a fixed float in output units. The search draws 8
    seeded random starts in the log-hyperparameter box and refines the best
    with one coordinate-wise golden-section sweep. Each likelihood it
    evaluates costs one Cholesky, of the kernel bordered by the targets
    (``_factor``), and no solve; ``alpha = K^-1 ys`` is solved for once, for
    the model returned.
    """
    X, y = _merge_duplicates(data.X, data.y)
    if X.shape[0] < 1:
        raise SurrogateFitError("no samples to fit")
    d = X.shape[1]
    ys, y_mean, y_scale = _standardize(y)

    widths = X.max(axis=0) - X.min(axis=0)
    widths[widths <= 0] = 1.0

    estimate_noise = isinstance(noise_variance, str)
    if estimate_noise and noise_variance != "estimated":
        raise ValueError("noise_variance must be 'estimated' or a float")
    fixed_nv = None if estimate_noise else max(float(noise_variance), 0.0) / y_scale**2

    # log-space search box: lengthscales, signal variance, optional noise
    lo = np.concatenate([np.log(1e-2 * widths), [math.log(1e-4)]])
    hi = np.concatenate([np.log(1e2 * widths), [math.log(1e4)]])
    if estimate_noise:
        lo = np.concatenate([lo, [math.log(1e-8)]])
        hi = np.concatenate([hi, [math.log(1.0)]])

    def unpack(theta):
        ls = np.exp(theta[:d])
        sv = math.exp(theta[d])
        nv = math.exp(theta[d + 1]) if estimate_noise else fixed_nv
        return ls, sv, nv

    def objective(theta):
        ls, sv, nv = unpack(theta)
        return -_gp_lml(X, ys, ls, sv, nv)

    rng = substream(seed, "gp-hypers")
    starts = rng.uniform(lo, hi, size=(8, lo.size))
    best_theta, best_obj = None, math.inf
    for theta in starts:
        obj = objective(theta)
        if obj < best_obj:
            best_theta, best_obj = theta.copy(), obj
    if best_theta is None or not np.isfinite(best_obj):
        raise SurrogateFitError("all hyperparameter starts failed")

    # coordinate-wise golden-section refinement around the best start
    span = 1.5 * math.log(10.0)
    for k in range(lo.size):
        a = max(lo[k], best_theta[k] - span)
        b = min(hi[k], best_theta[k] + span)

        def along(t, k=k):
            trial = best_theta.copy()
            trial[k] = t
            return objective(trial)

        t_best, f_best = _golden_section(along, a, b)
        if f_best < best_obj:
            best_theta[k] = t_best
            best_obj = f_best

    ls, sv, nv = unpack(best_theta)
    return _build_gp(X, ys, ls, sv, nv, y_mean, y_scale)


def gp_posterior(model: GpModel, x):
    """Posterior mean and variance at ``x`` (de-standardized).

    Accepts a single point (returns two floats) or an (m, d) batch
    (returns two arrays). With k* the (m, n) cross kernel, the mean is
    k* alpha and the variance sv - rowsum(W**2) with W = k* L^-T: one gemm
    against the model's stored ``chol_inverse``, no solve per call
    (R&W 2006, Alg. 2.1).
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X_query = np.atleast_2d(x)
    k_star = _se_kernel(
        X_query, model.kernel_lengthscales, model.signal_variance, B=model.X_train
    )
    mu_std = k_star @ model.alpha
    W = k_star @ model.chol_inverse.T
    var_std = np.maximum(model.signal_variance - np.sum(W**2, axis=1), 0.0)
    mu = mu_std * model.y_std + model.y_mean
    var = var_std * model.y_std**2
    if single:
        return float(mu[0]), float(var[0])
    return mu, var


def gp_log_marginal_likelihood(model: GpModel) -> float:
    """log p(y | X, theta) of the stored (standardized) training targets.

    Re-factors the model's X, y and hyperparameters through ``_factor`` and
    ``_lml``, the one likelihood formula the hyperparameter search uses, so
    it equals the value the search saw for these hyperparameters.
    """
    return _lml(*_factor(
        model.X_train, model.y_train, model.kernel_lengthscales,
        model.signal_variance, model.noise_variance,
    ))


# ------------------------------------------------------------------ quadratic


@dataclass(frozen=True)
class QuadModel:
    """Quadratic surrogate f(x) = x'Qx + c'x + b with symmetric Q."""

    Q: np.ndarray
    c: np.ndarray
    b: float

    def predict(self, x):
        """Value at a point (a float) or at each row of an (m, d) batch."""
        x = np.asarray(x, dtype=float)
        X = x[None, :] if x.ndim == 1 else x
        vals = np.einsum("ij,jk,ik->i", X, self.Q, X) + X @ self.c + self.b
        return float(vals[0]) if x.ndim == 1 else vals


def psd_project(Q: np.ndarray) -> np.ndarray:
    """Frobenius-nearest PSD matrix: symmetrize, clip eigenvalues at zero."""
    S = 0.5 * (Q + Q.T)
    w, V = np.linalg.eigh(S)
    w = np.maximum(w, 0.0)
    P = (V * w) @ V.T
    return 0.5 * (P + P.T)


def fit_quadratic(
    data: Dataset, ridge: float = 1e-8, psd: bool = False
) -> QuadModel:
    """Ridge least-squares quadratic fit; optionally PSD-project the Hessian.

    The n x p feature matrix A has p = 1 + d + d(d+1)/2 columns. With
    ``ridge > 0`` the coefficients are beta = (A'A + ridge I)^-1 A'y, found
    by an SVD least-squares solve of one of two systems:

    - n >= p (primal): [A; sqrt(ridge) I_p] beta = [y; 0_p], p columns;
    - n < p (dual): [A'; sqrt(ridge) I_n] w = [0_p; y / sqrt(ridge)], n
      columns, then beta = A'w. Both minimizers are the same beta, and the
      dual solve costs O(p n^2) instead of O(p^3) (p = 561 at d = 32).

    With ``ridge == 0`` it is plain ``lstsq(A, y)``: the minimum-norm
    least-squares solution. Either way the fit is well-posed from n_x + 1
    samples onward.
    """
    X = data.X
    y = data.y
    n, d = X.shape
    iu, ju = np.triu_indices(d)  # the x_i * x_j terms, i <= j in row-major order
    A = np.column_stack([np.ones(n), X, X[:, iu] * X[:, ju]])
    p = A.shape[1]
    if ridge > 0 and n < p:
        s = math.sqrt(ridge)
        A_aug = np.vstack([A.T, s * np.eye(n)])
        y_aug = np.concatenate([np.zeros(p), y / s])
        w, *_ = np.linalg.lstsq(A_aug, y_aug, rcond=None)
        beta = A.T @ w
    elif ridge > 0:
        A_aug = np.vstack([A, math.sqrt(ridge) * np.eye(p)])
        y_aug = np.concatenate([y, np.zeros(p)])
        beta, *_ = np.linalg.lstsq(A_aug, y_aug, rcond=None)
    else:
        beta, *_ = np.linalg.lstsq(A, y, rcond=None)
    b = beta[0]
    c = beta[1 : 1 + d].copy()
    q = beta[1 + d :]
    Q = np.zeros((d, d))
    Q[iu, ju] = Q[ju, iu] = np.where(iu == ju, q, 0.5 * q)
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
        """Value at a point (a float) or at each row of an (m, d) batch."""
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
    X, y = _merge_duplicates(data.X, data.y)
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
    Phi = _distances(X, X) ** 3
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
    """The interpolant at the rows of Xq, given ``dist = _distances(Xq, model.centers)``."""
    a = model.poly_coeffs[:-1]
    b = model.poly_coeffs[-1]
    return (dist ** 3) @ model.lam + Xq @ a + b


def rbf_predict(model: RbfModel, x):
    """Evaluate the RBF interpolant at a point or an (m, d) batch."""
    x = np.asarray(x, dtype=float)
    Xq = np.atleast_2d(x)
    vals = _rbf_values(model, Xq, _distances(Xq, model.centers))
    return float(vals[0]) if x.ndim == 1 else vals
