import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from surropt import surrogates
from surropt.core import Dataset
from surropt.surrogates import (
    SurrogateFitError,
    _distances,
    _factor,
    _se_kernel,
    fit_gp,
    fit_linear,
    fit_quadratic,
    fit_rbf,
    gp_from_hyperparameters,
    gp_log_marginal_likelihood,
    gp_posterior,
    psd_project,
    rbf_predict,
)

# ---------------------------------------------------------------- GP


def test_gp_single_cluster_interpolates():
    model = fit_gp(Dataset([[0.0]], [2.0]), noise_variance=1e-12)
    mu, _ = gp_posterior(model, [0.0])
    assert abs(mu - 2.0) < 1e-6


def test_gp_constant_targets():
    X = [[0.0], [0.5], [1.0]]
    model = fit_gp(Dataset(X, [5.0, 5.0, 5.0]), noise_variance=1e-12)
    for xq in (0.1, 0.4, 0.9):
        mu, _ = gp_posterior(model, [xq])
        assert abs(mu - 5.0) < 1e-6


def test_gp_two_point_closed_form():
    # frozen from an independent 2x2 closed-form solve (lengthscale 1,
    # signal variance 1, zero noise, zero-mean prior on raw targets)
    data = Dataset([[-1.0], [1.0]], [1.0, 1.0])
    model = gp_from_hyperparameters(
        data, lengthscales=1.0, signal_variance=1.0, noise_variance=0.0,
        standardize=False,
    )
    mu, var = gp_posterior(model, [0.0])
    assert abs(mu - 1.0684608655577696) < 1e-9
    assert abs(var - 0.35194572633611465) < 1e-9


def test_gp_interpolates_training_points():
    rng = np.random.default_rng(0)
    X = rng.uniform(-2, 2, size=(8, 2))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1]
    model = gp_from_hyperparameters(
        Dataset(X, y), lengthscales=[1.0, 1.0], signal_variance=2.0,
        noise_variance=0.0,
    )
    for xi, yi in zip(X, y):
        mu, var = gp_posterior(model, xi)
        assert abs(mu - yi) <= 1e-6 * max(1.0, abs(yi))
        assert var <= 1e-8


def test_gp_far_field_recovers_prior():
    data = Dataset([[-0.5], [0.0], [0.5]], [0.3, -0.1, 0.2])
    model = gp_from_hyperparameters(
        data, lengthscales=1.0, signal_variance=1.0, noise_variance=0.0,
        standardize=False,
    )
    mu, var = gp_posterior(model, [20.0])  # ~40 lengthscales away
    assert abs(mu - 0.0) < 1e-3
    assert abs(var - 1.0) < 1e-3


def test_gp_estimated_fit_far_field_returns_data_mean():
    rng = np.random.default_rng(1)
    X = rng.uniform(-1, 1, size=(10, 1))
    y = 3.0 + np.sin(3 * X[:, 0])
    model = fit_gp(Dataset(X, y), seed=0)
    far = 1e6 * np.ones(1)
    mu, _ = gp_posterior(model, far)
    assert abs(mu - y.mean()) < 1e-3 * model.y_std


def test_gp_lml_scalar_case():
    # n=1, standardized y=0, k(x,x)+noise=1 -> -0.5*ln(2*pi)
    model = gp_from_hyperparameters(
        Dataset([[0.0]], [0.0]), lengthscales=1.0, signal_variance=0.5,
        noise_variance=0.5, standardize=False,
    )
    assert abs(gp_log_marginal_likelihood(model) + 0.5 * np.log(2 * np.pi)) < 1e-12


def test_gp_lml_matches_dense_formula():
    rng = np.random.default_rng(3)
    X = rng.uniform(-2, 2, size=(7, 2))
    y = rng.normal(size=7)
    ls, sv, nv = np.array([0.8, 1.3]), 1.7, 0.05
    model = gp_from_hyperparameters(
        Dataset(X, y), lengthscales=ls, signal_variance=sv, noise_variance=nv,
        standardize=False,
    )
    # independent dense-formula oracle
    diff = X[:, None, :] / ls - X[None, :, :] / ls
    K = sv * np.exp(-0.5 * np.sum(diff**2, axis=2)) + nv * np.eye(7)
    sign, logdet = np.linalg.slogdet(K)
    direct = -0.5 * y @ np.linalg.solve(K, y) - 0.5 * logdet - 3.5 * np.log(2 * np.pi)
    assert sign > 0
    assert abs(gp_log_marginal_likelihood(model) - direct) < 1e-10


def test_gp_noise_increase_trades_fit_for_complexity():
    rng = np.random.default_rng(4)
    X = rng.uniform(-1, 1, size=(6, 1))
    y = rng.normal(size=6)

    def terms(nv):
        m = gp_from_hyperparameters(
            Dataset(X, y), 1.0, 1.0, nv, standardize=False
        )
        fit = -0.5 * float(m.y_train @ m.alpha)
        complexity = -float(np.sum(np.log(np.diag(m.chol_factor))))
        return fit, complexity

    fit1, comp1 = terms(0.1)
    fit2, comp2 = terms(0.2)
    assert fit2 < fit1 or comp2 < comp1  # the two terms move in opposition
    assert fit2 + comp2 != fit1 + comp1


def test_gp_fit_deterministic():
    rng = np.random.default_rng(5)
    X = rng.uniform(-2, 2, size=(9, 2))
    y = X[:, 0] ** 2 + X[:, 1]
    m1 = fit_gp(Dataset(X, y), seed=11)
    m2 = fit_gp(Dataset(X, y), seed=11)
    assert np.array_equal(m1.kernel_lengthscales, m2.kernel_lengthscales)
    assert m1.signal_variance == m2.signal_variance
    assert m1.noise_variance == m2.noise_variance
    assert gp_log_marginal_likelihood(m1) == gp_log_marginal_likelihood(m2)


def test_gp_duplicate_inputs_are_merged():
    data = Dataset([[0.0], [0.0], [1.0]], [1.0, 3.0, 5.0])
    model = gp_from_hyperparameters(
        data, 1.0, 1.0, 0.0, standardize=False
    )
    assert model.X_train.shape[0] == 2
    mu, _ = gp_posterior(model, [0.0])
    assert abs(mu - 2.0) < 1e-6  # duplicates averaged


def test_gp_variance_never_increases_with_more_data():
    # fixed hyperparameters, zero noise: conditioning reduces variance
    rng = np.random.default_rng(6)
    X = rng.uniform(-2, 2, size=(6, 1))
    y = np.sin(X[:, 0])
    x_new = np.array([[0.77]])
    y_new = np.sin(x_new[:, 0])
    queries = np.linspace(-2, 2, 11)[:, None]
    m_small = gp_from_hyperparameters(Dataset(X, y), 0.9, 1.4, 0.0, standardize=False)
    m_big = gp_from_hyperparameters(
        Dataset(np.vstack([X, x_new]), np.concatenate([y, y_new])),
        0.9, 1.4, 0.0, standardize=False,
    )
    _, v_small = gp_posterior(m_small, queries)
    _, v_big = gp_posterior(m_big, queries)
    assert np.all(v_big <= v_small + 1e-8)


# Reference for the in-place kernel: the formula as it stood before it,
# with the scaled squared distance bounded to [0, 230] as in _se_kernel.


def _se_kernel_reference(A, B, lengthscales, signal_variance, cap=230.0):
    As = A / lengthscales
    Bs = B / lengthscales
    aa = np.sum(As**2, axis=1)[:, None]
    bb = np.sum(Bs**2, axis=1)[None, :]
    d2 = aa + bb - 2.0 * As @ Bs.T
    return signal_variance * np.exp(-0.5 * np.minimum(np.maximum(d2, 0.0), cap))


def _dense_lml(K, ys):
    sign, logdet = np.linalg.slogdet(K)
    assert sign > 0
    fit = ys @ np.linalg.solve(K, ys)
    const = ys.size * math.log(2 * math.pi)
    return -0.5 * (fit + logdet + const), 0.5 * (abs(fit) + abs(logdet) + const)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=100),
    d=st.integers(min_value=1, max_value=10),
)
def test_training_kernel_bit_for_bit_and_bordered_factor_properties(seed, n, d):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, (n, d))
    ys = rng.standard_normal(n)
    ls = 10.0 ** rng.uniform(-1.5, 1.5, d)
    sv = float(10.0 ** rng.uniform(-1.0, 1.0))
    nv = float(10.0 ** rng.uniform(-8.0, -1.0))
    K = _se_kernel(X, ls, sv)
    assert K.tobytes() == _se_kernel_reference(X, X, ls, sv).tobytes()
    Xq = rng.uniform(-2.0, 2.0, (int(rng.integers(1, 50)), d))
    assert (_se_kernel(Xq, ls, sv, B=X).tobytes()
            == _se_kernel_reference(Xq, X, ls, sv).tobytes())
    # nv / sv >= 1e-9 keeps the condition number under 1e12: no jitter
    L, v = _factor(X, ys, ls, sv, nv)
    Kn = K + nv * np.eye(n)
    assert np.max(np.abs(L @ L.T - Kn)) <= 1e-13 * np.max(np.abs(K))
    assert np.max(np.abs(L @ v - ys)) <= 1e-14 * n * np.max(np.abs(L)) * np.max(np.abs(v))
    if nv >= 1e-3:  # where the dense oracle is itself accurate
        lml, scale = _dense_lml(Kn, ys)
        assert abs(surrogates._lml(L, v) - lml) <= 1e-10 * scale


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=60),
    d=st.integers(min_value=1, max_value=10),
)
def test_kernel_floor_keeps_entries_normal_and_moves_only_tiny_ones(seed, n, d):
    # lengthscales down to 1e-3 of the box width, where most unfloored
    # entries underflow to subnormals or to 0
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, (n, d))
    Xq = rng.uniform(-2.0, 2.0, (int(rng.integers(1, 40)), d))
    ls = 4.0 * 10.0 ** rng.uniform(-3.0, 0.0, d)
    sv = float(10.0 ** rng.uniform(-4.0, 4.0))
    floor = sv * np.exp(-0.5 * 230.0)
    for K, raw in ((_se_kernel(X, ls, sv), _se_kernel_reference(X, X, ls, sv, np.inf)),
                   (_se_kernel(Xq, ls, sv, B=X), _se_kernel_reference(Xq, X, ls, sv, np.inf))):
        assert np.all(K >= np.finfo(float).tiny)  # no entry subnormal or 0
        kept = raw >= floor
        assert K[kept].tobytes() == raw[kept].tobytes()
        assert np.all(K[~kept] == floor)


def test_kernel_floor_applies_where_the_formula_underflows():
    X = np.array([[0.0], [1.0]])
    raw = _se_kernel_reference(X, X, 0.01, 1.0, np.inf)
    assert raw[0, 1] == 0.0  # exp(-5000)
    K = _se_kernel(X, 0.01, 1.0)
    assert K[0, 1] == np.exp(-115.0) and K[0, 0] == 1.0


# Posterior oracle: dense solves with K + nv I, no Cholesky. The tolerance is
# relative to |k*| |a| for the mean and to sv for the variance.
_POSTERIOR_RTOL = 1e-10


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=100),
    d=st.integers(min_value=1, max_value=10),
)
def test_posterior_matches_dense_solve_oracle(seed, n, d):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, (n, d))
    y = rng.standard_normal(n)
    ls = 10.0 ** rng.uniform(-1.0, 1.0, d)
    sv = float(10.0 ** rng.uniform(-1.0, 1.0))
    # nv / sv >= 1e-3 keeps cond(K + nv I) under about 1e5: an accurate oracle
    nv = sv * float(10.0 ** rng.uniform(-3.0, 0.0))
    model = gp_from_hyperparameters(Dataset(X, y), ls, sv, nv, standardize=False)
    n_kept = model.X_train.shape[0]
    Xq = np.vstack([rng.uniform(-2.5, 2.5, (int(rng.integers(1, 50)), d)), X[:3]])
    mu, var = gp_posterior(model, Xq)

    Kn = _se_kernel(model.X_train, ls, sv) + nv * np.eye(n_kept)
    k_star = _se_kernel(Xq, ls, sv, B=model.X_train)
    a = np.linalg.solve(Kn, model.y_train)
    mu_o = k_star @ a
    var_o = np.maximum(sv - np.sum(k_star * np.linalg.solve(Kn, k_star.T).T, axis=1), 0.0)
    assert np.all(np.abs(mu - mu_o) <= _POSTERIOR_RTOL * (np.abs(k_star) @ np.abs(a)))
    assert np.all(np.abs(var - var_o) <= _POSTERIOR_RTOL * sv)
    assert np.max(np.abs(model.chol_inverse @ model.chol_factor - np.eye(n_kept))) <= 1e-10


def test_gp_model_stores_the_inverse_cholesky_factor():
    rng = np.random.default_rng(3)
    X = rng.uniform(0.0, 1.0, (30, 4))
    model = fit_gp(Dataset(X, np.sin(4 * X).sum(axis=1)), seed=0)
    L, Li = model.chol_factor, model.chol_inverse
    assert Li.shape == L.shape
    assert np.allclose(Li @ L, np.eye(30), rtol=0.0, atol=1e-8)


def test_bordered_factor_corner_stays_out_of_the_jitter_ladder():
    # three tight clusters and no noise: K is near singular and ys' K^-1 ys
    # runs to about 5e5, so a corner within reach would fail the last pivot
    # and push the jitter above the kernel's own
    rng = np.random.default_rng(0)
    centers = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 0.0]])
    X = np.vstack([c + 1e-6 * rng.standard_normal((6, 2)) for c in centers])
    y = np.sin(3 * X[:, 0]) + X[:, 1] ** 2 + 1e-3 * rng.standard_normal(18)
    fixed = gp_from_hyperparameters(Dataset(X, y), 1.0, 1.0, 0.0)
    assert fixed.y_train @ fixed.alpha > 1e5
    K = _se_kernel(fixed.X_train, fixed.kernel_lengthscales, fixed.signal_variance)
    _, jitter = surrogates._chol_with_jitter(K)
    L = fixed.chol_factor
    assert np.max(np.abs(L @ L.T - (K + jitter * np.eye(18)))) <= 1e-13 * np.max(np.abs(K))
    assert np.isfinite(gp_log_marginal_likelihood(fixed))
    fitted = fit_gp(Dataset(X, y), noise_variance=0.0, seed=0)
    assert fitted.noise_variance == 0.0
    assert np.isfinite(gp_log_marginal_likelihood(fitted))


def _distances_reference(A, B):
    return np.sqrt(np.sum((A[:, None, :] - B[None, :, :]) ** 2, axis=2))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    m=st.integers(min_value=1, max_value=60),
    n=st.integers(min_value=1, max_value=30),
    d=st.integers(min_value=1, max_value=12),
    block=st.sampled_from([1, 5, 64, 333, surrogates._BLOCK_FLOATS]),
)
def test_blocked_distances_match_one_shot_bit_for_bit(seed, m, n, d, block):
    rng = np.random.default_rng(seed)
    A = rng.uniform(-3.0, 3.0, (m, d)) * 10.0 ** rng.uniform(-3.0, 3.0, d)
    B = np.vstack([A[: n // 2], rng.uniform(-3.0, 3.0, (n - n // 2, d))])  # some zero distances
    with mock.patch.object(surrogates, "_BLOCK_FLOATS", block):
        assert _distances(A, B).tobytes() == _distances_reference(A, B).tobytes()


def test_blocked_distances_at_dycors_size():
    # d = 32 and 80 points, as on cstr-pid: 102-row blocks, the last one of 88 rows
    rng = np.random.default_rng(12)
    A = rng.uniform(0.0, 1.0, (700, 32))
    B = rng.uniform(0.0, 1.0, (80, 32))
    assert surrogates._BLOCK_FLOATS // B.size == 102
    assert _distances(A, B).tobytes() == _distances_reference(A, B).tobytes()
    assert _distances(A[:1], B).tobytes() == _distances_reference(A[:1], B).tobytes()


# ---------------------------------------------------------------- quadratic


def test_quadratic_exact_1d_parabola():
    data = Dataset([[-1.0], [0.0], [1.0]], [1.0, 0.0, 1.0])
    m = fit_quadratic(data, ridge=0.0)
    assert abs(m.Q[0, 0] - 1.0) < 1e-8
    assert abs(m.c[0]) < 1e-8
    assert abs(m.b) < 1e-8


def test_quadratic_recovers_cross_term_coefficients():
    # f = x1^2 + 0.95*x1*x2 + 5.9*x2^2 sampled on >= 6 distinct points
    rng = np.random.default_rng(7)
    X = rng.uniform(-2, 2, size=(12, 2))
    y = X[:, 0] ** 2 + 0.95 * X[:, 0] * X[:, 1] + 5.9 * X[:, 1] ** 2
    m = fit_quadratic(Dataset(X, y))
    assert np.allclose(m.Q, [[1.0, 0.475], [0.475, 5.9]], atol=1e-6)
    assert np.allclose(m.c, 0.0, atol=1e-6)
    assert abs(m.b) < 1e-6


def _quadratic_features(X):
    # the features term by term: 1, x_i, then x_i * x_j for i <= j
    n, d = X.shape
    cols = [np.ones(n)] + [X[:, i] for i in range(d)]
    for i in range(d):
        for j in range(i, d):
            cols.append(X[:, i] * X[:, j])
    return np.column_stack(cols)


def _primal_ridge_beta(A, y, ridge):
    p = A.shape[1]
    A_aug = np.vstack([A, math.sqrt(ridge) * np.eye(p)])
    beta, *_ = np.linalg.lstsq(A_aug, np.concatenate([y, np.zeros(p)]), rcond=None)
    return beta


def _dual_ridge_beta(A, y, ridge):
    n, p = A.shape
    s = math.sqrt(ridge)
    A_aug = np.vstack([A.T, s * np.eye(n)])
    w, *_ = np.linalg.lstsq(A_aug, np.concatenate([np.zeros(p), y / s]), rcond=None)
    return A.T @ w


# at d = 4 there are p = 15 coefficients: n = 9 takes the dual solve, n = 20 the primal
@pytest.mark.parametrize(
    "n, reference", [(9, _dual_ridge_beta), (20, _primal_ridge_beta)], ids=["dual", "primal"]
)
def test_quadratic_fit_matches_double_loop_reference(n, reference):
    # the reference builds the features and the Hessian term by term
    rng = np.random.default_rng(9)
    d = 4
    X = rng.uniform(-2, 2, size=(n, d))
    y = rng.standard_normal(n)
    beta = reference(_quadratic_features(X), y, 1e-8)
    Q = np.zeros((d, d))
    k = 1 + d
    for i in range(d):
        for j in range(i, d):
            Q[i, j] = Q[j, i] = beta[k] if i == j else 0.5 * beta[k]
            k += 1
    m = fit_quadratic(Dataset(X, y), ridge=1e-8)
    assert np.array_equal(m.Q, Q)
    assert np.array_equal(m.c, beta[1 : 1 + d])
    assert m.b == beta[0]


@pytest.mark.parametrize("design", ["random", "clustered"])
@pytest.mark.parametrize("d", [2, 5, 10, 32])
def test_quadratic_dual_fit_matches_primal_solve(d, design):
    # below p samples the fit solves the n-column dual system; its coefficients
    # are the primal ridge solution's up to rounding
    rng = np.random.default_rng(d)
    p = 1 + d + d * (d + 1) // 2
    for n in (d + 1, min((d + 1 + p) // 2, 80)):
        if design == "random":
            X = rng.uniform(-2, 2, size=(n, d))
        else:
            X = 0.5 + 1e-4 * rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        ref = _primal_ridge_beta(_quadratic_features(X), y, 1e-8)
        m = fit_quadratic(Dataset(X, y), ridge=1e-8)
        iu, ju = np.triu_indices(d)
        q = np.where(iu == ju, m.Q[iu, ju], 2.0 * m.Q[iu, ju])
        beta = np.concatenate([[m.b], m.c, q])
        assert np.max(np.abs(beta - ref)) <= 1e-7 * np.max(np.abs(ref))


def test_predict_of_a_point_is_a_batch_of_one():
    rng = np.random.default_rng(10)
    X = rng.uniform(-2, 2, size=(12, 3))
    data = Dataset(X, rng.standard_normal(12))
    for model in (fit_quadratic(data), fit_linear(data)):
        for x in X:
            value = model.predict(x)
            assert isinstance(value, float)
            assert value == model.predict(x[None, :])[0]


def test_psd_projection_clips_negative_eigenvalue():
    Q = np.array([[1.0, 0.0], [0.0, -2.0]])
    assert np.allclose(psd_project(Q), [[1.0, 0.0], [0.0, 0.0]])


def test_quadratic_minimum_norm_when_underdetermined():
    # 3 samples in 2-D underdetermine the 6 quadratic coefficients
    X = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    y = [0.0, 1.0, 1.0]
    m = fit_quadratic(Dataset(X, y))
    preds = m.predict(np.asarray(X, dtype=float))
    assert np.allclose(preds, y, atol=1e-3)


def test_quadratic_fit_idempotent():
    rng = np.random.default_rng(8)
    X = rng.uniform(-3, 3, size=(10, 2))
    y = 2 * X[:, 0] ** 2 - X[:, 0] * X[:, 1] + 0.5 * X[:, 1] ** 2 + X[:, 0] - 3
    m1 = fit_quadratic(Dataset(X, y), ridge=0.0)
    m2 = fit_quadratic(Dataset(X, m1.predict(X)), ridge=0.0)
    assert np.allclose(m1.Q, m2.Q, atol=1e-8)
    assert np.allclose(m1.c, m2.c, atol=1e-8)
    assert abs(m1.b - m2.b) < 1e-8


@settings(max_examples=40, deadline=None)
@given(
    M=arrays(
        np.float64,
        (3, 3),
        elements=st.floats(min_value=-5, max_value=5, allow_nan=False),
    )
)
def test_psd_projection_is_frobenius_nearest(M):
    from scipy.linalg import eigh

    P = psd_project(M)
    S = 0.5 * (M + M.T)
    w, V = eigh(S)  # independent eigen-decomposition oracle
    P_ref = (V * np.maximum(w, 0.0)) @ V.T
    assert np.linalg.eigvalsh(P).min() >= -1e-10
    assert np.allclose(P, P_ref, atol=1e-10)


# ---------------------------------------------------------------- linear


def test_linear_exact_affine_recovery():
    m = fit_linear(Dataset([[0.0], [1.0]], [1.0, 4.0]))
    assert abs(m.g_hat[0] - 3.0) < 1e-10
    assert abs(m.b - 1.0) < 1e-10


def test_linear_constant_data():
    m = fit_linear(Dataset([[0.0], [1.0], [2.0]], [7.0, 7.0, 7.0]))
    assert abs(m.g_hat[0]) < 1e-10
    assert abs(m.b - 7.0) < 1e-10


def test_linear_simplex_interpolation():
    # hand-solved 3x3 system: f(0,0)=1, f(1,0)=2, f(0,1)=4
    m = fit_linear(Dataset([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [1.0, 2.0, 4.0]))
    assert np.allclose(m.g_hat, [1.0, 3.0], atol=1e-10)
    assert abs(m.b - 1.0) < 1e-10


# ---------------------------------------------------------------- cubic RBF


def test_rbf_interpolates_nodes():
    rng = np.random.default_rng(9)
    X = rng.uniform(-2, 2, size=(10, 2))
    y = np.cos(X[:, 0]) * X[:, 1]
    m = fit_rbf(Dataset(X, y))
    assert np.allclose(rbf_predict(m, X), y, atol=1e-8)
    assert abs(np.column_stack([X, np.ones(10)]).T @ m.lam).max() < 1e-8


def test_rbf_reproduces_affine_data_with_zero_weights():
    rng = np.random.default_rng(10)
    X = rng.uniform(-1, 1, size=(8, 2))
    y = 2.0 * X[:, 0] - 0.5 * X[:, 1] + 3.0
    m = fit_rbf(Dataset(X, y))
    assert np.abs(m.lam).max() < 1e-6
    assert np.allclose(m.poly_coeffs, [2.0, -0.5, 3.0], atol=1e-6)


def test_rbf_midpoint_matches_saddle_oracle():
    # frozen from an independently assembled 4x4 (plus tail) dense solve
    m = fit_rbf(Dataset([[-1.0], [0.0], [1.0]], [1.0, 0.0, 1.0]))
    assert abs(rbf_predict(m, [0.5]) - 0.3125) < 1e-10
    assert np.allclose(m.lam, [0.25, -0.5, 0.25], atol=1e-10)


def test_rbf_rejects_degenerate_geometry():
    # all points on a line in 2-D: P loses rank
    X = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]
    with pytest.raises(SurrogateFitError):
        fit_rbf(Dataset(X, [0.0, 1.0, 2.0, 3.0]))
    with pytest.raises(SurrogateFitError):
        fit_rbf(Dataset([[0.0, 0.0], [1.0, 0.0]], [0.0, 1.0]))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_rbf_side_condition_holds(seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3, 3, size=(7, 2))
    y = rng.normal(size=7)
    try:
        m = fit_rbf(Dataset(X, y))
    except SurrogateFitError:
        return  # random degenerate geometry is legitimately rejected
    P = np.column_stack([X, np.ones(7)])
    assert np.abs(P.T @ m.lam).max() < 1e-8
