import math
import struct
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from surropt import surrogates
from surropt.core import Dataset
from surropt.surrogates import (
    LinModel,
    QuadModel,
    SurrogateFitError,
    _centred_distances,
    _distances,
    _se_kernel,
    _unit_kernel,
    fit_gp,
    fit_linear,
    fit_quadratic,
    fit_rbf,
    gp_from_hyperparameters,
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
    assert abs(model.log_marginal_likelihood + 0.5 * np.log(2 * np.pi)) < 1e-12


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
    assert abs(model.log_marginal_likelihood - direct) < 1e-10


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
    assert m1.log_marginal_likelihood == m2.log_marginal_likelihood


def test_gp_duplicate_inputs_are_merged():
    data = Dataset([[0.0], [0.0], [1.0]], [1.0, 3.0, 5.0])
    model = gp_from_hyperparameters(
        data, 1.0, 1.0, 0.0, standardize=False
    )
    assert model.X_train.shape[0] == 2
    mu, _ = gp_posterior(model, [0.0])
    assert abs(mu - 2.0) < 1e-6  # duplicates averaged


def _merge_duplicates_reference(X, y):
    """_merge_duplicates with one np.mean per kept row, as it was written first."""
    rows = np.arange(X.shape[0])
    close = np.tril(_distances(X, X) < surrogates._DUPLICATE_TOL, k=-1)
    owner = rows.copy()
    for i in np.flatnonzero(close.any(axis=1)):
        hits = np.flatnonzero(close[i, :i] & (owner[:i] == rows[:i]))
        if hits.size:
            owner[i] = hits[0]
    kept = rows[owner == rows]
    return X[kept], np.array([np.mean(y[owner == k]) for k in kept])


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=40),
    d=st.integers(min_value=1, max_value=5),
    n_near=st.integers(min_value=0, max_value=40),
)
def test_merge_duplicates_matches_one_mean_per_kept_row(seed, n, d, n_near):
    # rows within 0.6 tol of a random earlier row build chains whose links
    # are closer than the tolerance while their ends may not be
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, (n, d))
    for _ in range(n_near):
        src = X[rng.integers(X.shape[0])]
        step = rng.standard_normal(d)
        step *= 0.6 * surrogates._DUPLICATE_TOL / np.linalg.norm(step)
        X = np.vstack([X, src + step if rng.uniform() < 0.7 else src])
    X = X[rng.permutation(X.shape[0])]
    y = rng.standard_normal(X.shape[0]) * 10.0 ** rng.integers(-3, 4)
    y[rng.uniform(size=y.size) < 0.1] = -0.0
    kept, ym = surrogates._merge_duplicates(_distances(X, X), y)
    Xm = X[kept]
    Xr, yr = _merge_duplicates_reference(X, y)
    assert Xm.tobytes() == Xr.tobytes()
    assert ym.dtype == yr.dtype and ym.tobytes() == yr.tobytes()
    assert not np.shares_memory(ym, y)


def test_merge_duplicates_averages_each_target_as_on_its_own():
    # a group of 12 rows: from 8 members on, a row mean of the 2-D stack
    # rounds differently from the 1-D mean
    rng = np.random.default_rng(3)
    X = np.vstack([rng.uniform(0.0, 1.0, (5, 2)), np.full((12, 2), 0.5)])
    X = X[rng.permutation(len(X))]
    Y = rng.standard_normal((3, len(X))) * [[1.0], [1e3], [1e-3]]
    kept, merged = surrogates._merge_duplicates(_distances(X, X), Y)
    assert merged.shape == (3, 6)
    for target, row in zip(Y, merged):
        kept_one, alone = surrogates._merge_duplicates(_distances(X, X), target)
        assert kept.tobytes() == kept_one.tobytes()
        assert row.tobytes() == alone.tobytes()


def test_merge_duplicates_with_rows_close_to_nothing():
    # nan rows are not close even to themselves; here there are as many of
    # them as close pairs, so the close entries still number n
    X = np.array([[0.0, 0.0], [np.nan, 1.0], [0.3, 0.1], [0.0, 0.0], [1.0, np.nan]])
    y = np.arange(5.0)
    kept, ym = surrogates._merge_duplicates(_distances(X, X), y)
    Xr, yr = _merge_duplicates_reference(X, y)
    assert kept.tolist() == [0, 1, 2, 4]
    assert X[kept].tobytes() == Xr.tobytes() and ym.tobytes() == yr.tobytes()


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


# Reference for the training kernel: the planes -(x_ik - x_jk)^2 / 2 built by
# broadcasting, weighed by 1 / l_k^2 in one gemv, bounded below by -cap / 2.
# The planes are a C-contiguous (d, n*n) array: on the transposed layout the
# gemv rounds differently.


def _plane_reference(X):
    """The (d, n, n) planes -(x_ik - x_jk)^2 / 2 of the rows of X, by broadcasting."""
    diff = X.T[:, :, None] - X.T[:, None, :]
    return np.ascontiguousarray(-0.5 * diff**2)


def _plane_kernel_reference(X, lengthscales, signal_variance, cap=230.0):
    n, d = X.shape
    S = (1.0 / lengthscales**2) @ _plane_reference(X).reshape(d, n * n)
    return signal_variance * np.exp(np.maximum(S, -0.5 * cap)).reshape(n, n)


def _training_kernel(X, lengthscales, signal_variance):
    """The training kernel of a GP fit, as _BorderedKernel builds it."""
    n, d = X.shape
    ls = np.broadcast_to(lengthscales, (d,))
    return surrogates._BorderedKernel(X, np.zeros(n)).unit(ls) * signal_variance


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=60),
    d=st.integers(min_value=1, max_value=10),
)
def test_bordered_planes_are_the_reference_planes_with_a_zero_border(seed, n, d):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, (n, d))
    P = surrogates._BorderedKernel(X, rng.standard_normal(n)).planes.reshape(d, n + 1, n + 1)
    assert P[:, :n, :n].tobytes() == _plane_reference(X).tobytes()
    border = np.concatenate([P[:, n, :], P[:, :n, n]], axis=1)
    assert border.tobytes() == np.zeros_like(border).tobytes()  # +0.0 everywhere


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
    K = _training_kernel(X, ls, sv)
    assert K.tobytes() == _plane_kernel_reference(X, ls, sv).tobytes()
    Xq = rng.uniform(-2.0, 2.0, (int(rng.integers(1, 50)), d))
    assert (_se_kernel(Xq, X, ls, sv).tobytes()
            == _se_kernel_reference(Xq, X, ls, sv).tobytes())
    # nv / sv >= 1e-9 keeps the condition number under 1e12: no jitter
    factors = []
    real_lml = surrogates._lml

    def spy(L, v):  # the builder's L and v = L^-1 ys, as its LML takes them
        factors.append((L, v))
        return real_lml(L, v)

    with mock.patch.object(surrogates, "_lml", spy):
        model, = surrogates._build_gps(surrogates._BorderedKernel(X, ys), ls[None],
                                       [sv], [nv], [0.0], [1.0])
    (L, v), = factors
    assert L.tobytes() == model.chol_factor.tobytes()
    Kn = K + nv * np.eye(n)
    assert np.max(np.abs(L @ L.T - Kn)) <= 1e-13 * np.max(np.abs(K))
    assert np.max(np.abs(L @ v - ys)) <= 1e-14 * n * np.max(np.abs(L)) * np.max(np.abs(v))
    if nv >= 1e-3:  # where the dense oracle is itself accurate
        lml, scale = _dense_lml(Kn, ys)
        assert abs(model.log_marginal_likelihood - lml) <= 1e-10 * scale


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
    for K, raw in ((_training_kernel(X, ls, sv), _plane_kernel_reference(X, ls, sv, np.inf)),
                   (_se_kernel(Xq, X, ls, sv), _se_kernel_reference(Xq, X, ls, sv, np.inf))):
        assert np.all(K >= np.finfo(float).tiny)  # no entry subnormal or 0
        kept = raw >= floor
        assert K[kept].tobytes() == raw[kept].tobytes()
        assert np.all(K[~kept] == floor)


def test_kernel_floor_applies_where_the_formula_underflows():
    X = np.array([[0.0], [1.0]])
    raw = _se_kernel_reference(X, X, 0.01, 1.0, np.inf)
    assert raw[0, 1] == 0.0  # exp(-5000)
    K = _training_kernel(X, 0.01, 1.0)
    assert K[0, 1] == np.exp(-115.0) and K[0, 0] == 1.0


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=100),
    d=st.integers(min_value=1, max_value=10),
)
def test_plane_kernel_symmetric_exact_diagonal_and_close_to_gram(seed, n, d):
    # lengthscales down to 1e-3 of the box width, as in the floor test
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, (n, d))
    ls = 4.0 * 10.0 ** rng.uniform(-3.0, 0.0, d)
    sv = float(10.0 ** rng.uniform(-4.0, 4.0))
    K = _training_kernel(X, ls, sv)
    assert K.tobytes() == K.T.copy().tobytes()
    assert np.all(K.diagonal() == sv)
    assert np.all(K >= sv * np.exp(-115.0))
    # The Gram identity rounds at the scale of |a|^2 + |b|^2, not of the
    # distance, so the reference is only that close.
    aa = np.sum((X / ls) ** 2, axis=1)
    ref = _se_kernel_reference(X, X, ls, sv)
    assert np.all(np.abs(K - ref) <= 1e-12 * (1.0 + aa[:, None] + aa[None, :]) * ref)


def _record_profiles():
    """Patch _profile to log the LML values of every stack the search evaluates."""
    values = []
    real = surrogates._profile

    def spy(*args):
        lml, sv = real(*args)
        values.extend(np.ravel(lml))  # (k, s) per stack of k models
        return lml, sv

    return values, mock.patch.object(surrogates, "_profile", spy)


def _eigen_lml(model):
    """The LML of a model by the search's eigen path, at its own sv and nv."""
    n = model.y_train.size
    bk = surrogates._BorderedKernel(model.X_train, model.y_train)
    lam, Q = np.linalg.eigh(bk.unit(model.kernel_lengthscales))
    shifted = lam + model.noise_variance / model.signal_variance
    z2 = np.square(Q.T @ model.y_train)
    sv = model.signal_variance
    lml, _ = surrogates._profile(0.5 * np.log(shifted).sum(), (z2 / shifted).sum(), n, sv, sv)
    return float(lml)


@pytest.mark.parametrize("noise", ["estimated", 1e-6])
@pytest.mark.parametrize("n, d", [(1, 1), (12, 2), (20, 2), (40, 5)])
def test_search_and_model_share_one_likelihood_formula(n, d, noise):
    rng = np.random.default_rng(n + d)
    X = rng.uniform(0.0, 1.0, (n, d))
    y = np.sin(3.0 * X).sum(axis=1) + 0.1 * rng.standard_normal(n)
    values, patch = _record_profiles()
    with patch:
        model = fit_gp(Dataset(X, y), noise_variance=noise, seed=3)
    # the search's best value is the LML of the model it returns, bit for bit
    lml = model.log_marginal_likelihood
    assert max(values) <= lml + 1e-9 * abs(lml)
    # the eigen path the t sweeps use agrees with the Cholesky path at the
    # chosen hyperparameters
    assert abs(_eigen_lml(model) - lml) <= 1e-9 * abs(lml)


def test_stacked_cholesky_members_match_single_calls_and_a_failure_is_nan():
    rng = np.random.default_rng(7)
    X = rng.uniform(0.0, 1.0, (12, 2))
    bk = surrogates._BorderedKernel(X, rng.standard_normal(12))
    ls = 10.0 ** rng.uniform(-1.0, 0.5, (5, 2))
    ratio = np.full(5, 1e-4)
    ratio[2] = -5.0  # E - 5 I: not positive definite at any jitter
    M = _unit_kernel(bk.planes, ls).reshape(5, 13, 13)
    for i in range(5):  # each unit kernel of the stack as on its own
        assert M[i].tobytes() == _unit_kernel(bk.planes, ls[i]).tobytes()
    assert M[1, :12, :12].tobytes() == _training_kernel(X, ls[1], 1.0).tobytes()
    bk._border(M, ratio)
    F = surrogates._chol_stack(M)
    assert np.all(np.isnan(F[2]))
    for i in (0, 1, 3, 4):
        assert F[i].tobytes() == np.linalg.cholesky(M[i]).tobytes()
    # without the failing member the stack goes through in one call, with the same bytes
    ok = M[[0, 1, 3, 4]]
    assert np.linalg.cholesky(ok).tobytes() == F[[0, 1, 3, 4]].tobytes()
    half_logdet, vv = bk.terms(ls, ratio)
    values, _ = surrogates._profile(half_logdet, vv, 12, 1.0, 1.0)
    assert values[2] == -np.inf and np.all(np.isfinite(values[[0, 1, 3, 4]]))
    for i in (0, 1, 3, 4):
        one = bk.terms(ls[i:i + 1], ratio[i:i + 1])
        assert one[0].tobytes() == half_logdet[i:i + 1].tobytes()
        assert one[1].tobytes() == vv[i:i + 1].tobytes()


@pytest.mark.parametrize("kept", [[], [4]])
def test_fit_fails_only_when_every_start_fails(kept):
    real = surrogates._chol_stack
    stacks = []

    def starts_fail(M):
        F = real(M)
        if not stacks:  # the first stack is the starts'
            F[[i for i in range(len(F)) if i not in kept]] = np.nan
        stacks.append(len(F))
        return F

    rng = np.random.default_rng(2)
    X = rng.uniform(0.0, 1.0, (10, 2))
    data = Dataset(X, np.sin(3.0 * X).sum(axis=1))
    with mock.patch.object(surrogates, "_chol_stack", starts_fail):
        if not kept:
            with pytest.raises(SurrogateFitError, match="all hyperparameter starts failed"):
                fit_gp(data, seed=0)
        else:
            model = fit_gp(data, seed=0)
            assert np.isfinite(model.log_marginal_likelihood)
    assert stacks[0] == 9  # 8 seeded starts and the box centre


@pytest.mark.parametrize("d", [1, 2, 5])
def test_fit_makes_few_numpy_factorization_calls(d):
    counts = {"cholesky": 0, "eigh": 0}

    def counting(name):
        real = getattr(np.linalg, name)

        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return mock.patch.object(np.linalg, name, call)

    rng = np.random.default_rng(d)
    X = rng.uniform(0.0, 1.0, (20, d))
    with counting("cholesky"), counting("eigh"):
        fit_gp(Dataset(X, np.cos(2.0 * X).sum(axis=1)), seed=1)
    # one stack of starts, two stacks per lengthscale, the model's factor;
    # three sweeps of t on one eigh each
    assert counts == {"cholesky": 2 * d + 2, "eigh": 3}
    if d == 2:
        assert sum(counts.values()) <= 10


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=300),
    scale=st.integers(min_value=-8, max_value=8),
    constant=st.booleans(),
)
def test_standardize_has_the_bytes_of_np_mean_and_np_std(seed, n, scale, constant):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(n) * 10.0**scale + rng.standard_normal() * 10.0 ** rng.integers(-3, 6)
    if constant:
        y[:] = y[0]
    ys, y_mean, y_scale = surrogates._standardize(y)
    assert struct.pack("d", y_mean) == struct.pack("d", float(np.mean(y)))
    std = float(np.std(y))
    assert struct.pack("d", y_scale) == struct.pack("d", std if std > 0 else 1.0)
    assert ys.tobytes() == ((y - float(np.mean(y))) / y_scale).tobytes()


def _stack_data(rng, k, n, d, n_dup):
    """X with exact and near duplicate rows, and k target columns of mixed scale."""
    X = rng.uniform(-1.0, 1.0, (n, d))
    for _ in range(n_dup):
        src = X[rng.integers(X.shape[0])]
        step = rng.standard_normal(d) * 0.6 * surrogates._DUPLICATE_TOL / math.sqrt(d)
        X = np.vstack([X, src + step if rng.uniform() < 0.5 else src])
    X = X[rng.permutation(X.shape[0])]
    Y = np.empty((k, X.shape[0]))
    for i in range(k):
        w = rng.standard_normal(d)
        Y[i] = np.sin(3.0 * X @ w) * 10.0 ** rng.integers(-3, 4) + 0.1 * rng.standard_normal(X.shape[0])
        if rng.uniform() < 0.15:
            Y[i] = rng.standard_normal()  # a constant target keeps unit scale
    return X, Y


def _same_model(a, b):
    for name in ("X_train", "y_train", "kernel_lengthscales", "chol_factor", "chol_inverse", "alpha"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name
    for name in ("signal_variance", "noise_variance", "y_mean", "y_std", "log_marginal_likelihood"):
        x, y = getattr(a, name), getattr(b, name)
        assert type(x) is type(y) is float and struct.pack("d", x) == struct.pack("d", y), name


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    k=st.integers(min_value=1, max_value=3),
    n=st.integers(min_value=1, max_value=48),
    d=st.integers(min_value=1, max_value=5),
    n_dup=st.integers(min_value=0, max_value=4),
    noise=st.sampled_from(["estimated", 0.0, 1e-6, 1e-2]),
)
@example(seed=1, k=2, n=45, d=3, n_dup=2, noise="estimated")
@example(seed=2, k=3, n=36, d=5, n_dup=0, noise=1e-6)
def test_each_stack_member_is_its_lone_fit_bit_for_bit(seed, k, n, d, n_dup, noise):
    rng = np.random.default_rng(seed)
    X, Y = _stack_data(rng, k, n, d, n_dup)
    seeds = [int(s) for s in rng.integers(0, 2**63 - 1, k)]
    models = surrogates.fit_gps(X, Y, seeds, noise)
    assert len(models) == k
    for i, model in enumerate(models):
        _same_model(model, fit_gp(Dataset(X, Y[i]), noise_variance=noise, seed=seeds[i]))


def _counting_chol_with_jitter():
    """Patch _chol_with_jitter to count its calls, the jitter ladder's entry."""
    calls = []
    real = surrogates._chol_with_jitter

    def spy(K):
        calls.append(K.shape)
        return real(K)

    return calls, mock.patch.object(surrogates, "_chol_with_jitter", spy)


def test_stack_members_match_lone_fits_through_the_jitter_fallback():
    # Pairs of rows 3e-10 apart are kept apart (the duplicate tolerance is
    # 1e-10), and with nv = 0 a long lengthscale leaves the kernel singular:
    # the starts' stack does not factor and falls back to the jitter ladder.
    rng = np.random.default_rng(5)
    X = rng.uniform(0.0, 1.0, (6, 2))
    X = np.vstack([X, X[:3] + 3e-10])
    Y = np.vstack([np.sin(4.0 * X).sum(axis=1), X[:, 0] - X[:, 1] ** 2])
    calls, patch = _counting_chol_with_jitter()
    with patch:
        models = surrogates.fit_gps(X, Y, [3, 4], noise_variance=0.0)
    members = [shape for shape in calls if shape == (10, 10)]  # bordered, n = 9
    assert len(members) >= 2 * 9  # at least the starts of both models, one by one
    for i, model in enumerate(models):
        assert np.isfinite(model.log_marginal_likelihood)
        _same_model(model, fit_gp(Dataset(X, Y[i]), noise_variance=0.0, seed=3 + i))


@pytest.mark.parametrize("failing", [0, 1])
def test_stack_fails_when_every_start_of_one_member_fails(failing):
    real = surrogates._chol_stack
    stacks = []

    def member_fails(M):
        F = real(M)
        if not stacks:  # the first stack is the starts', 9 per model in model order
            F[9 * failing:9 * (failing + 1)] = np.nan
        stacks.append(len(F))
        return F

    rng = np.random.default_rng(2)
    X = rng.uniform(0.0, 1.0, (10, 2))
    Y = np.vstack([np.sin(3.0 * X).sum(axis=1), np.cos(2.0 * X).sum(axis=1)])
    with mock.patch.object(surrogates, "_chol_stack", member_fails):
        with pytest.raises(SurrogateFitError, match="all hyperparameter starts failed"):
            surrogates.fit_gps(X, Y, [0, 1])
    assert stacks == [18]  # one stack for both models' starts, then nothing


def test_fit_gps_needs_one_seed_per_target():
    X = np.random.default_rng(0).uniform(0.0, 1.0, (5, 2))
    with pytest.raises(ValueError, match="one seed per row"):
        surrogates.fit_gps(X, np.ones((2, 5)), [0])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_stack_makes_the_factorization_calls_of_one_fit(k):
    def counting(name):
        real = getattr(np.linalg, name)

        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return mock.patch.object(np.linalg, name, call)

    real_stack = surrogates._chol_stack

    def stacking(M):
        stacks.append(len(M))
        return real_stack(M)

    rng = np.random.default_rng(k)
    for d in (1, 2, 5, 10):
        counts, stacks = {"cholesky": 0, "eigh": 0}, []
        X = rng.uniform(0.0, 1.0, (12, d))
        Y = np.vstack([np.cos(2.0 * X + i).sum(axis=1) for i in range(k)])
        with counting("cholesky"), counting("eigh"), \
                mock.patch.object(surrogates, "_chol_stack", stacking):
            surrogates.fit_gps(X, Y, list(range(k)))
        # one stack of starts, a grid for each lengthscale in each of the two
        # passes and the models' factors, each for all k models; three stacked eigh
        assert counts == {"cholesky": 2 * d + 2, "eigh": 3}
        # per model: 8 seeded starts and the box centre, a 7-point grid for
        # each lengthscale, then a 5-point one for each, and the chosen model
        assert stacks == [9 * k] + [7 * k] * d + [5 * k] * d + [k]


@pytest.mark.parametrize("failing", [0, 1])
def test_fit_fails_when_a_chosen_model_does_not_factor(failing):
    real = surrogates._chol_stack

    def model_fails(M):
        F = real(M)
        if len(F) == 2:  # the models' stack; the search's have 9, 7 or 5 members per model
            F[failing] = np.nan
        return F

    rng = np.random.default_rng(2)
    X = rng.uniform(0.0, 1.0, (10, 2))
    Y = np.vstack([np.sin(3.0 * X).sum(axis=1), np.cos(2.0 * X).sum(axis=1)])
    with mock.patch.object(surrogates, "_chol_stack", model_fails):
        with pytest.raises(SurrogateFitError, match="not positive definite"):
            surrogates.fit_gps(X, Y, [0, 1])


@pytest.mark.parametrize("fit", ["fit_gps", "gp_from_hyperparameters"])
@pytest.mark.parametrize("nv", [-1.0, math.nan, math.inf])
def test_bad_fixed_noise_variance_is_a_value_error(fit, nv):
    X = np.random.default_rng(0).uniform(0.0, 1.0, (6, 2))
    y = np.sin(3.0 * X).sum(axis=1)
    with pytest.raises(ValueError, match="noise_variance must be finite and >= 0"):
        if fit == "fit_gps":
            surrogates.fit_gps(X, y[None], [0], noise_variance=nv)
        else:
            gp_from_hyperparameters(Dataset(X, y), 1.0, 1.0, nv)


@pytest.mark.parametrize("standardize", [True, False])
@pytest.mark.parametrize("name,ls,sv,message", [
    ("lengthscales", math.nan, 1.0, "be finite and > 0"),
    ("lengthscales", math.inf, 1.0, "be finite and > 0"),
    ("lengthscales", 0.0, 1.0, "be finite and > 0"),
    ("lengthscales", -0.5, 1.0, "be finite and > 0"),
    ("lengthscales", [0.3, math.nan], 1.0, "be finite and > 0"),
    ("lengthscales", [0.3, 0.0], 1.0, "be finite and > 0"),
    ("lengthscales", [0.3, 0.4, 0.5], 1.0, r"broadcast to shape \(1, 2\)"),
    ("signal_variance", 0.5, math.nan, "be finite and > 0"),
    ("signal_variance", 0.5, math.inf, "be finite and > 0"),
    ("signal_variance", 0.5, 0.0, "be finite and > 0"),
    ("signal_variance", 0.5, -1.0, "be finite and > 0"),
])
def test_bad_fixed_hyperparameters_are_value_errors(standardize, name, ls, sv, message):
    # each once returned a model whose LML was nan, or (sv < 0) failed as a
    # kernel that is not positive definite
    X = np.random.default_rng(0).uniform(0.0, 1.0, (6, 2))
    y = np.sin(3.0 * X).sum(axis=1)
    with pytest.raises(ValueError, match=f"{name} must {message}"):
        gp_from_hyperparameters(Dataset(X, y), ls, sv, 0.01, standardize=standardize)


def _oracle_lml_and_gradient(theta, X, ys):
    """Dense LML of log (lengthscales, sv, nv) and its gradient (R&W eq. 5.9)."""
    from scipy.linalg import cho_factor, cho_solve

    n, d = X.shape
    sv, nv = math.exp(theta[d]), math.exp(theta[d + 1])
    D = (X[:, None, :] - X[None, :, :]) ** 2 / np.exp(2.0 * theta[:d])
    K_sv = sv * np.exp(-0.5 * D.sum(axis=2))
    try:
        c = cho_factor(K_sv + nv * np.eye(n), lower=True)
    except np.linalg.LinAlgError:
        return -1e10, np.zeros(d + 2)
    alpha = cho_solve(c, ys)
    lml = -0.5 * ys @ alpha - np.log(np.diag(c[0])).sum() - 0.5 * n * math.log(2 * math.pi)
    A = np.outer(alpha, alpha) - cho_solve(c, np.eye(n))
    grad = [0.5 * np.sum(A * K_sv * D[:, :, k]) for k in range(d)]
    return lml, np.array(grad + [0.5 * np.sum(A * K_sv), 0.5 * nv * np.trace(A)])


def _oracle_lml(model, starts=4, seed=0):
    """Best LML of multi-start L-BFGS-B over fit_gp's box, one start at the fit's own point."""
    from scipy.optimize import minimize

    X, ys = model.X_train, model.y_train
    d = X.shape[1]
    widths = X.max(axis=0) - X.min(axis=0)
    widths[widths <= 0] = 1.0
    lo = np.concatenate([np.log(1e-2 * widths), [math.log(1e-4), math.log(1e-8)]])
    hi = np.concatenate([np.log(1e2 * widths), [math.log(1e4), 0.0]])
    own = np.concatenate([np.log(model.kernel_lengthscales),
                          [math.log(model.signal_variance), math.log(model.noise_variance)]])
    points = [np.clip(own, lo, hi), *np.random.default_rng(seed).uniform(lo, hi, (starts, d + 2))]
    best = -np.inf
    for x0 in points:
        res = minimize(lambda t: tuple(-v for v in _oracle_lml_and_gradient(t, X, ys)), x0,
                       jac=True, method="L-BFGS-B", bounds=list(zip(lo, hi)))
        best = max(best, -res.fun)
    return best


def _oracle_datasets(count=20, seed=0):
    rng = np.random.default_rng(seed)
    for i in range(count):
        n, d = int(rng.integers(10, 61)), int(rng.integers(1, 6))
        X = rng.uniform(-2.0, 2.0, (n, d))
        y = (np.sin(3.0 * X).sum(axis=1), (X**2).sum(axis=1) + 0.1 * rng.standard_normal(n),
             np.exp(-(X**2).sum(axis=1)) + 0.05 * rng.standard_normal(n),
             np.abs(X).sum(axis=1) + np.cos(5.0 * X[:, 0]))[i % 4]
        yield X, y


def _oracle_gaps(datasets):
    """The shortfall of each fit's LML below the oracle's, in nats."""
    gaps = []
    for X, y in datasets:
        model = fit_gp(Dataset(X, y), seed=1)
        gaps.append(_oracle_lml(model) - model.log_marginal_likelihood)
    gaps = np.array(gaps)
    assert np.all(gaps > -1e-6)  # the oracle starts at the fit's own point
    return gaps


# Bounds on the shortfall of fit_gp's LML below the oracle's on
# _oracle_datasets(), in nats, set from the measured median 2.14 and maximum
# 15.94 (the previous golden-section search: 3.22 and 45.26). The 7- and
# 5-point lengthscale grids measure 2.18 and 16.64. Do not loosen.
_ORACLE_MEDIAN_GAP = 2.5
_ORACLE_MAX_GAP = 17.0


def test_fit_comes_close_to_a_multistart_lbfgsb_oracle():
    gaps = _oracle_gaps(_oracle_datasets())
    assert np.median(gaps) <= _ORACLE_MEDIAN_GAP
    assert gaps.max() <= _ORACLE_MAX_GAP


# The same on _oracle_datasets(seed=1), set from the measured median 1.71 and
# maximum 7.95 of the 7- and 5-point lengthscale grids (the 9- and 9-point
# grids: 1.13 and 22.50). Do not loosen.
_ORACLE_SEED1_MEDIAN_GAP = 2.0
_ORACLE_SEED1_MAX_GAP = 9.0


def test_fit_comes_close_to_the_oracle_on_a_second_dataset_draw():
    gaps = _oracle_gaps(_oracle_datasets(seed=1))
    assert np.median(gaps) <= _ORACLE_SEED1_MEDIAN_GAP
    assert gaps.max() <= _ORACLE_SEED1_MAX_GAP


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=40),
    d=st.integers(min_value=1, max_value=6),
)
def test_posterior_mean_helper_is_gp_posterior_mean(seed, n, d):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, (n, d))
    model = fit_gp(Dataset(X, np.cos(2.0 * X).sum(axis=1) + X[:, 0]), seed=0)
    Xq = rng.uniform(-1.5, 1.5, (int(rng.integers(1, 30)), d))
    mu, _ = gp_posterior(model, Xq)
    mean, k_star = surrogates._posterior_mean(model, Xq)
    assert mean.tobytes() == mu.tobytes()
    # the formula gp_posterior's mean has always had: k* alpha, de-standardized
    k_ref = _se_kernel(Xq, model.X_train, model.kernel_lengthscales, model.signal_variance)
    assert k_star.tobytes() == k_ref.tobytes()
    assert mean.tobytes() == ((k_ref @ model.alpha) * model.y_std + model.y_mean).tobytes()
    assert surrogates._posterior_mean(model, Xq[:1])[0][0] == gp_posterior(model, Xq[0])[0]


# Stacks of batches. The inner search predicts an (L, m, d) stack of trial
# batches in one call. A stacked matmul makes one BLAS call per (m, d) slice
# and the row sums run along the last axis, so each slice must get the bits
# of the 2-D call on that slice. Should a numpy release fold a stack into one
# gemm, these tests fail instead of trajectories drifting.


def _stack_models(rng, n, d):
    X = rng.uniform(-1.0, 1.0, (n, d))
    gp = gp_from_hyperparameters(
        Dataset(X, np.sin(3.0 * X).sum(axis=1) + X[:, 0]),
        10.0 ** rng.uniform(-1.0, 1.0, d), float(10.0 ** rng.uniform(-1.0, 1.0)), 1e-4,
    )
    A = rng.standard_normal((d, d))
    quad = QuadModel(Q=A + A.T, c=rng.standard_normal(d), b=0.3)
    lin = LinModel(g_hat=rng.standard_normal(d), b=-0.7)
    return gp, quad, lin


def _assert_slices_match(gp, quad, lin, S):
    L, m, _ = S.shape
    mu, var = gp_posterior(gp, S)
    mean, k_star = surrogates._posterior_mean(gp, S)
    q, v = quad.predict(S), lin.predict(S)
    assert mu.shape == var.shape == mean.shape == q.shape == v.shape == (L, m)
    for i in range(L):
        mu_i, var_i = gp_posterior(gp, S[i])
        mean_i, k_star_i = surrogates._posterior_mean(gp, S[i])
        assert mu[i].tobytes() == mu_i.tobytes()
        assert var[i].tobytes() == var_i.tobytes()
        assert mean[i].tobytes() == mean_i.tobytes()
        assert k_star[i].tobytes() == k_star_i.tobytes()
        assert v[i].tobytes() == lin.predict(S[i]).tobytes()
        assert q[i].tobytes() == quad.predict(S[i]).tobytes()


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    L=st.integers(min_value=1, max_value=12),
    m=st.integers(min_value=1, max_value=40),
    d=st.integers(min_value=1, max_value=10),
    n=st.integers(min_value=1, max_value=60),
)
def test_stacked_predictions_match_each_slice_bit_for_bit(seed, L, m, d, n):
    rng = np.random.default_rng(seed)
    gp, quad, lin = _stack_models(rng, n, d)
    _assert_slices_match(gp, quad, lin, rng.uniform(-1.5, 1.5, (L, m, d)))


@pytest.mark.parametrize("d", [1, 2, 3, 5, 10, 16, 32])
def test_stacks_of_the_search_shapes_match_each_slice(d):
    # the pool is one stack of one; the refinement stacks up to
    # max(1, 20 // d) levels of 2d trials each
    rng = np.random.default_rng(d)
    gp, quad, lin = _stack_models(rng, 40, d)
    for L, m in [(1, 100 * d + 3), (1, 2 * d)] + [(L, 2 * d) for L in range(2, 20 // d + 1)]:
        _assert_slices_match(gp, quad, lin, rng.uniform(-1.5, 1.5, (L, m, d)))


@pytest.mark.parametrize("d, m", [(1, 1), (2, 1), (2, 2), (2, 4), (3, 1), (5, 7)])
def test_a_stack_of_one_matches_the_2d_call(d, m):
    rng = np.random.default_rng(10 * d + m)
    gp, quad, lin = _stack_models(rng, 12, d)
    for _ in range(20):
        _assert_slices_match(gp, quad, lin, rng.uniform(-1.5, 1.5, (1, m, d)))


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

    Kn = _training_kernel(model.X_train, ls, sv) + nv * np.eye(n_kept)
    k_star = _se_kernel(Xq, model.X_train, ls, sv)
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
    K = _training_kernel(fixed.X_train, fixed.kernel_lengthscales, fixed.signal_variance)
    _, jitter = surrogates._chol_with_jitter(K)
    L = fixed.chol_factor
    assert np.max(np.abs(L @ L.T - (K + jitter * np.eye(18)))) <= 1e-13 * np.max(np.abs(K))
    assert np.isfinite(fixed.log_marginal_likelihood)
    fitted = fit_gp(Dataset(X, y), noise_variance=0.0, seed=0)
    assert fitted.noise_variance == 0.0
    assert np.isfinite(fitted.log_marginal_likelihood)


def _distances_reference(A, B):
    return np.sqrt(np.sum((A[:, None, :] - B[None, :, :]) ** 2, axis=2))


# The benchmark's d (2, 10, 32) and d on each side of numpy's summation
# boundaries: one by one below 8 terms, eight partial sums up to 128, split
# in two above
_DISTANCE_DIMS = [1, 2, 7, 8, 9, 10, 32, 129]


def _distance_rows(rng, m, d, shared=0):
    """m rows at mixed magnitudes across coordinates, the last ``shared`` of
    them copies of the first ones."""
    scale = 10.0 ** rng.uniform(-3.0, 3.0, d)
    A = rng.uniform(-3.0, 3.0, (m - shared, d)) * scale
    return np.vstack([A, A[:shared]])


def _assert_each_entry_alone(A, B, D):
    for i, j in np.ndindex(D.shape):
        assert D[i, j].tobytes() == _distances(A[i:i + 1], B[j:j + 1]).tobytes()


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    m=st.integers(min_value=0, max_value=20),
    n=st.integers(min_value=0, max_value=15),
    d=st.sampled_from(_DISTANCE_DIMS),
)
def test_each_distance_is_its_pair_alone_bit_for_bit(seed, m, n, d):
    rng = np.random.default_rng(seed)
    A = _distance_rows(rng, m, d)
    shared = min(n // 2, m)  # rows of B that are rows of A: zero distances
    B = np.vstack([A[:shared], _distance_rows(rng, n - shared, d)])
    D = _distances(A, B)
    assert D.shape == (m, n)
    assert D.tobytes() == _distances_reference(A, B).tobytes()
    _assert_each_entry_alone(A, B, D)
    assert np.all(D[np.arange(shared), np.arange(shared)] == 0.0)


@pytest.mark.parametrize("d", _DISTANCE_DIMS)
def test_distances_of_a_set_to_itself_symmetric_and_zero_on_shared_rows(d):
    X = _distance_rows(np.random.default_rng(d), 12, d, shared=3)
    D = _distances(X, X)
    assert D.tobytes() == D.T.copy().tobytes()
    assert np.all(np.diagonal(D) == 0.0)
    assert np.all(D[np.arange(3), np.arange(9, 12)] == 0.0)
    assert np.count_nonzero(D == 0.0) == 12 + 2 * 3


def test_distances_at_the_largest_rbf_fit_size():
    # (99, 99, 10): the largest matrix a fit takes in the benchmark, at
    # budget 100 on the d = 10 problems
    X = _distance_rows(np.random.default_rng(12), 99, 10, shared=4)
    D = _distances(X, X)
    assert D.tobytes() == _distances_reference(X, X).tobytes()
    assert D.tobytes() == D.T.copy().tobytes()
    assert np.count_nonzero(D == 0.0) == 99 + 2 * 4
    _assert_each_entry_alone(X, X, D)


@pytest.mark.parametrize("d", [1, 7, 8, 9, 15, 16, 17, 127, 128, 129, 135, 136, 137, 256, 257, 300])
def test_distances_at_each_summation_boundary(d):
    rng = np.random.default_rng(d)
    A = rng.uniform(-1.0, 1.0, (7, d)) * 10.0 ** rng.uniform(-4.0, 4.0, d)
    B = np.vstack([A[:2], rng.uniform(-1.0, 1.0, (4, d))])
    D = _distances(A, B)
    assert D.tobytes() == _distances_reference(A, B).tobytes()
    assert np.all(D[[0, 1], [0, 1]] == 0.0)


# Measured max of |D^2 - exact D^2| / (eps (|a - o|^2 + |b - o|^2)): 5.7 over
# 20,000 draws of the cases below, d = 1 to 40.
_CENTRED_C = 8.0


def _centred_case(seed, d, width, offset, frac):
    """Centres in a box of ``width`` at ``offset``, one of them the incumbent o;
    trials perturb o by ``frac`` of the width on random coordinates, as a
    DYCORS step does. Row 0 of the trials is o, row 1 another centre."""
    rng = np.random.default_rng(seed)
    lo, hi = offset, offset + width
    n, m = int(rng.integers(2, 30)), int(rng.integers(2, 60))
    B = rng.uniform(lo, hi, (n, d))
    j = int(rng.integers(n))
    o = B[j]
    mask = rng.uniform(size=(m, d)) < rng.uniform(0.05, 1.0)
    A = np.clip(o + mask * rng.standard_normal((m, d)) * (frac * width), lo, hi)
    A[0] = o
    A[1] = B[(j + 1) % n]
    return A, B, o


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    d=st.integers(min_value=1, max_value=40),
    log_width=st.floats(min_value=-2.0, max_value=3.0),
    offset=st.floats(min_value=-1e3, max_value=1e3),
    log_frac=st.floats(min_value=math.log10(2e-4), max_value=math.log10(0.2)),
)
@example(seed=0, d=7, log_width=0.0, offset=0.0, log_frac=-1.0)
def test_centred_distances_stay_within_the_gram_bound(seed, d, log_width, offset, log_frac):
    A, B, o = _centred_case(seed, d, 10.0**log_width, offset, 10.0**log_frac)
    D_hat = _centred_distances(A, B, o)
    assert np.all(np.isfinite(D_hat)) and np.all(D_hat >= 0.0)
    D = _distances(A, B)
    scale = np.sum((A - o) ** 2, axis=1)[:, None] + np.sum((B - o) ** 2, axis=1)
    assert np.all(np.abs(D_hat**2 - D**2) <= _CENTRED_C * np.finfo(float).eps * scale)
    j = int(np.flatnonzero((B == o).all(axis=1))[0])
    assert D_hat[0, j] == 0.0  # the trial at the incumbent, against the incumbent


def test_centred_distances_at_a_centre_other_than_the_origin():
    # trial 1 equals centre j + 1: |a'|^2 + |b'|^2 - 2 a'.b' rounds to about
    # -1e-16 here, and the clamp at 0 keeps its root out of nan
    A, B, o = _centred_case(0, 7, 1.0, 0.0, 0.1)
    j = int(np.flatnonzero((B == o).all(axis=1))[0])
    D_hat = _centred_distances(A, B, o)
    at_centre = D_hat[1, (j + 1) % B.shape[0]]
    scale = 2.0 * np.sum((A[1] - o) ** 2)
    assert 0.0 <= at_centre <= math.sqrt(_CENTRED_C * np.finfo(float).eps * scale)


# ---------------------------------------------------------------- quadratic


def test_quadratic_terms_are_computed_once_per_d_and_read_only():
    iu, ju, diagonal = surrogates._quadratic_terms(3)
    assert surrogates._quadratic_terms(3)[0] is iu
    assert iu.tolist() == [0, 0, 0, 1, 1, 2] and ju.tolist() == [0, 1, 2, 1, 2, 2]
    assert diagonal.tolist() == [True, False, False, True, False, True]
    for a in (iu, ju, diagonal):
        with pytest.raises(ValueError):
            a[0] = 1


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


def _primal_system(A, y, ridge):
    # [A, y; sqrt(ridge) I_p, 0]: p unknowns, beta itself
    p = A.shape[1]
    return np.vstack([np.column_stack([A, y]),
                      np.column_stack([math.sqrt(ridge) * np.eye(p), np.zeros(p)])])


def _dual_system(A, y, ridge):
    # [A', 0; sqrt(ridge) I_n, y / sqrt(ridge)]: n unknowns w, beta = A'w
    n, p = A.shape
    s = math.sqrt(ridge)
    return np.vstack([np.column_stack([A.T, np.zeros(p)]),
                      np.column_stack([s * np.eye(n), y / s])])


def _qr_solve(M):
    # the least-squares solution of [M | b] from its QR's R alone
    c = M.shape[1] - 1
    R = np.linalg.qr(M, mode="r")
    return np.linalg.solve(R[:c, :c], R[:c, c])


def _primal_ridge_beta(A, y, ridge):
    return _qr_solve(_primal_system(A, y, ridge))


def _dual_ridge_beta(A, y, ridge):
    # [A'; sqrt(ridge) I_n] = QR with its columns [a_k; sqrt(ridge) e_k]
    # appended one at a time, each by two classical Gram-Schmidt passes;
    # sqrt(ridge) I_n = Q_bot R, so beta = A'w = Q_top Q_bot' y / sqrt(ridge)
    n, p = A.shape
    s = math.sqrt(ridge)
    Qt = np.zeros((n, p + n))  # Q' by rows
    for k in range(n):
        v, Qk = Qt[k, : p + k + 1], Qt[:k, : p + k + 1]
        v[:p] = A[k]
        v[p + k] = s
        v -= (Qk @ v) @ Qk
        v -= (Qk @ v) @ Qk
        v /= math.sqrt(v @ v)
    return (Qt[:, p:] @ (y / s)) @ Qt[:, :p]


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


def _lstsq_ridge_beta(A, y, ridge):
    # the SVD least-squares solve of the system fit_quadratic factors by QR
    n, p = A.shape
    M = _dual_system(A, y, ridge) if n < p else _primal_system(A, y, ridge)
    x, *_ = np.linalg.lstsq(M[:, :-1], M[:, -1], rcond=None)
    return M[:p, :n] @ x if n < p else x


def _ridge_residual(A, y, ridge, beta):
    # ||A'(y - A beta) - ridge beta|| / ((||A||^2 + ridge) ||beta|| + ||A|| ||y||),
    # Frobenius norms, all in long double
    A, y, beta = (np.asarray(v, dtype=np.longdouble) for v in (A, y, beta))
    r = A.T @ (y - A @ beta) - ridge * beta
    norm_a = np.sqrt(np.sum(A * A))
    scale = (norm_a**2 + ridge) * np.sqrt(np.sum(beta**2)) + norm_a * np.sqrt(np.sum(y**2))
    return float(np.sqrt(np.sum(r**2)) / scale)


def _trust_region_rows(rng, d, n):
    # rows as a trust-region run leaves them: d + 1 around the start, then one
    # per step in the ball around a centre that moves on some steps, with a
    # radius that mostly halves, so the later rows cluster down to 1e-3
    X = np.empty((n, d))
    centre, radius = rng.uniform(-1, 1, d), 0.5
    X[: d + 1] = centre + radius * rng.uniform(-1, 1, (d + 1, d))
    for k in range(d + 1, n):
        step = rng.standard_normal(d)
        X[k] = centre + radius * rng.uniform(0.2, 1.0) / np.linalg.norm(step) * step
        if rng.uniform() < 0.3:
            centre = X[k]
        radius = max(radius * (0.5 if rng.uniform() < 0.6 else 2.0), 1e-3)
    return X


def _quadratic_beta(m):
    iu, ju = np.triu_indices(m.c.size)
    q = np.where(iu == ju, m.Q[iu, ju], 2.0 * m.Q[iu, ju])
    return np.concatenate([[m.b], m.c, q])


_ACCURACY_CASES = [
    (d, design, regime)
    for regime in ("dual", "primal")
    for design in ("random", "clustered")
    for d in (2, 5, 10, 32)
] + [(32, "trust-region", "dual"), (10, "trust-region", "dual")]


@pytest.mark.parametrize("d, design, regime", _ACCURACY_CASES)
def test_quadratic_ridge_fit_as_accurate_as_svd_least_squares(d, design, regime):
    # The ridge normal equations' scaled residual of the fit against that of
    # lstsq on the same augmented system: the largest of the group's fits (8
    # each, or every prefix of a trust-region design: one growing record up
    # to n = 150 at d = 32 and n = 65 = p - 1 at d = 10, so the dual factor
    # grows by one row per fit). Over 12 other seeds per group the dual
    # route's maximum was at most 0.23 times lstsq's, and below 1e-3 of it
    # on clustered and trust-region designs; the primal QR's at most 1.5
    # times at d <= 10. lstsq's stays near rounding: up to 1e-14 on random designs,
    # 1e-16 on clustered primal ones, and 1e-10 to 1e-9 on clustered dual
    # ones, whose y / sqrt(ridge) is large.
    rng = np.random.default_rng([d, design == "clustered", regime == "primal"])
    p = 1 + d + d * (d + 1) // 2
    if design == "trust-region":
        X = _trust_region_rows(rng, d, min(150, p - 1))
        Y = rng.standard_normal(X.shape[0])
        datasets = [(X[:n], Y[:n]) for n in range(d + 1, X.shape[0] + 1)]
    else:
        sizes = (d + 1, min((d + 1 + p) // 2, 80)) if regime == "dual" else (p, p + d)
        datasets = []
        for n in sizes:
            for _ in range(4):
                if design == "random":
                    X = rng.uniform(-2, 2, size=(n, d))
                else:
                    X = 0.5 + 1e-4 * rng.standard_normal((n, d))
                datasets.append((X, rng.standard_normal(n)))
    qr, svd = [], []
    for X, y in datasets:
        m = fit_quadratic(Dataset(X, y), ridge=1e-8)
        A = _quadratic_features(X)
        qr.append(_ridge_residual(A, y, 1e-8, _quadratic_beta(m)))
        svd.append(_ridge_residual(A, y, 1e-8, _lstsq_ridge_beta(A, y, 1e-8)))
    assert max(qr) <= 4.0 * max(svd)


@pytest.mark.parametrize("ridge", [-1.0, math.nan, math.inf])
def test_quadratic_fit_refuses_a_negative_or_non_finite_ridge(ridge):
    data = Dataset([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [0.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="ridge"):
        fit_quadratic(data, ridge=ridge)


def _on_new_thread(fit, *args, **kwargs):
    # a thread starts with no dual factor of its own
    out = []
    thread = threading.Thread(target=lambda: out.append(fit(*args, **kwargs)))
    thread.start()
    thread.join()
    return out[0]


def _same_bytes(a, b):
    return a.Q.tobytes() == b.Q.tobytes() and a.c.tobytes() == b.c.tobytes() and a.b == b.b


@pytest.mark.parametrize("d, n", [(5, 20), (32, 70)])
def test_quadratic_warm_fits_give_cold_bytes(d, n):
    # every prefix of one record is fitted on this thread, so each fit below
    # p rows appends one row to the last one's factor; between them come
    # other targets over the same rows, fits of unrelated rows (the prefix
    # after one builds a new factor) and fits on other threads, which keep
    # factors of their own. The last fit, one row past the factor, has the
    # bytes of one on a thread that never fitted before.
    rng = np.random.default_rng(d)
    X = _trust_region_rows(rng, d, n)
    Y = rng.standard_normal((n, 2))
    for k in range(d + 1, n):
        if k % 5 == 0:
            fit_quadratic(Dataset(rng.uniform(-1, 1, (k, d)), Y[:k, 0]))
        fit_quadratic(Dataset(X[:k], Y[:k, 0]), psd=True)
        fit_quadratic(Dataset(X[:k], Y[:k, 1]))
        if k % 7 == 0 or k == n - 1:
            _on_new_thread(fit_quadratic, Dataset(X[:k] + 0.5, Y[:k, 1]))
    assert surrogates._memos.memo.factor.n == n - 1
    warm = fit_quadratic(Dataset(X, Y[:, 0]))
    assert surrogates._memos.memo.factor.n == n
    assert _same_bytes(warm, _on_new_thread(fit_quadratic, Dataset(X, Y[:, 0])))
    # a prefix of the factor's rows is fitted from its first columns
    assert _same_bytes(fit_quadratic(Dataset(X[:-3], Y[:-3, 1])),
                       _on_new_thread(fit_quadratic, Dataset(X[:-3], Y[:-3, 1])))
    assert surrogates._memos.memo.factor.n == n


def test_quadratic_fits_on_concurrent_threads_keep_their_bytes():
    # more threads than cores each grow their own factor over their own
    # record while the others run; every last fit has its cold bytes
    rng = np.random.default_rng(4)
    records = [(_trust_region_rows(rng, 5, 20), rng.standard_normal(20)) for _ in range(6)]
    cold = [_on_new_thread(fit_quadratic, Dataset(X, y)) for X, y in records]
    warm = [None] * len(records)

    def grow(i):
        X, y = records[i]
        for k in range(6, 21):
            warm[i] = fit_quadratic(Dataset(X[:k], y[:k]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=grow, args=(i,)) for i in range(len(records))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(_same_bytes(w, c) for w, c in zip(warm, cold))


def test_quadratic_dual_factor_grows_once_per_record_row(monkeypatch):
    # one cuatro run on cstr-pid (d = 32, p = 561): the first fit builds the
    # factor from the initial design, each later one appends the newest row
    from surropt.optimizers import run_optimizer
    from surropt.problems import get_problem

    built, appended = [], []

    class Counted(surrogates._DualFactor):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

        def extend(self, X):
            appended.extend(row.tobytes() for row in X[self.n :])
            super().extend(X)

    monkeypatch.setattr(surrogates, "_DualFactor", Counted)
    monkeypatch.setattr(surrogates, "_memos", threading.local())
    traj = run_optimizer("cuatro", get_problem("cstr-pid"), 40, seed=0)
    assert len(built) == 1
    # every row but the last, fitted by no step, once and in order
    assert appended == [row.tobytes() for row in traj.xs[:-1]]
    # the factor goes with the record it was built from
    assert surrogates._memos.memo.factor is built[0]
    del traj
    assert surrogates._memos.memo.factor is None


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


@pytest.mark.parametrize("seed", range(6))
def test_rbf_with_duplicates_matches_a_fit_on_the_merged_rows(seed):
    # fit_rbf takes its kernel from the rows and columns of the distance
    # matrix it merged duplicates with; a fit on the merged rows computes
    # its own matrix, and every byte of the model must agree
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, (12, 3))
    near = X[rng.integers(12, size=5)] + 0.4 * surrogates._DUPLICATE_TOL
    X = np.vstack([X, X[rng.integers(12, size=4)], near])[rng.permutation(21)]
    y = rng.standard_normal(21)
    kept, ym = surrogates._merge_duplicates(_distances(X, X), y)
    assert kept.size < 21
    merged, direct = fit_rbf(Dataset(X[kept], ym)), fit_rbf(Dataset(X, y))
    for field in ("centers", "lam", "poly_coeffs"):
        assert getattr(direct, field).tobytes() == getattr(merged, field).tobytes()


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
