"""Problem abstraction, seeded sampling, evaluation, and trajectory recording.

Everything downstream (surrogates, optimizers, the benchmark harness) works in
terms of the small set of containers defined here: a ``Problem`` bundles an
objective with its box bounds, optional constraints, and a noise model;
``evaluate`` writes each observation of a run as one row of its preallocated
``Trajectory``; surrogate fits consume a ``Dataset`` (rows are samples).

Randomness is handled through named sub-streams derived from one base seed, so
observation noise, the initial design, and optimizer-internal draws are
independently reproducible.
"""

from __future__ import annotations

import ctypes
import difflib
import functools
import hashlib
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Bounds",
    "NoiseSpec",
    "Problem",
    "Dataset",
    "Trajectory",
    "BudgetExhausted",
    "EvaluationFailed",
    "ConfigError",
    "VIOLATION_THRESHOLD",
    "feasible",
    "unknown_name",
    "derive_seed",
    "substream",
    "latin_hypercube",
    "evaluate",
    "best_so_far",
    "best_feasible_so_far",
]


# a sample is feasible when its largest constraint value is at most this
VIOLATION_THRESHOLD = 1e-3

# glibc's mallopt parameters (malloc.h) and the values _keep_heap gives them.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
# Blocks below 4 MiB come from the heap instead of their own mmap: the largest
# temporary a preset suite makes is DYCORS's 3200 x 150 distance matrix on
# cstr-pid (3.84 MB), and numpy asks for huge pages from 4 MiB on.
_MMAP_THRESHOLD_BYTES = 4 << 20
# The heap keeps up to 32 MiB free at its top instead of handing it back to the
# kernel: more than one optimizer step frees.
_TRIM_THRESHOLD_BYTES = 32 << 20

# The (set, get) thread-count functions numpy's BLAS may export: OpenBLAS as
# numpy's wheels build it (scipy-openblas64), as Linux distributions build it
# (with and without the 64-bit suffix), and MKL.
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
    ("MKL_Set_Num_Threads", "MKL_Get_Max_Threads"),
)


class BudgetExhausted(RuntimeError):
    """Raised when an evaluation is requested beyond the trajectory budget."""


class EvaluationFailed(RuntimeError):
    """Raised when the objective or a constraint returns a non-finite value."""


class ConfigError(ValueError):
    """Raised for invalid run or benchmark configuration."""


def unknown_name(kind: str, value, valid) -> ConfigError:
    """The ConfigError refusing ``value`` as a ``kind``: the closest of the
    ``valid`` names, if one is close, then all of them."""
    close = difflib.get_close_matches(str(value), valid, n=1)
    hint = f"; did you mean '{close[0]}'?" if close else ""
    return ConfigError(f"unknown {kind} '{value}'{hint} (valid: {', '.join(valid)})")


def feasible(G, threshold: float = VIOLATION_THRESHOLD) -> np.ndarray:
    """Per sample, whether max_i g_i <= ``threshold``: the rows of an (n, n_g)
    array, or one sample's (n_g,) values. No constraints is feasible."""
    return np.max(G, axis=-1, initial=-np.inf) <= threshold


@dataclass(frozen=True)
class Bounds:
    """Box bounds, one (lower, upper) pair per dimension."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ConfigError("lower and upper must be 1-D arrays of equal length")
        if not np.all(lo < hi):
            raise ConfigError("degenerate bounds: need lower[i] < upper[i] for all i")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    def clip(self, x) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=float), self.lower, self.upper)

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))

    @staticmethod
    def cube(lo: float, hi: float, dim: int) -> "Bounds":
        return Bounds(np.full(dim, float(lo)), np.full(dim, float(hi)))


@dataclass(frozen=True)
class NoiseSpec:
    """Additive Gaussian noise on the objective; sigma = 0 means deterministic.

    Constraint observations are always noiseless.
    """

    sigma: float = 0.0

    def __post_init__(self):
        if self.sigma < 0:
            raise ConfigError("noise standard deviation must be >= 0")


@dataclass(frozen=True)
class Problem:
    """A black-box minimization problem over a box domain.

    Parameters
    ----------
    name : str
        Registry identifier.
    bounds : Bounds
        Box domain; ``dim`` is taken from it.
    objective : callable
        Maps a point (1-D array) to a float. Never called out of bounds;
        out-of-bounds proposals are clipped before evaluation.
    constraints : callable, optional
        Maps a point to a vector of ``n_constraints`` values in the
        g(x) <= 0 convention.
    noise : NoiseSpec
        Observation noise applied by :func:`evaluate`.
    known_optimum : (point, value) tuple, optional
        The analytic optimum when available.
    """

    name: str
    bounds: Bounds
    objective: Callable[[np.ndarray], float]
    constraints: Optional[Callable[[np.ndarray], np.ndarray]] = None
    n_constraints: int = 0
    noise: NoiseSpec = NoiseSpec()
    known_optimum: Optional[tuple] = None

    def __post_init__(self):
        if self.n_constraints < 0:
            raise ConfigError("n_constraints must be >= 0")
        if self.n_constraints > 0 and self.constraints is None:
            raise ConfigError("n_constraints > 0 requires a constraints callable")
        if self.n_constraints == 0 and self.constraints is not None:
            raise ConfigError("a constraints callable requires n_constraints > 0")
        if self.known_optimum is not None:
            x_star = np.asarray(self.known_optimum[0], dtype=float)
            if x_star.shape != (self.dim,) or not self.bounds.contains(x_star):
                raise ConfigError("known_optimum point must lie within bounds")

    @property
    def dim(self) -> int:
        return self.bounds.dim


class Trajectory:
    """The evaluation history of a single run in preallocated rows, capped at
    ``budget``; ``xs``, ``ys`` and ``gs`` are read-only views of the filled rows.
    A filled row never moves or changes: the runner's strategies hold row indices."""

    def __init__(self, budget: int, dim: int, n_constraints: int = 0):
        if budget < 1:
            raise ConfigError("budget must be >= 1")
        self.budget = int(budget)
        self._X, self._y = np.empty((self.budget, dim)), np.empty(self.budget)
        self._G = np.empty((self.budget, n_constraints))
        self._n = 0
        self.meta: dict = {}

    def __len__(self) -> int:
        return self._n

    def append(self, x, y, g) -> None:
        if self._n >= self.budget:
            raise BudgetExhausted(f"budget of {self.budget} evaluations already spent")
        self._X[self._n], self._y[self._n], self._G[self._n] = x, y, g
        self._n += 1

    def _filled(self, rows: np.ndarray) -> np.ndarray:
        view = rows[: self._n]
        view.flags.writeable = False
        return view

    @property
    def xs(self) -> np.ndarray:
        return self._filled(self._X)

    @property
    def ys(self) -> np.ndarray:
        return self._filled(self._y)

    @property
    def gs(self) -> np.ndarray:
        # shape (n, n_g); (n, 0) when the problem is unconstrained
        return self._filled(self._G)


@dataclass
class Dataset:
    """Sampled inputs and outputs; rows are samples (n_d x n_x).

    ``G`` holds the constraint values, shape (n_d, n_g); left out, it is
    (n_d, 0), which is how an unconstrained dataset looks.
    """

    X: np.ndarray
    y: np.ndarray
    G: Optional[np.ndarray] = None

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        self.y = np.asarray(self.y, dtype=float).ravel()
        if self.X.shape[0] != self.y.size:
            raise ConfigError("X and y must have the same number of rows")
        if self.G is None:
            self.G = np.empty((self.y.size, 0))
        self.G = np.atleast_2d(np.asarray(self.G, dtype=float))
        if self.G.shape[0] != self.y.size:
            raise ConfigError("G must have the same number of rows as X")

    @property
    def n(self) -> int:
        return self.y.size

    @staticmethod
    def from_trajectory(traj: Trajectory) -> "Dataset":
        """The trajectory's filled rows, without a copy."""
        return Dataset(traj.xs, traj.ys, traj.gs)


def derive_seed(base_seed: int, *tokens) -> int:
    """Deterministic 63-bit sub-seed from a base seed and hashable tokens."""
    payload = repr((int(base_seed),) + tuple(tokens)).encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def substream(base_seed: int, *tokens) -> np.random.Generator:
    """A named, independent RNG stream derived from ``base_seed``."""
    return np.random.default_rng(derive_seed(base_seed, *tokens))


def latin_hypercube(bounds: Bounds, n: int, seed: int) -> np.ndarray:
    """Latin hypercube design: n points, one per equal-width stratum per dim."""
    if n < 1:
        raise ConfigError("latin_hypercube needs n >= 1")
    rng = np.random.default_rng(int(seed))
    d = bounds.dim
    u = np.empty((n, d))
    for j in range(d):
        strata = rng.permutation(n)
        u[:, j] = (strata + rng.uniform(size=n)) / n
    return bounds.lower + u * bounds.width


def evaluate(problem: Problem, x, rng: np.random.Generator, trajectory: Trajectory) -> None:
    """Evaluate ``problem`` at ``x`` (clipped to bounds) with observation noise
    and append the observed (x, y, g) as the next row of ``trajectory``.

    A full trajectory raises :class:`BudgetExhausted` before the objective is
    called; a non-finite objective or constraint value raises
    :class:`EvaluationFailed` and appends nothing.
    """
    if len(trajectory) >= trajectory.budget:
        raise BudgetExhausted(f"budget of {trajectory.budget} evaluations already spent")
    x = problem.bounds.clip(x)
    y_true = float(problem.objective(x))
    if not np.isfinite(y_true):
        raise EvaluationFailed(f"objective returned non-finite value at x={x}")
    y = y_true
    if problem.noise.sigma > 0:
        y = y_true + problem.noise.sigma * rng.standard_normal()
    if problem.n_constraints > 0:
        g = np.asarray(problem.constraints(x), dtype=float).ravel()
        if g.size != problem.n_constraints:
            raise EvaluationFailed(
                f"constraints returned {g.size} values, expected {problem.n_constraints}"
            )
        if not np.all(np.isfinite(g)):
            raise EvaluationFailed(f"constraints returned non-finite values at x={x}")
    else:
        g = np.empty(0)
    trajectory.append(x, y, g)


def best_so_far(ys) -> np.ndarray:
    """Running minimum of a sequence of observed objective values."""
    ys = np.asarray(ys, dtype=float)
    if ys.size == 0:
        raise ConfigError("best_so_far needs a non-empty trajectory")
    return np.minimum.accumulate(ys)


def best_feasible_so_far(ys, gs) -> np.ndarray:
    """Per row, the least y so far among the rows ``feasible`` accepts, nan
    before the first of them. ``gs`` is the (n, n_g) array of the same rows."""
    return np.fmin.accumulate(np.where(feasible(gs), np.asarray(ys, dtype=float), np.nan))


def _keep_heap() -> None:
    """Make glibc's malloc keep freed step temporaries for the next step.

    By default each array of 128 KiB to 32 MiB is mapped on its own or
    trimmed off the heap's top when freed, so the next step faults its pages
    back in. Both thresholds are set: either one alone switches off glibc's
    dynamic threshold and faults more. Called by the command line and in
    pool workers, never on import, since the allocator belongs to the host
    process. Does nothing without ``mallopt`` (macOS, Windows); on musl the
    call is a no-op.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


@functools.cache
def _blas_thread_calls():
    """(set, get) of the BLAS thread count numpy loaded, through ``ctypes``, or
    None where it exports none of ``_BLAS_THREAD_SYMBOLS`` (Accelerate, BLIS).

    Looked up on first use, never on import. The symbols are found through
    numpy's own extension module, whose handle on Linux also resolves the
    BLAS library it links against, so the library pinned is the one numpy
    calls. Checked on Linux only: on Windows a module's handle resolves its
    own exports alone, so there the lookup is expected to find nothing.
    """
    try:
        from numpy._core import _multiarray_umath  # numpy 2
    except ImportError:
        from numpy.core import _multiarray_umath
    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None
    for set_name, get_name in _BLAS_THREAD_SYMBOLS:
        try:
            set_threads, get_threads = getattr(lib, set_name), getattr(lib, get_name)
        except AttributeError:
            continue
        set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
        get_threads.argtypes, get_threads.restype = (), ctypes.c_int
        return set_threads, get_threads
    return None


# The BLAS thread count is one setting per process, so overlapping pins (from
# threads, or nested) share one: the first to open saves the caller's count and
# the last to close restores it.
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved = 0


@contextmanager
def _one_blas_thread():
    """Hold numpy's BLAS at one thread for the body, then restore the caller's
    count, also when the body raises.

    Some fits round differently when BLAS splits them across threads (the QR
    of the d = 32 dual quadratic fit from n = 128 on), so a trajectory depends
    only on its (algorithm, problem, budget, seed) when every run takes one
    thread.
    Where ``_blas_thread_calls`` finds nothing, the body runs unpinned.
    """
    global _pin_depth, _pin_saved
    calls = _blas_thread_calls()
    if calls is None:
        yield
        return
    set_threads, get_threads = calls
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = get_threads()
            set_threads(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                set_threads(_pin_saved)
