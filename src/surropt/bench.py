"""Benchmark orchestration, normalized scoring, and result persistence.

The protocol runs every (algorithm, problem, repetition) cell with an
independent derived seed, tracks best-so-far trajectories, drops the first
n_c warm-up evaluations (without resetting the running minimum), averages
the remaining curves over repetitions, and scores each algorithm per
iteration by

    r = (worst_mean - mean) / (worst_mean - best_mean)

so 1 is the best performer and 0 the worst; p is the mean of r over
iterations. Each mean is its iteration's column mean, the value
convergence.csv writes, so r and p re-derive from that file. Feasibility
metrics count evaluations that ``core.feasible`` rejects, the rule the
optimizers judge their own samples by.

Artifacts, written by ``run_benchmark`` for any caller with an ``out_dir``:
``manifest.json`` first, then ``<out>/<suite>/<problem>/<algorithm>/rep<k>.csv``
(one row per evaluation; ``np.savetxt`` writes each float at ``%.17g`` and
``np.loadtxt`` reads back its bits), ``cells.json`` rewritten as each cell
finishes, then ``scores.json`` and ``convergence.csv``. ``cells.json`` holds
per-cell statuses: ``ok``, ``fallback@<k>: <reason>`` (random search from
evaluation k on) or ``failed: <Type>: <message>``; both name the exception
type. What ``check_cell`` refuses (an unknown algorithm, cbo without
constraints, a budget below an initial design) the plan refuses with a
ConfigError before anything is written, so no ``failed:`` status carries one
of its errors.
``score_results`` re-scores from the CSVs' ``y`` and ``g`` columns and writes
nothing; ``rescore_results`` also rewrites scores.json and convergence.csv
as the run writes them, byte-identical on untouched results.
``compare_results`` pairs the cells of two runs of one config: where each
trajectory first differs, and the paired difference in final best feasible
value per cell and per (problem, algorithm). Each (problem, algorithm) pair
gets an exact two-sided Wilcoxon signed-rank test (``signed_rank_p``, numpy
only), Holm's step-down runs over all pairs of the report at family-wise
ALPHA; the report's ``verdict`` names the pairs where B is worse, and its
``better`` those where B is better.
"""

from __future__ import annotations

import io
import json
import logging
import os
import platform
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from . import __version__
from .core import (
    ConfigError,
    Trajectory,
    _blas_thread_calls,
    _keep_heap,
    best_feasible_so_far,
    best_so_far,
    derive_seed,
    feasible,
)
from .optimizers import check_cell, run_optimizer
from .problems import BASE_FUNCTIONS, get_problem

__all__ = [
    "BenchmarkConfig",
    "ScoreTable",
    "DEFAULT_BUDGETS",
    "DEFAULT_DIMS",
    "DEFAULT_WARMUP",
    "score_r",
    "score_p",
    "count_violations",
    "run_benchmark",
    "score_results",
    "rescore_results",
    "compare_results",
]

logger = logging.getLogger(__name__)

DEFAULT_DIMS = [2, 5, 7]
DEFAULT_BUDGETS = {2: 20, 5: 50, 7: 80, 10: 100}
DEFAULT_WARMUP = {2: 5, 5: 10, 7: 13, 10: 15}


@dataclass
class BenchmarkConfig:
    algorithms: list
    problems: list
    dims: list = field(default_factory=lambda: list(DEFAULT_DIMS))
    repetitions: int = 5
    budgets: dict = field(default_factory=lambda: dict(DEFAULT_BUDGETS))
    warmup: dict = field(default_factory=lambda: dict(DEFAULT_WARMUP))
    seed: int = 0
    suite: str = "custom"

    def __post_init__(self):
        if not self.algorithms:
            raise ConfigError("at least one algorithm is required")
        if not self.problems:
            raise ConfigError("at least one problem is required")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        for d in set(self.budgets) & set(self.warmup):
            if self.budgets[d] <= self.warmup[d]:
                raise ConfigError(
                    f"budget {self.budgets[d]} must exceed warm-up "
                    f"{self.warmup[d]} for dimension {d}"
                )

    def to_dict(self) -> dict:
        """JSON-ready snapshot of every setting except ``suite``."""
        return {
            "algorithms": list(self.algorithms),
            "problems": list(self.problems),
            "dims": list(self.dims),
            "repetitions": self.repetitions,
            "budgets": {str(k): v for k, v in self.budgets.items()},
            "warmup": {str(k): v for k, v in self.warmup.items()},
            "seed": self.seed,
        }


@dataclass
class ScoreTable:
    """Normalized scores and feasibility metrics per (problem, algorithm)."""

    suite: str
    problems: list
    algorithms: list
    n_effective: dict  # problem key -> effective iteration count n
    r: dict  # (problem, algorithm) -> ndarray of per-iteration scores
    p: dict  # (problem, algorithm) -> scalar overall score
    feasibility: dict  # (problem, algorithm) -> feasible fraction
    mean_violation: dict  # (problem, algorithm) -> mean max-violation
    convergence: list = field(default_factory=list)
    cell_status: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        scores = {}
        for key in self.problems:
            scores[key] = {}
            for algo in self.algorithms:
                if (key, algo) not in self.p:
                    continue
                scores[key][algo] = {
                    "p": self.p[(key, algo)],
                    "r": [float(v) for v in self.r[(key, algo)]],
                    "feasibility": self.feasibility[(key, algo)],
                    "mean_violation": self.mean_violation[(key, algo)],
                }
        return scores


def score_r(worst: float, best: float, mean: float) -> float:
    """Relative score (worst - mean) / (worst - best); ties score 1."""
    if worst == best:
        return 1.0
    return float(np.clip((worst - mean) / (worst - best), 0.0, 1.0))


def score_p(r_values) -> float:
    r = np.asarray(r_values, dtype=float)
    if r.size == 0:
        raise ConfigError("score_p needs at least one r value")
    return float(np.mean(r))


def count_violations(G):
    """(feasible_fraction, mean_violation) of the G rows, one per evaluation.

    An evaluation violates when ``core.feasible`` rejects it (max_i g_i above
    ``VIOLATION_THRESHOLD``); the mean violation averages max_i g_i over
    violating evaluations only (0 when none).
    """
    G = np.atleast_2d(np.asarray(G, dtype=float))
    violating = ~feasible(G)
    if not violating.any():  # also no evaluations or no constraints
        return 1.0, 0.0
    return float(1.0 - np.mean(violating)), float(np.mean(np.max(G[violating], axis=1)))


class Cell(NamedTuple):
    """One (problem, algorithm, repetition) run of a benchmark."""

    name: str  # "<key>/<algo>/rep<k>", as in cells.json and manifest.json
    key: str
    budget: int
    algo: str
    rep: int
    seed: int


_PLANNED = {}  # registry key -> its problem as planning built it; the registry is fixed


def planned_dim(key: str) -> int:
    """The dimension of registry ``key``; plans build its problem once per process."""
    if key not in _PLANNED:
        _PLANNED[key] = get_problem(key)
    return _PLANNED[key].dim


def expand_problems(names, dims, dim_of):
    """(key, dim) of each problem name, in order; a base function expands over dims."""
    keys = []
    for name in names:
        if name not in BASE_FUNCTIONS:
            keys.append(name)
        elif not dims:
            raise ConfigError(f"'{name}' needs a non-empty dims list")
        else:
            keys += [f"{name}-d{d}" for d in dims]
    return [(key, dim_of(key)) for key in keys]


def plan_cells(config: BenchmarkConfig, dim_of=None):
    """The problems (key, dim, n_e, n_c) and the cells of a run, both in run order.

    By default ``check_cell`` refuses an unknown algorithm before any
    problem is built, each problem comes from ``planned_dim`` (cells build
    their own), and a ConfigError naming it refuses a cell ``check_cell``
    refuses on it; re-scoring passes the stored dimensions instead, builds no
    problem and checks none.
    """
    for i, algo in enumerate(config.algorithms):
        if algo in config.algorithms[:i]:
            raise ConfigError(f"algorithm '{algo}' is listed twice; its cells would run twice")
        if dim_of is None:
            check_cell(algo)
    problems = []
    for key, d in expand_problems(config.problems, config.dims, dim_of or planned_dim):
        if any(key == k for k, *_ in problems):
            raise ConfigError(f"problem '{key}' is listed twice; its cells would run twice")
        missing = [(name, field) for name, field, table in (
            ("budget", "budgets", config.budgets), ("warm-up", "warmup", config.warmup))
            if d not in table]
        if missing:
            raise ConfigError(
                f"no {' or '.join(name for name, _ in missing)} for dimension {d} "
                f"(problem '{key}'); a config file can set "
                f"{' and '.join(f'{field}: {{{d}: <n>}}' for _, field in missing)}; "
                f"dimensions with both: {sorted(set(config.budgets) & set(config.warmup))}"
            )
        problems.append((key, d, int(config.budgets[d]), int(config.warmup[d])))
        for algo in () if dim_of else config.algorithms:
            try:
                check_cell(algo, _PLANNED[key], config.budgets[d])
            except ConfigError as exc:
                raise ConfigError(f"problem '{key}': {exc}") from None
    cells = [
        Cell(f"{key}/{algo}/rep{rep}", key, n_e, algo, rep,
             derive_seed(config.seed, algo, key, d, rep))
        for key, d, n_e, _ in problems
        for algo in config.algorithms
        for rep in range(config.repetitions)
    ]
    return problems, cells


@dataclass
class RunManifest:
    """Pre-run snapshot of a benchmark: ``run_benchmark`` writes it before any
    cell executes and never modifies it (per-cell outcomes land in cells.json).
    ``provenance`` holds what the bytes may depend on besides the config."""

    suite: str
    version: str
    timestamp: str
    seed: int
    config: dict
    cells: dict
    provenance: dict

    @classmethod
    def plan(cls, config: BenchmarkConfig) -> "RunManifest":
        """The manifest ``run_benchmark(config, out_dir)`` writes at its default ``jobs``."""
        return cls._from_plan(config, plan_cells(config)[1], jobs=1)

    @classmethod
    def _from_plan(cls, config: BenchmarkConfig, cells, jobs: int) -> "RunManifest":
        return cls(
            suite=config.suite,
            version=__version__,
            timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            seed=config.seed,
            config=config.to_dict(),
            cells={cell.name: "planned" for cell in cells},
            provenance=_provenance(jobs),
        )


def _run_cell(cell: Cell) -> Trajectory:
    # module-level so process pools can import it; rebuilds the problem
    # from its registry key instead of pickling closures
    return run_optimizer(cell.algo, get_problem(cell.key), cell.budget, cell.seed)


def _write_rep_csv(path: Path, traj: Trajectory) -> None:
    """One row per evaluation: iteration, x, y, g and best_so_far, each float at
    ``%.17g``, which reads back to its own bits; CRLF line ends on every platform."""
    X, G = traj.xs, traj.gs
    header = ["iteration", *(f"x{i}" for i in range(X.shape[1])), "y",
              *(f"g{i}" for i in range(G.shape[1])), "best_so_far"]
    rows = np.column_stack([np.arange(1, len(traj) + 1), X, traj.ys, G, best_so_far(traj.ys)])
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, rows, fmt="%.17g", delimiter=",", newline="\r\n",
                   header=",".join(header), comments="")


def _read_rep_csv(path: Path, budgets: dict):
    """(X, y, G) of a rep CSV, each column found by its header.

    ``np.loadtxt`` parses the rows, each number to the bits ``float`` gives it.
    A run writes one row per evaluation, so a ConfigError naming the file
    refuses a CSV with no data rows, or with another row count than the
    budget of its dimension (``budgets``, keyed by the number of x columns),
    and one with no y column or a row that does not parse (a quoted number too).
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        body = fh.readlines()
    if not body:
        raise ConfigError(f"rep CSV {path} has no data rows")
    if "y" not in header:
        raise ConfigError(f"rep CSV {path} has no y column")
    try:
        rows = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:  # a field that is not a number, or a row cut short
        raise ConfigError(f"rep CSV {path}: {exc}") from None
    xs = [i for i, h in enumerate(header) if h[:1] == "x" and h[1:].isdigit()]
    budget = budgets.get(len(xs))
    if len(rows) != budget:  # loadtxt skips blank lines, so count what it read
        raise ConfigError(f"rep CSV {path} has {len(rows)} data rows; the budget at "
                          f"dimension {len(xs)} is {budget}")
    gs = [i for i, h in enumerate(header) if h[:1] == "g" and h[1:].isdigit()]
    return rows[:, xs], rows[:, header.index("y")], rows[:, gs]


def _score_table(config: BenchmarkConfig, problems, runs, status) -> ScoreTable:
    """Score every (problem, algorithm) from its repetitions (pure reduction).

    ``runs`` maps (key, algo, rep) to the y values and the G rows of each
    repetition that ran; each is scored on its best-so-far curve after the
    warm-up, whose running minimum still counts the warm-up. Per problem, one
    pass over the algorithms in sorted order takes r, p, the feasibility
    metrics and the convergence rows from one mean curve per algorithm: each
    iteration's own column mean, the value convergence.csv writes.
    """
    n_effective, r_all, p_all, feas, mviol, convergence = {}, {}, {}, {}, {}, []
    for key, dim, n_e, n_c in problems:
        ran = {algo: [runs[key, algo, rep] for rep in range(config.repetitions)
                      if (key, algo, rep) in runs] for algo in sorted(config.algorithms)}
        curves = {algo: np.array([best_so_far(y)[n_c:] for y, _ in cells])
                  for algo, cells in ran.items() if cells}
        if not curves:
            continue
        # a mean along the contiguous axis sums each column as c[:, k].mean() does;
        # c.mean(axis=0) sums in another order and rounds differently from 8 reps on
        means = {algo: np.ascontiguousarray(c.T).mean(axis=1) for algo, c in curves.items()}
        stacked = np.array(list(means.values()))
        worst, best = stacked.max(axis=0), stacked.min(axis=0)
        n = n_effective[key] = stacked.shape[1]
        for algo, c in curves.items():
            mc = means[algo]
            r = r_all[key, algo] = np.array([score_r(worst[k], best[k], mc[k]) for k in range(n)])
            p_all[key, algo] = score_p(r)
            feas[key, algo], mviol[key, algo] = count_violations(
                np.vstack([G for _, G in ran[algo]]))
            # one call per quantile: np.percentile(c, [10, 90], axis=0) partitions for
            # both at once, and where a column holds 0.0 and -0.0 it can return the
            # other zero than the call on that column alone
            lo, hi = np.percentile(c, 10, axis=0), np.percentile(c, 90, axis=0)
            convergence += [(key, algo, k + 1, float(mc[k]), float(lo[k]), float(hi[k]))
                            for k in range(n)]
    return ScoreTable(
        config.suite, [k for k, *_ in problems], list(config.algorithms), n_effective,
        r_all, p_all, feas, mviol, convergence=convergence, cell_status=status,
    )


_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_POOL_THREADS = dict.fromkeys(_BLAS_THREADS, "1")  # the environment a pool worker starts in


def _provenance(jobs: int) -> dict:
    """The Python, numpy and BLAS versions, ``jobs`` and the BLAS thread count
    the cells run on: 1, or "unpinned" where ``run_optimizer`` cannot pin it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas["name"], "version": blas["version"]}
    except (TypeError, KeyError):  # numpy before 1.26 has no "dicts" mode
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "jobs": jobs,
        "blas_threads": 1 if _blas_thread_calls() else "unpinned",
    }


@contextmanager
def _cell_pool(jobs: int):
    """A pool of ``jobs`` worker processes, each on one BLAS thread with the kept heap.

    Workers are spawned (keep ``spawn`` unless ``fork`` is shown to give the
    same bytes and to be faster) under an environment that holds their BLAS
    at one thread while the pool is open. The bytes rest on ``run_optimizer``'s
    pin; this keeps a worker's BLAS from starting idle threads (see README).
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    saved = {name: os.environ.get(name) for name in _BLAS_THREADS}
    os.environ.update(_POOL_THREADS)
    try:
        with ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context("spawn"),
                                 initializer=_keep_heap) as pool:
            yield pool
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def run_benchmark(
    config: BenchmarkConfig, out_dir: Optional[str] = None, jobs: int = 1
) -> ScoreTable:
    """Plan the run once, execute all cells and score them; with ``out_dir``,
    write manifest.json before the first cell, then the results as they come.

    A failing cell is recorded in ``cell_status`` and skipped by the
    aggregation; everything else proceeds. Results are bit-reproducible for
    a fixed config regardless of ``jobs`` and of the caller's BLAS thread
    count: ``jobs > 1`` runs each cell in a worker process, ``jobs == 1`` on
    the calling thread, and either way ``run_optimizer`` holds the cell at
    one BLAS thread (see README for the builds where it cannot).
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    problems, cells = plan_cells(config)
    root = None if out_dir is None else Path(out_dir) / config.suite
    if root is not None:
        root.mkdir(parents=True, exist_ok=True)
        manifest = RunManifest._from_plan(config, cells, jobs).__dict__
        (root / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    runs, status = {}, {}
    with _cell_pool(jobs) if jobs > 1 else nullcontext() as pool:
        # jobs == 1 runs each cell on the calling thread when the loop reaches it,
        # so thread CPU clocks see it and its CSV is written before the next starts
        results = ([pool.submit(_run_cell, cell).result for cell in cells] if jobs > 1
                   else [partial(_run_cell, cell) for cell in cells])
        for cell, result in zip(cells, results):
            try:
                traj = result()
            except Exception as exc:
                status[cell.name] = f"failed: {type(exc).__name__}: {exc}"
                logger.warning("cell %s %s", cell.name, status[cell.name])
            else:
                meta = traj.meta
                status[cell.name] = (f"fallback@{meta['fallback_at']}: {meta['fallback_reason']}"
                                     if "fallback_at" in meta else "ok")
                runs[cell.key, cell.algo, cell.rep] = (traj.ys, traj.gs)
                if root is not None:
                    _write_rep_csv(root / f"{cell.name}.csv", traj)
            if root is not None:  # a run cut short keeps the statuses of its finished cells
                (root / "cells.json").write_text(json.dumps(status, indent=2, sort_keys=True))

    table = _score_table(config, problems, runs, status)
    if root is not None:
        _write_scores(root, config, problems, table)
    return table


def _write_scores(root: Path, config, problems, table: ScoreTable) -> list:
    """Write scores.json and convergence.csv (one ``np.savetxt``, as the rep CSVs; its
    header line alone where no cell scored); return the names of those whose bytes changed."""
    payload = {
        "suite": config.suite,
        "config": config.to_dict(),
        "cells": {
            key: {"dim": d, "n_e": n_e, "n_c": n_c}
            for key, d, n_e, n_c in problems
        },
        "scores": table.to_dict(),
    }
    rows = io.StringIO()
    np.savetxt(rows, np.array(table.convergence, dtype=object).reshape(-1, 6),
               fmt="%s,%s,%d,%.17g,%.17g,%.17g", newline="\r\n",
               header="problem,algorithm,iteration,mean,p10,p90", comments="")
    changed = []
    for name, text in (("scores.json", json.dumps(payload, indent=2, sort_keys=True)),
                       ("convergence.csv", rows.getvalue())):
        path = root / name
        if not path.exists() or path.read_bytes() != text.encode():
            path.write_bytes(text.encode())
            changed.append(name)
    return changed


def score_results(results_dir: str, suite: Optional[str] = None) -> ScoreTable:
    """Recompute a ScoreTable from persisted CSVs, bit-identically; writes nothing.

    ``results_dir`` points at either the suite directory itself (holding
    scores.json) or its parent, whose child ``suite`` is read, or without
    ``suite`` its one child holding scores.json.
    Each curve is the best-so-far of a CSV's ``y`` column. Cell statuses
    come from the run's cells.json (none when it is missing).
    """
    return _rescore(results_dir, suite)[3]


def rescore_results(results_dir: str, suite: Optional[str] = None) -> tuple:
    """:func:`score_results`, then scores.json and convergence.csv rewritten as
    ``run_benchmark`` writes them: (table, names of the files whose bytes changed)."""
    root, config, problems, table = _rescore(results_dir, suite)
    return table, _write_scores(root, config, problems, table)


def _rescore(results_dir, suite):
    root = _suite_dir(results_dir, suite, "scores.json")
    payload = json.loads((root / "scores.json").read_text())
    cfg = dict(payload["config"], suite=payload["suite"])
    cfg.pop("violation_threshold", None)  # results written while the config had one
    for name in ("budgets", "warmup"):
        cfg[name] = {int(d): v for d, v in cfg[name].items()}
    config = BenchmarkConfig(**cfg)
    stored = payload["cells"]
    problems, cells = plan_cells(config, dim_of=lambda key: stored[key]["dim"])
    runs = {}
    for cell in cells:
        path = root / f"{cell.name}.csv"
        if path.exists():  # scored from y, as in the run; the best_so_far column is not read
            runs[cell.key, cell.algo, cell.rep] = _read_rep_csv(path, config.budgets)[1:]
    cells_path = root / "cells.json"
    status = json.loads(cells_path.read_text()) if cells_path.exists() else {}
    return root, config, problems, _score_table(config, problems, runs, status)


# ------------------------------------------------------------------ compare

ALPHA = 0.05  # family-wise level of compare's verdict


def _suite_dir(results_dir, suite: Optional[str], name: str) -> Path:
    """The suite directory of a run: ``results_dir/suite``, ``results_dir``
    itself if it holds the file ``name``, or its one child that does."""
    root = Path(results_dir)
    if suite is not None:
        root = root / suite
    if (root / name).exists():
        return root
    children = sorted(p for p in root.glob("*") if (p / name).exists())
    if len(children) != 1:
        found = ", ".join(p.name for p in children) or "none"
        raise ConfigError(f"no single {name} under {root} (suites: {found}); "
                          "pass the suite directory or --suite")
    return children[0]


def _best_feasible(cell):
    """The least y over the rows ``core.feasible`` accepts (None if none)."""
    _, y, G = cell
    best = best_feasible_so_far(y, G)[-1]
    return None if np.isnan(best) else float(best)


def _first_difference(a, b):
    """(first differing 1-based row or None, max |dX|) of two cells of one budget."""
    rows_a, rows_b = np.column_stack(a), np.column_stack(b)
    same = np.all((rows_a == rows_b) | (np.isnan(rows_a) & np.isnan(rows_b)), axis=1)
    differ = np.flatnonzero(~same)
    first = int(differ[0]) + 1 if differ.size else None
    return first, float(np.max(np.abs(a[0] - b[0]), initial=0.0))


def signed_rank_p(sample) -> float:
    """Exact two-sided Wilcoxon signed-rank p of ``sample``; zeros are ties, dropped.

    Tied magnitudes (the infinities too) share their average rank, doubled
    to an integer. Under the null each member's sign is + or - with
    probability 1/2, so the null law of T, the sum of the positive members'
    ranks, is one convolution per member; p is its mass where |T - mean| is
    at least the observed. Unlike scipy's "exact" method this stays exact
    with tied ranks.
    """
    x = np.asarray(sample, dtype=float)
    x = x[x != 0]
    mags = np.abs(x)
    ordered = np.sort(mags)
    ranks = np.searchsorted(ordered, mags, "left") + np.searchsorted(ordered, mags, "right") + 1
    total = int(ranks.sum())
    law = np.zeros(total + 1)  # law[t] = P(T = t), built member by member
    law[0] = 1.0
    for r in ranks:
        law *= 0.5
        law[r:] += law[:-r]
    observed = abs(2 * int(ranks[x > 0].sum()) - total)
    return min(1.0, float(law[np.abs(2 * np.arange(total + 1) - total) >= observed].sum()))


def holm(pvalues) -> np.ndarray:
    """Holm's step-down: which of the pvalues are rejected at family-wise ALPHA."""
    p = np.asarray(pvalues, dtype=float)
    m = p.size
    rejected = np.zeros(m, dtype=bool)
    for step, i in enumerate(np.argsort(p, kind="stable")):
        if p[i] > ALPHA / (m - step):
            break
        rejected[i] = True
    return rejected


def _test_pairs(pairs) -> list:
    """Test each pair B against A and return the names of the pairs where B is worse.

    A pair's sample is its deltas, one -inf per cell only B found feasible
    and one +inf per cell only A did, so a change that loses feasibility
    counts against B. Each pair gains its ``signed_rank_p`` as ``p``, Holm's
    decision over all pairs as ``rejected``, ``worse``: rejected with a
    positive sample median, and ``better``: rejected with a negative one.
    """
    medians = []
    for pair in pairs:
        sample = np.concatenate([pair["deltas"], np.full(pair["b_only_feasible"], -np.inf),
                                 np.full(pair["a_only_feasible"], np.inf)])
        sample = sample[sample != 0]
        pair["p"] = signed_rank_p(sample)
        medians.append(np.median(sample) if sample.size else 0.0)
    for pair, reject, median in zip(pairs, holm([pair["p"] for pair in pairs]), medians):
        pair.update(rejected=bool(reject), worse=bool(reject and median > 0),
                    better=bool(reject and median < 0))
    return [f"{pair['problem']}/{pair['algorithm']}" for pair in pairs if pair["worse"]]


def compare_results(dir_a, dir_b, suite: Optional[str] = None) -> dict:
    """Pair the cells of two runs of one config, B against A.

    Both directories are written by ``run_benchmark`` with an ``out_dir``, as
    ``surropt run`` does; a ConfigError refuses them when their manifests'
    ``config`` snapshots differ (so a run written while the config had a
    feasibility threshold pairs only with another such run), and so does a
    rep CSV that is empty or shorter or longer than its budget; differing
    ``provenance`` keys are reported as (A's value, B's value) and refuse
    nothing. Per cell: the first row where X, y or G differ, max |dX|, and
    delta = B's final best feasible y minus A's (feasible as ``core.feasible``
    judges it, the optimizers' rule); negative delta means B found the lower
    value. Per (problem, algorithm): the paired cells' deltas and their mean,
    B's wins, losses and ties, and the cells only A or only B found feasible,
    each a win of that side with no delta; a cell missing on either side is
    counted as missing. Each pair then gets the exact signed-rank test of
    ``_test_pairs`` and Holm's decision at family-wise ALPHA over all pairs;
    ``verdict`` lists the pairs where B is worse and ``better`` those where B
    is better.
    """
    roots = [_suite_dir(d, suite, "manifest.json") for d in (dir_a, dir_b)]
    manifests = [json.loads((r / "manifest.json").read_text()) for r in roots]
    if manifests[0]["config"] != manifests[1]["config"]:
        keys = sorted(k for k in set(manifests[0]["config"]) | set(manifests[1]["config"])
                      if manifests[0]["config"].get(k) != manifests[1]["config"].get(k))
        raise ConfigError(f"the two runs have different configs (keys: {', '.join(keys)})")
    pa, pb = (m.get("provenance", {}) for m in manifests)
    provenance = {k: (pa.get(k), pb.get(k)) for k in sorted({*pa, *pb})
                  if pa.get(k) != pb.get(k)}
    budgets = {int(d): n for d, n in manifests[0]["config"]["budgets"].items()}

    cells, pairs = {}, {}
    for name in manifests[0]["cells"]:
        key, algo, _ = name.split("/")
        a, b = (_read_rep_csv(r / f"{name}.csv", budgets) if (r / f"{name}.csv").exists() else None
                for r in roots)
        pair = pairs.setdefault((key, algo), {"deltas": [], "b_better": 0, "b_worse": 0,
                                              "ties": 0, "missing": 0, "differing": 0,
                                              "a_only_feasible": 0, "b_only_feasible": 0})
        if a is None or b is None:
            cells[name] = {"missing": [side for side, c in (("A", a), ("B", b)) if c is None]}
            pair["missing"] += 1
            continue
        first, max_dx = _first_difference(a, b)
        best_a, best_b = _best_feasible(a), _best_feasible(b)
        delta = None if best_a is None or best_b is None else best_b - best_a
        cells[name] = {"first_differing_row": first, "max_abs_dx": max_dx,
                       "best_a": best_a, "best_b": best_b, "delta": delta}
        pair["differing"] += first is not None
        sign = (0 if best_a is None and best_b is None else -1 if best_a is None
                else 1 if best_b is None else np.sign(delta))
        pair["b_better" if sign < 0 else "b_worse" if sign > 0 else "ties"] += 1
        if delta is not None:
            pair["deltas"].append(delta)
        elif sign:
            pair["b_only_feasible" if sign < 0 else "a_only_feasible"] += 1

    summary = [{"problem": key, "algorithm": algo, "paired": len(pair["deltas"]),
                "mean_delta": float(np.mean(pair["deltas"])) if pair["deltas"] else None, **pair}
               for (key, algo), pair in pairs.items()]
    verdict = _test_pairs(summary)
    return {
        "a": str(roots[0]), "b": str(roots[1]), "suite": manifests[0]["suite"],
        "config": manifests[0]["config"], "provenance": provenance,
        "differing_cells": sum(1 for c in cells.values() if c.get("first_differing_row")),
        "cells": cells, "pairs": summary, "verdict": verdict,
        "better": [f"{p['problem']}/{p['algorithm']}" for p in summary if p["better"]],
    }


def compare_markdown(report: dict) -> str:
    """The markdown tables of a :func:`compare_results` report, the pairs where
    B is better, then its verdict: the pairs where B is worse, on the last line.

    With n nonzero members a pair's exact p is at least 2 / 2^n; when that
    floor is above ALPHA / m for every one of the m pairs, nothing can be
    rejected, and a note before the verdict says the run needs more reps,
    or, when no pair has a nonzero member, that no pair differs.
    """

    def num(v):
        return "—" if v is None else f"{v:.6g}"

    lines = [
        f"{report['differing_cells']} differing cells of {len(report['cells'])} "
        f"(A = {report['a']}, B = {report['b']})",
        *(f"provenance {key} differs: A {a}, B {b}"
          for key, (a, b) in report["provenance"].items()),
        "",
        "delta = B's final best feasible y minus A's; negative: B lower.",
        "",
        "| problem | algorithm | paired | differing | mean delta | p | Holm | B better | B worse "
        "| ties |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    for p in report["pairs"]:
        lines.append(f"| {p['problem']} | {p['algorithm']} | {p['paired']} | {p['differing']} "
                     f"| {num(p['mean_delta'])} | {p['p']:.4g} | {'rej' if p['rejected'] else '—'} "
                     f"| {p['b_better']} | {p['b_worse']} | {p['ties']} |")
    moved = [(name, c) for name, c in report["cells"].items() if c.get("first_differing_row")]
    if moved:
        lines += ["", "| cell | first differing row | max abs dX | best A | best B | delta |",
                  "|---|---|---|---|---|---|"]
        lines += [f"| {name} | {c['first_differing_row']} | {num(c['max_abs_dx'])} "
                  f"| {num(c['best_a'])} | {num(c['best_b'])} | {num(c['delta'])} |"
                  for name, c in moved]
    missing = [name for name, c in report["cells"].items() if "missing" in c]
    if missing:
        lines += ["", f"missing cells: {', '.join(missing)}"]
    m = len(report["pairs"])
    nonzero = max((p["b_better"] + p["b_worse"] for p in report["pairs"]), default=0)
    floor = min(1.0, 2.0 ** (1 - nonzero))
    if m and not nonzero:
        lines += ["", "no pair differs: B better and B worse are 0 in every pair"]
    elif m and floor > ALPHA / m:
        lines += ["", f"no pair can be rejected: the smallest attainable p, {floor:.4g}, is above "
                      f"{ALPHA:g} / {m} pairs = {ALPHA / m:.4g}; this test needs more reps"]
    lines += ["", f"B better at family-wise {ALPHA:g}: {', '.join(report['better']) or 'none'}",
              f"verdict: B worse at family-wise {ALPHA:g}: "
              f"{', '.join(report['verdict']) or 'none'}"]
    return "\n".join(lines) + "\n"
