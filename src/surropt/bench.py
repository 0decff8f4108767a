"""Benchmark orchestration, normalized scoring, and result persistence.

The protocol runs every (algorithm, problem, repetition) cell with an
independent derived seed, tracks best-so-far trajectories, drops the first
n_c warm-up evaluations (without resetting the running minimum), averages
the remaining curves over repetitions, and scores each algorithm per
iteration by

    r = (worst_mean - mean) / (worst_mean - best_mean)

so 1 is the best performer and 0 the worst; p is the mean of r over
iterations. Feasibility metrics count evaluations whose worst constraint
exceeds the violation threshold.

Artifacts: ``<out>/<suite>/<problem>/<algorithm>/rep<k>.csv`` (one row per
evaluation, floats at 17 significant digits), ``scores.json``,
``convergence.csv``, and ``cells.json`` with per-cell statuses: ``ok``,
``fallback@<k>: <reason>`` (random search from evaluation k on) or
``failed: <error>``.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .core import VIOLATION_THRESHOLD, ConfigError, Trajectory, best_so_far, derive_seed
from .optimizers import run_optimizer
from .problems import BASE_FUNCTIONS, get_problem

__all__ = [
    "BenchmarkConfig",
    "ScoreTable",
    "DEFAULT_BUDGETS",
    "DEFAULT_WARMUP",
    "score_r",
    "score_p",
    "count_violations",
    "run_benchmark",
    "score_results",
]

logger = logging.getLogger(__name__)

DEFAULT_BUDGETS = {2: 20, 5: 50, 7: 80, 10: 100}
DEFAULT_WARMUP = {2: 5, 5: 10, 7: 13, 10: 15}


@dataclass
class BenchmarkConfig:
    algorithms: list
    problems: list
    dims: list = field(default_factory=lambda: [2])
    repetitions: int = 5
    budgets: dict = field(default_factory=lambda: dict(DEFAULT_BUDGETS))
    warmup: dict = field(default_factory=lambda: dict(DEFAULT_WARMUP))
    seed: int = 0
    violation_threshold: float = VIOLATION_THRESHOLD
    suite: str = "custom"

    def __post_init__(self):
        if not self.algorithms:
            raise ConfigError("at least one algorithm is required")
        if not self.problems:
            raise ConfigError("at least one problem is required")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if not math.isfinite(self.violation_threshold):
            raise ConfigError(
                f"violation_threshold must be finite, got {self.violation_threshold}"
            )
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
            "violation_threshold": self.violation_threshold,
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


def count_violations(trajectory, threshold: float = VIOLATION_THRESHOLD):
    """(feasible_fraction, mean_violation) for a trajectory or raw G array.

    An evaluation violates when max_i g_i > threshold; the mean violation
    averages max_i g_i over violating evaluations only (0 when none).
    """
    if isinstance(trajectory, Trajectory):
        G = trajectory.gs
    else:
        G = np.atleast_2d(np.asarray(trajectory, dtype=float))
    if G.size == 0:
        return 1.0, 0.0
    worst = np.max(G, axis=1)
    violating = worst > threshold
    feasible_fraction = float(1.0 - np.mean(violating))
    mean_violation = float(np.mean(worst[violating])) if np.any(violating) else 0.0
    return feasible_fraction, mean_violation


class Cell(NamedTuple):
    """One (problem, algorithm, repetition) run of a benchmark."""

    name: str  # "<key>/<algo>/rep<k>", as in cells.json and manifest.json
    key: str
    budget: int
    algo: str
    rep: int
    seed: int


def expand_problems(names, dims, dim_of=lambda name: get_problem(name).dim):
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


def plan_cells(config: BenchmarkConfig, dim_of=lambda name: get_problem(name).dim):
    """The problems (key, dim, n_e, n_c) and the cells of a run, both in run order."""
    for i, algo in enumerate(config.algorithms):
        if algo in config.algorithms[:i]:
            raise ConfigError(f"algorithm '{algo}' is listed twice; its cells would run twice")
    problems = []
    for key, d in expand_problems(config.problems, config.dims, dim_of):
        if any(key == k for k, *_ in problems):
            raise ConfigError(f"problem '{key}' is listed twice; its cells would run twice")
        missing = [name for name, table in (("budget", config.budgets),
                                            ("warm-up", config.warmup)) if d not in table]
        if missing:
            raise ConfigError(
                f"no {' or '.join(missing)} for dimension {d} (problem '{key}'); "
                f"dimensions with both: {sorted(set(config.budgets) & set(config.warmup))}"
            )
        problems.append((key, d, int(config.budgets[d]), int(config.warmup[d])))
    cells = [
        Cell(f"{key}/{algo}/rep{rep}", key, n_e, algo, rep,
             derive_seed(config.seed, algo, key, d, rep))
        for key, d, n_e, _ in problems
        for algo in config.algorithms
        for rep in range(config.repetitions)
    ]
    return problems, cells


def _run_cell(cell: Cell) -> Trajectory:
    # module-level so process pools can import it; rebuilds the problem
    # from its registry key instead of pickling closures
    return run_optimizer(cell.algo, get_problem(cell.key), cell.budget, cell.seed)


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _write_rep_csv(path: Path, traj: Trajectory) -> None:
    X, y, G = traj.xs, traj.ys, traj.gs
    bsf = best_so_far(traj)
    d, n_g = X.shape[1], G.shape[1]
    header = (
        ["iteration"]
        + [f"x{i}" for i in range(d)]
        + ["y"]
        + [f"g{i}" for i in range(n_g)]
        + ["best_so_far"]
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i in range(len(traj)):
            row = [str(i + 1)]
            row += [_fmt(v) for v in X[i]]
            row.append(_fmt(y[i]))
            row += [_fmt(v) for v in G[i]]
            row.append(_fmt(bsf[i]))
            w.writerow(row)


def _read_rep_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    i_bsf = header.index("best_so_far")
    g_cols = [i for i, h in enumerate(header) if h.startswith("g")]
    bsf = np.array([float(r[i_bsf]) for r in body])
    G = np.array([[float(r[j]) for j in g_cols] for r in body]).reshape(len(body), -1)
    return bsf, G


def _score_table(config: BenchmarkConfig, problems, runs, status) -> ScoreTable:
    """Score every (problem, algorithm) from its repetitions (pure reduction).

    ``runs`` maps (key, algo, rep) to the best-so-far curve and the G rows of
    each repetition that ran.
    """
    n_effective, r_all, p_all, feas, mviol, convergence = {}, {}, {}, {}, {}, []
    for key, dim, n_e, n_c in problems:
        per_algo, G_rows = {}, {}
        for algo in config.algorithms:
            cells = [runs[key, algo, rep] for rep in range(config.repetitions)
                     if (key, algo, rep) in runs]
            if cells:
                per_algo[algo] = np.array([bsf[n_c:] for bsf, _ in cells])  # warm-up dropped
                G_rows[algo] = np.vstack([G for _, G in cells])
        if not per_algo:
            continue
        n = next(iter(per_algo.values())).shape[1]
        n_effective[key] = n
        mean_curves = {a: c.mean(axis=0) for a, c in per_algo.items()}
        stacked = np.array([mean_curves[a] for a in sorted(mean_curves)])
        worst = stacked.max(axis=0)
        best = stacked.min(axis=0)
        for algo, mc in mean_curves.items():
            r = np.array([score_r(worst[k], best[k], mc[k]) for k in range(n)])
            r_all[(key, algo)] = r
            p_all[(key, algo)] = score_p(r)
            feas[(key, algo)], mviol[(key, algo)] = count_violations(
                G_rows[algo], config.violation_threshold
            )
        for algo in sorted(per_algo):
            c = per_algo[algo]
            for k in range(n):
                vals = c[:, k]
                convergence.append(
                    (
                        key,
                        algo,
                        k + 1,
                        float(vals.mean()),
                        float(np.percentile(vals, 10)),
                        float(np.percentile(vals, 90)),
                    )
                )
    return ScoreTable(
        config.suite, [k for k, *_ in problems], list(config.algorithms), n_effective,
        r_all, p_all, feas, mviol, convergence=convergence, cell_status=status,
    )


def check_jobs(jobs: int) -> int:
    """Return ``jobs``, the number of parallel cells, or raise a ConfigError below 1."""
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    return jobs


def run_benchmark(
    config: BenchmarkConfig, out_dir: Optional[str] = None, jobs: int = 1
) -> ScoreTable:
    """Execute all cells, score them, and optionally persist artifacts.

    A failing cell is recorded in ``cell_status`` and skipped by the
    aggregation; everything else proceeds. Results are bit-reproducible for
    a fixed config regardless of ``jobs``.
    """
    check_jobs(jobs)
    problems, cells = plan_cells(config)
    root = None if out_dir is None else Path(out_dir) / config.suite
    runs, status = {}, {}
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        # jobs == 1 runs each cell on the calling thread when the loop reaches it,
        # so thread CPU clocks see it and its CSV is written before the next starts
        results = ([pool.submit(_run_cell, cell).result for cell in cells] if jobs > 1
                   else [partial(_run_cell, cell) for cell in cells])
        for cell, result in zip(cells, results):
            try:
                traj = result()
            except Exception as exc:
                status[cell.name] = f"failed: {exc}"
                logger.warning("cell %s failed: %s", cell.name, exc)
                continue
            meta = traj.meta
            status[cell.name] = (f"fallback@{meta['fallback_at']}: {meta['fallback_reason']}"
                                 if "fallback_at" in meta else "ok")
            runs[cell.key, cell.algo, cell.rep] = (best_so_far(traj), traj.gs)
            if root is not None:
                _write_rep_csv(root / f"{cell.name}.csv", traj)

    table = _score_table(config, problems, runs, status)
    if root is not None:
        _write_scores(root, config, problems, table)
        _write_convergence(root / "convergence.csv", table.convergence)
        with open(root / "cells.json", "w") as fh:
            json.dump(status, fh, indent=2, sort_keys=True)
    return table


def _write_scores(root: Path, config, problems, table: ScoreTable) -> None:
    root.mkdir(parents=True, exist_ok=True)
    payload = {
        "suite": config.suite,
        "config": config.to_dict(),
        "cells": {
            key: {"dim": d, "n_e": n_e, "n_c": n_c}
            for key, d, n_e, n_c in problems
        },
        "scores": table.to_dict(),
    }
    with open(root / "scores.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def _write_convergence(path: Path, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["problem", "algorithm", "iteration", "mean", "p10", "p90"])
        for key, algo, k, mean, p10, p90 in rows:
            w.writerow([key, algo, str(k), _fmt(mean), _fmt(p10), _fmt(p90)])


def score_results(results_dir: str, suite: Optional[str] = None) -> ScoreTable:
    """Recompute a ScoreTable from persisted CSVs, bit-identically.

    ``results_dir`` points at either the suite directory itself (holding
    scores.json) or its parent, in which case ``suite`` selects the child.
    Cell statuses come from the run's cells.json (none when it is missing).
    """
    root = Path(results_dir)
    if suite is not None:
        root = root / suite
    scores_path = root / "scores.json"
    if not scores_path.exists():
        raise ConfigError(f"no scores.json under {root}")
    with open(scores_path) as fh:
        payload = json.load(fh)
    cfg = dict(payload["config"], suite=payload["suite"])
    for name in ("budgets", "warmup"):
        cfg[name] = {int(d): v for d, v in cfg[name].items()}
    config = BenchmarkConfig(**cfg)
    stored = payload["cells"]
    problems, cells = plan_cells(config, dim_of=lambda key: stored[key]["dim"])
    runs = {}
    for cell in cells:
        path = root / f"{cell.name}.csv"
        if path.exists():
            runs[cell.key, cell.algo, cell.rep] = _read_rep_csv(path)
    cells_path = root / "cells.json"
    status = json.loads(cells_path.read_text()) if cells_path.exists() else {}
    return _score_table(config, problems, runs, status)
