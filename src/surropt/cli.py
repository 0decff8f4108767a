"""Command-line interface: configure, run, score, and inspect benchmarks.

Subcommands::

    surropt run      --suite unconstrained --dims 2 --reps 5 --seed 42
    surropt optimize --algo dycors --problem ackley-d5 --budget 50
    surropt score    --out results --suite unconstrained
    surropt compare  before/constrained after/constrained --json compare.json
    surropt list

``run`` calls ``run_benchmark``, which writes manifest.json before any cell
executes, as for every caller with an output directory, then the full
results layout (per-repetition CSVs, scores.json, convergence.csv, cells.json).
``score`` recomputes the scores from the ``y`` and ``g`` columns of the
stored trajectories and rewrites scores.json and convergence.csv; on
untouched results both come back bit-identical, and otherwise it names the
files that changed. ``compare`` pairs the cells of two runs of one config
and prints markdown tables of where trajectories differ and of the paired
difference in final best feasible value with each pair's exact signed-rank
p and Holm's decision; the line before the last names the pairs where B is
better at family-wise 5%, and the last is the verdict, the pairs where B is
worse. It writes the same report as JSON first and exits 0 whatever it
finds. On a closed stdout every command exits 1 quietly.

Config files are YAML with the keys suite, algorithms, problems, dims,
repetitions, budgets, warmup, seed. Every key but warmup has a flag, and flags
win; ``--budget`` sets one budget for every dimension in use, and a dimension
without a warm-up preset needs a config file. None sets feasibility:
``core.feasible`` judges it, as in the optimizers.
The output root defaults to ./results or the SURROPT_RESULTS environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from .bench import (
    DEFAULT_BUDGETS,
    DEFAULT_DIMS,
    DEFAULT_WARMUP,
    BenchmarkConfig,
    RunManifest,
    _write_rep_csv,
    compare_markdown,
    compare_results,
    expand_problems,
    planned_dim,
    rescore_results,
    run_benchmark,
)
from .core import ConfigError, _keep_heap, best_feasible_so_far, feasible, unknown_name
from .optimizers import ALGORITHMS, check_cell, run_optimizer
from .problems import BASE_FUNCTIONS, get_problem, list_problems

__all__ = ["RunManifest", "parse_config", "main"]

SUITES = {
    "unconstrained": {
        "algorithms": ["bo", "lsqm", "cobyla", "cobyqa", "cuatro", "dycors"],
        "problems": list(BASE_FUNCTIONS),
    },
    "constrained": {
        "algorithms": ["cbo", "cobyla", "cobyqa", "cuatro"],
        "problems": ["rosenbrock-c", "quadratic-c", "matyas-c"],
    },
    "casestudies": {
        "algorithms": ["cobyla", "cobyqa", "cuatro", "dycors"],
        "problems": ["cstr-pid", "williams-otto"],
        "budgets": {32: 150},
        "warmup": {32: 15},
    },
}

_CONFIG_KEYS = tuple(f.name for f in fields(BenchmarkConfig))
_CONFIG_KINDS = {"budgets": dict, "warmup": dict, "algorithms": list, "problems": list, "dims": list}


def _convert(kind, key: str, value):
    """``kind(value)``, or a ConfigError naming ``key`` if the value does not convert."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"config key '{key}' must be {what}, got {value!r}") from None


def parse_config(path: Optional[str] = None, flags: Optional[dict] = None) -> BenchmarkConfig:
    """Merge a YAML config file and command-line flags into a BenchmarkConfig.

    Precedence: flags > file > suite preset > documented defaults
    (repetitions 5, dims 2/5/7). An empty config selects the unconstrained
    suite. A key that is no ``BenchmarkConfig`` field (none sets feasibility)
    is refused as an unknown config key.
    """
    flags = {k: v for k, v in (flags or {}).items() if v is not None}
    data = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {path}")
        data = yaml.safe_load(p.read_text()) or {}
        if not isinstance(data, dict):
            raise ConfigError("config file must be a YAML mapping")
        for key, value in data.items():
            if key not in _CONFIG_KEYS:
                raise unknown_name("config key", key, _CONFIG_KEYS)
            kind = _CONFIG_KINDS.get(key)
            if kind is not None and not isinstance(value, kind):
                raise ConfigError(
                    f"config key '{key}' must be a {'mapping' if kind is dict else 'list'}, "
                    f"got {value!r}"
                )

    suite = flags.get("suite", data.get("suite"))
    if suite is None and "algorithms" not in flags and "algorithms" not in data:
        suite = "unconstrained"
    if suite is not None and suite not in SUITES:
        raise unknown_name("suite", suite, SUITES)
    preset = SUITES.get(suite, {})

    def pick(key, default):
        return flags.get(key, data.get(key, preset.get(key, default)))

    algorithms = pick("algorithms", None)
    problems = pick("problems", None)
    if not algorithms:
        raise ConfigError("no algorithms selected; pass --algos or --suite")
    if not problems:
        raise ConfigError("no problems selected; pass --problems or --suite")
    for algo in algorithms:
        check_cell(algo)

    dims = [_convert(int, "dims", d) for d in pick("dims", DEFAULT_DIMS)]

    def per_dim(key, defaults):
        # JSON files, scores.json's config block among them, key dimensions by strings
        pairs = data.get(key, {}).items()
        return {**defaults, **preset.get(key, {}),
                **{_convert(int, key, d): _convert(int, key, v) for d, v in pairs}}

    budgets, warmup = per_dim("budgets", DEFAULT_BUDGETS), per_dim("warmup", DEFAULT_WARMUP)

    # keep only the dimensions this config can actually touch, so a scalar
    # --budget never trips the budget>warmup check for unused presets
    dims_in_use = {d for _, d in expand_problems(problems, dims, planned_dim)}
    if "budget" in flags:
        budgets = {d: int(flags["budget"]) for d in dims_in_use}
    else:
        budgets = {d: b for d, b in budgets.items() if d in dims_in_use}
    warmup = {d: w for d, w in warmup.items() if d in dims_in_use}

    return BenchmarkConfig(
        algorithms=list(algorithms),
        problems=list(problems),
        dims=dims,
        repetitions=_convert(int, "repetitions", pick("repetitions", 5)),
        budgets=budgets,
        warmup=warmup,
        seed=_convert(int, "seed", pick("seed", 0)),
        suite=suite or "custom",
    )


def _out_root(value: Optional[str]) -> Path:
    return Path(value or os.environ.get("SURROPT_RESULTS", "results"))


def _print_table(table) -> None:
    print(f"{'problem':<18} {'algorithm':<10} {'p':>7} {'feasible':>9} {'mean viol':>10}")
    for key in table.problems:
        for algo in table.algorithms:
            if (key, algo) not in table.p:
                continue
            feas = table.feasibility[(key, algo)]
            mv = table.mean_violation[(key, algo)]
            print(
                f"{key:<18} {algo:<10} {table.p[(key, algo)]:>7.3f} "
                f"{100 * feas:>8.1f}% {mv:>10.3g}"
            )


def cmd_run(args) -> int:
    config = parse_config(args.config, vars(args))
    jobs = (os.cpu_count() or 1) if args.jobs is None else args.jobs
    root = _out_root(args.out)
    table = run_benchmark(config, out_dir=root, jobs=jobs)
    not_ok = sorted(k for k, v in table.cell_status.items() if v != "ok")
    _print_table(table)
    print(f"results under {root / config.suite}")
    if not_ok:
        print(f"{len(not_ok)} cell(s) not ok:", file=sys.stderr)
        for cell in not_ok:
            print(f"  {cell}: {table.cell_status[cell]}", file=sys.stderr)
        if args.strict:
            return 1
    return 0


def cmd_optimize(args) -> int:
    problem = get_problem(args.problem)
    budget = args.budget
    if budget is None:
        presets = {**DEFAULT_BUDGETS, **SUITES["casestudies"]["budgets"]}
        budget = presets.get(problem.dim)
    if budget is None:
        raise ConfigError(f"no budget preset for dimension {problem.dim}; pass --budget")
    traj = run_optimizer(args.algo, problem, budget, args.seed)
    out = Path(args.out or f"{args.problem}_{args.algo}_seed{args.seed}.csv")
    _write_rep_csv(out, traj)
    ok, best = feasible(traj.gs), best_feasible_so_far(traj.ys, traj.gs)[-1]
    summary = (f"best y = {best:.6g}, {ok.sum()} of {len(traj)} evaluations feasible"
               if ok.any() else f"no best y: none of {len(traj)} evaluations feasible")
    print(f"{args.algo} on {args.problem}: {summary}")
    print(f"trajectory written to {out}")
    return 0


def cmd_score(args) -> int:
    table, changed = rescore_results(_out_root(args.out), suite=args.suite)
    _print_table(table)
    if changed:
        print(f"rewrote {' and '.join(changed)} (stored values differed)")
    else:
        print("scores.json and convergence.csv reproduced bit-identically")
    return 0


def cmd_compare(args) -> int:
    report = compare_results(args.a, args.b, suite=args.suite)
    Path(args.json).write_text(json.dumps(report, indent=2))
    print(compare_markdown(report), end="")
    return 0


def cmd_list(args) -> int:
    print("algorithms:")
    print("  " + " ".join(ALGORITHMS))
    print("suites:")
    for name, preset in SUITES.items():
        print(f"  {name}: {' '.join(preset['problems'])}")
    print("problems:")
    for key in list_problems():
        print(f"  {key}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surropt",
        description="surrogate-based optimization benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a benchmark suite")
    run.add_argument("--suite", choices=sorted(SUITES), default=None)
    run.add_argument("--config", default=None, help="YAML config file")
    run.add_argument("--algos", dest="algorithms", nargs="+", default=None)
    run.add_argument("--problems", nargs="+", default=None)
    run.add_argument("--dims", nargs="+", type=int, default=None)
    run.add_argument("--budget", type=int, default=None,
                     help="override the evaluation budget for every dimension in use")
    run.add_argument("--reps", dest="repetitions", type=int, default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--out", default=None, help="output root (default ./results or $SURROPT_RESULTS)")
    run.add_argument("--jobs", type=int, default=None, help="parallel cells (default: cpu count)")
    run.add_argument("--strict", action="store_true", help="nonzero exit if any cell is not ok")
    run.set_defaults(fn=cmd_run)

    opt = sub.add_parser("optimize", help="run one algorithm on one problem")
    opt.add_argument("--algo", required=True)
    opt.add_argument("--problem", required=True)
    opt.add_argument("--budget", type=int, default=None)
    opt.add_argument("--seed", type=int, default=0)
    opt.add_argument("--out", default=None, help="trajectory CSV path")
    opt.set_defaults(fn=cmd_optimize)

    score = sub.add_parser("score", help="re-score a results directory")
    score.add_argument("--out", default=None, help="results root")
    score.add_argument("--suite", default=None)
    score.set_defaults(fn=cmd_score)

    cmp = sub.add_parser("compare", help="pair the cells of two runs of one config")
    cmp.add_argument("a", help="results of the baseline run (root or suite directory)")
    cmp.add_argument("b", help="results of the run compared with it")
    cmp.add_argument("--suite", default=None, help="suite directory under both roots")
    cmp.add_argument("--json", default="compare.json", help="JSON report path")
    cmp.set_defaults(fn=cmd_compare)

    lst = sub.add_parser("list", help="show algorithms, suites, and problems")
    lst.set_defaults(fn=cmd_list)
    return parser


def main(argv=None) -> int:
    _keep_heap()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.fn(args)
        sys.stdout.flush()
        return status
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout's reader has closed: quiet the flush at exit, as the signal docs do
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
