"""Replay recorded quadratic fits under two source trees: time and accuracy.

    python3 BENCH_48/fit_replay.py PARENT_SRC CHANGE_SRC --out BENCH_48/fit_replay.json

A child process with the parent tree's package records every dataset that
`optimizers.fit_quadratic` receives while `cuatro` and `cobyqa` run on
`cstr-pid` at budgets 80 and 150 and on `rosenbrock-d10` at budget 100
(the timed sets), and while `lsqm`, `cuatro` and `cobyqa` run on `cstr-pid`
(budget 150), `rosenbrock-d10`, `ackley-d10` (budget 100) and `levy-d5`
(budget 50) (the accuracy set), all at seed 42. One child per tree then
fits every recorded dataset with that tree's `fit_quadratic`, in the order
the runs made them, so a tree that keeps state between fits of one run (a
growing factor) sees the same sequence: for the timed sets the best of 5
passes over the set, as microseconds per fit; for every set the
coefficients. Children run with one BLAS thread.

Accuracy is the scaled residual of the ridge normal equations,
||A'(y - A beta) - ridge beta|| / ((||A||^2 + ridge) ||beta|| + ||A|| ||y||)
with Frobenius norms, evaluated in long double for each tree's beta.

The script also counts, per perfbench workload at seed 42 (its config
written by `perfbench/run.py`, run as `surropt run --jobs 1` in a child of
each tree), the `fit_quadratic` calls and those with fewer rows than
coefficients (n < p), which take the dual route.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

TIMED = {
    "cstr-pid@80": (("cuatro", "cobyqa"), "cstr-pid", 80),
    "cstr-pid@150": (("cuatro", "cobyqa"), "cstr-pid", 150),
    "rosenbrock-d10@100": (("cuatro", "cobyqa"), "rosenbrock-d10", 100),
}
ACCURACY = {
    "cstr-pid@150": (("lsqm", "cuatro", "cobyqa"), "cstr-pid", 150),
    "rosenbrock-d10@100": (("lsqm", "cuatro", "cobyqa"), "rosenbrock-d10", 100),
    "ackley-d10@100": (("lsqm", "cuatro", "cobyqa"), "ackley-d10", 100),
    "levy-d5@50": (("lsqm", "cuatro", "cobyqa"), "levy-d5", 50),
}
WORKLOADS = ("casestudies", "unconstrained-d10", "constrained")
SEED = 42
RIDGE = 1e-8  # fit_quadratic's default, which every trust-region method uses
ONE_THREAD = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

RECORD = """
import pickle, sys
from surropt import optimizers
from surropt.problems import get_problem
sets, out = pickle.loads(bytes.fromhex(sys.argv[1])), sys.argv[2]
fit = optimizers.fit_quadratic
recorded = {}
for name, (algos, key, budget) in sets.items():
    datasets = recorded[name] = []
    def spy(data, *args, **kwargs):
        datasets.append((data.X.copy(), data.y.copy()))
        return fit(data, *args, **kwargs)
    optimizers.fit_quadratic = spy
    for algo in algos:
        optimizers.run_optimizer(algo, get_problem(key), budget, SEED)
optimizers.fit_quadratic = fit
pickle.dump(recorded, open(out, "wb"))
"""

REPLAY = """
import pickle, sys, time
from surropt.core import Dataset
from surropt.surrogates import fit_quadratic
recorded, timed, out = pickle.load(open(sys.argv[1], "rb")), sys.argv[2].split(","), sys.argv[3]
result = {"betas": {}, "us_per_fit": {}}
for name, datasets in recorded.items():
    data = [Dataset(X, y) for X, y in datasets]
    models = [fit_quadratic(d) for d in data]
    result["betas"][name] = [(m.b, m.c, m.Q) for m in models]
    if name in timed:
        best = float("inf")
        for _ in range(5):
            t = time.perf_counter()
            for d in data:
                fit_quadratic(d)
            best = min(best, time.perf_counter() - t)
        result["us_per_fit"][name] = 1e6 * best / len(data)
pickle.dump(result, open(out, "wb"))
"""

SHARES = """
import contextlib, io, json, sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from run import write_config
from surropt import optimizers
from surropt.cli import main
fit, counts = optimizers.fit_quadratic, {}
def spy(data, *args, **kwargs):
    n, d = data.X.shape
    entry[0] += 1
    entry[1] += n < 1 + d + d * (d + 1) // 2
    return fit(data, *args, **kwargs)
optimizers.fit_quadratic = spy
for workload in sys.argv[2].split(","):
    entry = counts[workload] = [0, 0]
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp, "config.yaml")
        write_config(workload, SEED, config)
        with contextlib.redirect_stdout(io.StringIO()):
            main(["run", "--config", str(config), "--out", str(Path(tmp, "out")), "--jobs", "1"])
print(json.dumps(counts))
"""


def _child(src: str, code: str, *args: str) -> str:
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(Path(src).resolve())}
    return subprocess.run([sys.executable, "-c", f"SEED = {SEED}\n" + code, *args], env=env,
                          check=True, capture_output=True, text=True).stdout


def _beta(b, c, Q):
    iu, ju = np.triu_indices(Q.shape[0])
    return np.concatenate([[b], c, np.where(iu == ju, Q[iu, ju], 2.0 * Q[iu, ju])])


def _residual(X, y, beta) -> float:
    n, d = X.shape
    iu, ju = np.triu_indices(d)
    A = np.column_stack([np.ones(n), X, X[:, iu] * X[:, ju]]).astype(np.longdouble)
    y, beta = y.astype(np.longdouble), beta.astype(np.longdouble)
    r = A.T @ (y - A @ beta) - RIDGE * beta
    norm_a = np.sqrt(np.sum(A * A))
    scale = (norm_a**2 + RIDGE) * np.sqrt(np.sum(beta**2)) + norm_a * np.sqrt(np.sum(y**2))
    return float(np.sqrt(np.sum(r**2)) / scale)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sets = {**ACCURACY, **TIMED}
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    with tempfile.TemporaryDirectory() as tmp:
        rec = os.path.join(tmp, "recorded.pkl")
        _child(args.parent_src, RECORD, pickle.dumps(sets).hex(), rec)
        recorded = pickle.load(open(rec, "rb"))
        trees, shares = {}, {}
        for side, src in (("parent", args.parent_src), ("change", args.change_src)):
            out = os.path.join(tmp, f"{side}.pkl")
            _child(src, REPLAY, rec, ",".join(TIMED), out)
            trees[side] = pickle.load(open(out, "rb"))
            shares[side] = json.loads(_child(src, SHARES, perfbench, ",".join(WORKLOADS)))
    report = {"seed": SEED, "timed": {}, "accuracy": {}, "dual_share": {}}
    for name in TIMED:
        report["timed"][name] = {"fits": len(recorded[name]),
                                 **{f"{side}_us_per_fit": round(t["us_per_fit"][name], 1)
                                    for side, t in trees.items()}}
    worst = {side: 0.0 for side in trees}
    for name in ACCURACY:
        entry = report["accuracy"][name] = {"fits": len(recorded[name])}
        for side, t in trees.items():
            res = [_residual(X, y, _beta(*m)) for (X, y), m in zip(recorded[name], t["betas"][name])]
            entry[f"{side}_max_residual"] = max(res)
            entry[f"{side}_median_residual"] = float(np.median(res))
            worst[side] = max(worst[side], max(res))
        betas = [(_beta(*a), _beta(*b)) for a, b in zip(trees["parent"]["betas"][name],
                                                         trees["change"]["betas"][name])]
        entry["max_relative_beta_difference"] = max(
            float(np.max(np.abs(a - b)) / np.max(np.abs(a))) for a, b in betas)
    report["accuracy_fits"] = sum(len(recorded[name]) for name in ACCURACY)
    report["max_residual"] = worst
    for workload in WORKLOADS:
        calls, dual = shares["change"][workload]
        report["dual_share"][workload] = {
            "calls": calls, "n_below_p": dual, "share": round(dual / calls, 4) if calls else None,
            "same_counts_on_parent": shares["parent"][workload] == [calls, dual]}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
