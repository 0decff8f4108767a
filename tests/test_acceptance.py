"""Acceptance gate: ten end-to-end criteria, one reported line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL lines.
"""

import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

from surropt import (
    BenchmarkConfig,
    Dataset,
    get_problem,
    run_benchmark,
    run_optimizer,
)
from surropt.bench import score_results
from surropt.casestudies import (
    CstrParams,
    cstr_objective,
    cstr_rhs,
    integrate,
    load_defaults,
    solve_wo,
    wo_residuals,
)
from surropt.cli import main
from surropt.core import NoiseSpec
from surropt.surrogates import fit_gp, fit_quadratic, fit_rbf, gp_posterior, rbf_predict


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ------------------------------------------------------------------ 1


def test_criterion_01_test_function_optima():
    bad = []
    for name in ("ackley", "levy", "rosenbrock", "quadratic"):
        for d in (2, 5, 7, 10):
            problem = get_problem(f"{name}-d{d}")
            x_star, f_star = problem.known_optimum
            v = abs(problem.objective(x_star) - f_star)
            if v > 1e-9:
                bad.append(f"{name}-d{d}: {v:.2e}")
    matyas_g = get_problem("matyas-c").constraints(np.zeros(2))[0]
    quad_g = get_problem("quadratic-c").constraints(np.array([0.0, 0.6]))[0]
    if matyas_g != 3.60:
        bad.append(f"matyas g(0,0)={matyas_g!r}")
    if quad_g != 0.0:
        bad.append(f"quadratic-c g(0,0.6)={quad_g!r}")
    _report(1, "test-function optima", not bad, "; ".join(bad) or "16 optima + 2 identities")


# ------------------------------------------------------------------ 2


def test_criterion_02_surrogate_exactness():
    rng = np.random.default_rng(0)
    bad = []

    X = rng.uniform(0.0, 1.0, size=(8, 2))
    y = np.sin(3.0 * X[:, 0]) + 0.5 * np.cos(2.0 * X[:, 1])
    gp = fit_gp(Dataset(X, y), noise_variance=0.0, seed=0)
    mu, _ = gp_posterior(gp, X)
    interp_err = float(np.max(np.abs(mu - y)))
    if interp_err > 1e-6:
        bad.append(f"gp interpolation {interp_err:.2e}")
    x_far = X.max(axis=0) + 10.0 * gp.kernel_lengthscales
    mu_far, var_far = gp_posterior(gp, x_far)
    prior_var = gp.signal_variance * gp.y_std**2
    if abs(float(mu_far) - gp.y_mean) / gp.y_std > 1e-3:
        bad.append("gp prior mean not recovered")
    if abs(float(var_far) - prior_var) / prior_var > 1e-3:
        bad.append("gp prior variance not recovered")

    objective = get_problem("quadratic-c").objective
    Xq = np.array(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.5], [0.5, -1.0], [2.0, 1.5]]
    )
    quad = fit_quadratic(Dataset(Xq, np.array([objective(x) for x in Xq])))
    Q_true = np.array([[1.0, 0.475], [0.475, 5.9]])
    if np.max(np.abs(quad.Q - Q_true)) > 1e-6 or np.max(np.abs(quad.c)) > 1e-6 or abs(quad.b) > 1e-6:
        bad.append("quadratic coefficients not recovered")

    Xr = np.linspace(-2.0, 2.0, 9).reshape(-1, 1)
    yr = np.abs(Xr[:, 0]) + np.sin(Xr[:, 0])
    rbf = fit_rbf(Dataset(Xr, yr))
    rbf_err = float(np.max(np.abs(rbf_predict(rbf, Xr) - yr)))
    if rbf_err > 1e-8:
        bad.append(f"rbf interpolation {rbf_err:.2e}")
    affine = fit_rbf(Dataset(Xr, 2.0 * Xr[:, 0] + 1.0))
    if float(np.max(np.abs(affine.lam))) > 1e-8:
        bad.append("rbf affine data needs nonzero lambda")

    _report(2, "surrogate exactness", not bad, "; ".join(bad) or "gp, quadratic, rbf")


# ------------------------------------------------------------------ 3


def _handcrafted_results(root: Path):
    """Three trajectory sets at the d=2 protocol (20 evals, 5 warm-up)."""
    n_e, n_c = 20, 5
    sets = {
        "setA": {
            "a1": [[20.0 - 0.8 * k for k in range(n_e)], [18.0 - 0.7 * k for k in range(n_e)]],
            "a2": [[20.0 - 0.5 * k for k in range(n_e)], [19.0 - 0.4 * k for k in range(n_e)]],
            "a3": [[20.0 - 0.65 * k for k in range(n_e)], [18.5 - 0.55 * k for k in range(n_e)]],
        },
        # every algorithm identical from iteration 10 on: tie convention
        "setB": {
            "a1": [[max(10.0 - k, 3.0) for k in range(n_e)]],
            "a2": [[max(12.0 - 1.5 * k, 3.0) for k in range(n_e)]],
            "a3": [[max(11.0 - 1.2 * k, 3.0) for k in range(n_e)]],
        },
        "setC": {
            "a1": [[100.0 / (k + 1) for k in range(n_e)]],
            "a2": [[80.0 / (k + 1) + 1.0 for k in range(n_e)]],
            "a3": [[90.0 / (k + 1) + 0.5 for k in range(n_e)]],
        },
    }
    for key, algos in sets.items():
        for algo, reps in algos.items():
            for rep, bsf in enumerate(reps):
                path = root / key / algo / f"rep{rep}.csv"
                path.parent.mkdir(parents=True, exist_ok=True)
                with open(path, "w", newline="") as fh:
                    w = csv.writer(fh)
                    w.writerow(["iteration", "x0", "x1", "y", "best_so_far"])
                    for i, b in enumerate(bsf):
                        w.writerow([str(i + 1), "0", "0", "%.17g" % b, "%.17g" % b])
    payload = {
        "suite": "hand",
        "config": {
            "algorithms": ["a1", "a2", "a3"],
            "problems": list(sets),
            "dims": [2],
            "repetitions": 2,
            "budgets": {"2": n_e},
            "warmup": {"2": n_c},
            "seed": 0,
            "violation_threshold": 1e-3,
        },
        "cells": {key: {"dim": 2, "n_e": n_e, "n_c": n_c} for key in sets},
    }
    with open(root / "scores.json", "w") as fh:
        json.dump(payload, fh)
    return sets, n_c


def test_criterion_03_scoring_oracle(tmp_path):
    sets, n_c = _handcrafted_results(tmp_path)
    table = score_results(tmp_path)
    bad = []
    for key, algos in sets.items():
        # independent scorer: plain python, no shared code with the package
        means = {
            a: [sum(rep[k] for rep in reps) / len(reps) for k in range(n_c, 20)]
            for a, reps in algos.items()
        }
        n = len(next(iter(means.values())))
        if table.n_effective[key] != 15 or n != 15:
            bad.append(f"{key}: effective length {table.n_effective[key]}")
        for a in algos:
            expect = []
            for k in range(n):
                vals = [means[x][k] for x in algos]
                worst, best = max(vals), min(vals)
                expect.append(1.0 if worst == best else (worst - means[a][k]) / (worst - best))
            got = table.r[(key, a)]
            if np.max(np.abs(got - np.array(expect))) > 1e-12:
                bad.append(f"{key}/{a}: r mismatch")
            if abs(table.p[(key, a)] - sum(expect) / n) > 1e-12:
                bad.append(f"{key}/{a}: p mismatch")
    tie_tail = table.r[("setB", "a1")][5:]
    if not np.all(tie_tail == 1.0):
        bad.append("tie convention violated in setB")
    _report(3, "scoring oracle equivalence", not bad, "; ".join(bad) or "3 sets, ties included")


# ------------------------------------------------------------------ 4


def test_criterion_04_protocol_fidelity(tmp_path):
    t0 = time.monotonic()
    code = main(
        ["run", "--suite", "unconstrained", "--dims", "2", "--reps", "5",
         "--seed", "42", "--out", str(tmp_path), "--jobs", "1"]
    )
    elapsed = time.monotonic() - t0
    bad = [] if code == 0 else [f"exit code {code}"]
    suite = tmp_path / "unconstrained"
    with open(suite / "scores.json") as fh:
        payload = json.load(fh)
    cells = payload["cells"]
    if len(cells) != 4 or any(m != {"dim": 2, "n_e": 20, "n_c": 5} for m in cells.values()):
        bad.append("cell metadata wrong")
    n_csv = 0
    for key in cells:
        for algo in payload["config"]["algorithms"]:
            for rep in range(5):
                with open(suite / key / algo / f"rep{rep}.csv", newline="") as fh:
                    rows = list(csv.reader(fh))
                n_csv += 1
                if len(rows) - 1 != 20:
                    bad.append(f"{key}/{algo}/rep{rep}: {len(rows) - 1} rows")
                    continue
                ys = np.array([float(r[3]) for r in rows[1:]])
                bsf = np.array([float(r[4]) for r in rows[1:]])
                if not np.array_equal(bsf, np.minimum.accumulate(ys)):
                    bad.append(f"{key}/{algo}/rep{rep}: best-so-far broken")
            if len(payload["scores"][key][algo]["r"]) != 15:
                bad.append(f"{key}/{algo}: r length != 15")
    if n_csv != 120:
        bad.append(f"{n_csv} trajectory files")
    if elapsed > 120.0:
        bad.append(f"{elapsed:.0f} s > 2 min")
    _report(4, "protocol fidelity", not bad,
            "; ".join(bad) or f"120 cells x 20 evals in {elapsed:.0f} s")


# ------------------------------------------------------------------ 5


def test_criterion_05_convergence_smoke():
    prob = get_problem("quadratic-d2")
    t0 = time.monotonic()
    bad = []
    for algo in ("lsqm", "cobyqa", "bo"):
        hits = sum(
            float(np.min(run_optimizer(algo, prob, 20, seed).ys)) <= 1e-2
            for seed in range(5)
        )
        if hits < 4:
            bad.append(f"{algo}: {hits}/5")
    elapsed = time.monotonic() - t0
    if elapsed > 60.0:
        bad.append(f"{elapsed:.0f} s > 1 min")
    _report(5, "convergence smoke", not bad, "; ".join(bad) or "lsqm, cobyqa, bo >= 4/5")


# ------------------------------------------------------------------ 6


def test_criterion_06_directional_table():
    prob = get_problem("levy-d2")
    wins = 0
    for seed in range(5):
        best_d = float(np.min(run_optimizer("dycors", prob, 20, seed).ys))
        best_l = float(np.min(run_optimizer("lsqm", prob, 20, seed).ys))
        wins += best_d <= best_l
    _report(6, "directional levy comparison", wins >= 4, f"dycors wins {wins}/5 paired seeds")


# ------------------------------------------------------------------ 7


def _final_incumbent(traj):
    worst = np.max(traj.gs, axis=1)
    feasible = worst <= 1e-3
    if np.any(feasible):
        i = int(np.argmin(np.where(feasible, traj.ys, np.inf)))
    else:
        i = int(np.argmin(worst))
    return traj.ys[i], worst[i]


def test_criterion_07_constrained_behavior():
    prob = get_problem("quadratic-c")
    bad = []
    for algo in ("cobyla", "cobyqa"):
        feasible_runs = 0
        for seed in range(5):
            _, g = _final_incumbent(run_optimizer(algo, prob, 20, seed))
            feasible_runs += g <= 1e-3
        if feasible_runs < 4:
            bad.append(f"{algo}: {feasible_runs}/5 feasible incumbents")
    config = BenchmarkConfig(
        algorithms=["cobyla", "cobyqa"], problems=["quadratic-c"],
        repetitions=5, budgets={2: 20}, warmup={2: 5}, seed=0, suite="acc7",
    )
    table = run_benchmark(config)
    for algo in config.algorithms:
        key = ("quadratic-c", algo)
        print(
            f"  {algo}: {table.p[key]:.2f} | {100 * table.feasibility[key]:.1f}% | "
            f"{table.mean_violation[key]:.3g}"
        )
        if not (0.0 <= table.feasibility[key] <= 1.0) or table.mean_violation[key] < 0:
            bad.append(f"{algo}: malformed feasibility report")
    _report(7, "constrained behavior", not bad, "; ".join(bad) or "feasible incumbents >= 4/5")


# ------------------------------------------------------------------ 8


def test_criterion_08_cstr_simulator():
    bad = []
    rhs = lambda y, u: -y
    errs = []
    for dt in (0.01, 0.005):
        states, failed = integrate(rhs, np.array([1.0]), [np.zeros(1)], dt=1.0, horizon=1.0,
                                   substeps=int(round(1.0 / dt)))
        errs.append(abs(float(states[-1][0]) - np.exp(-1.0)))
    ratio = errs[0] / errs[1]
    if not (8.0 <= ratio <= 32.0):
        bad.append(f"order-4 ratio {ratio:.1f}")

    cfg = dict(load_defaults()["cstr"])
    cfg["k0_ab"] = 0.0
    cfg["k0_bc"] = 0.0
    cfg["ua"] = 0.0
    params = CstrParams.from_config(cfg)
    controls = [np.array([100.0, 295.0])] * 200
    states, failed = integrate(
        lambda y, u: cstr_rhs(y, u, params), np.array([0.877, 0.0, 324.475]),
        controls, dt=1.0, horizon=200.0, substeps=10,
    )
    final = states[-1]
    if failed or abs(final[0] - 1.0) > 1e-8 or abs(final[1]) > 1e-12 or abs(final[2] - 350.0) > 1e-6:
        bad.append(f"dilution-only endpoint {final}")

    rng = np.random.default_rng(3)
    theta = rng.uniform(0.0, 1.0, 32)
    v1 = cstr_objective(theta, noise=NoiseSpec(5.0), seed=11)
    v2 = cstr_objective(theta, noise=NoiseSpec(5.0), seed=11)
    if not np.isfinite(v1) or v1 != v2:
        bad.append("objective not finite/deterministic")

    tuned = np.zeros((4, 2, 4))
    tuned[:, :, 0] = 0.5
    tuned[:, :, 1] = 0.3
    tuned[:, :, 3] = 0.8
    tuned = tuned.ravel()
    zero = np.zeros(32)
    losses = sum(
        cstr_objective(tuned, noise=NoiseSpec(5.0), seed=s)
        >= cstr_objective(zero, noise=NoiseSpec(5.0), seed=s)
        for s in range(5)
    )
    if losses:
        bad.append(f"tuned gains lost on {losses} seeds")
    _report(8, "cstr simulator", not bad, "; ".join(bad) or "order 4, dilution, tuned > zero")


# ------------------------------------------------------------------ 9

WO_GRID_ORACLE = 177.980105  # 50x50 grid search over the input box


def test_criterion_09_williams_otto():
    bad = []
    corners = [(343.15, 3.0), (343.15, 6.0), (373.15, 3.0), (373.15, 6.0), (358.0, 4.5)]
    for T, FB in corners:
        w, converged = solve_wo(T, FB)
        res = wo_residuals(w, (T, FB))
        if not converged or abs(float(np.sum(w)) - 1.0) > 1e-10 or np.max(np.abs(res)) >= 1e-8:
            bad.append(f"steady state at ({T}, {FB})")
    traj = run_optimizer("cobyqa", get_problem("williams-otto"), 20, 0)
    feasible = np.max(traj.gs, axis=1) <= 1e-3
    best_profit = -float(np.min(traj.ys[feasible])) if np.any(feasible) else -np.inf
    if best_profit < 0.98 * WO_GRID_ORACLE:
        bad.append(f"profit {best_profit:.2f} below 98% of {WO_GRID_ORACLE}")
    _report(9, "williams-otto", not bad,
            "; ".join(bad) or f"best feasible profit {best_profit:.2f}")


# ------------------------------------------------------------------ 10


def test_criterion_10_reproducibility(tmp_path):
    config = dict(
        algorithms=["lsqm", "dycors"], problems=["quadratic", "matyas-c"], dims=[2],
        repetitions=2, budgets={2: 20}, warmup={2: 5}, seed=11, suite="repro",
    )
    run_benchmark(BenchmarkConfig(**config), out_dir=tmp_path / "one")
    run_benchmark(BenchmarkConfig(**config), out_dir=tmp_path / "two")
    one = tmp_path / "one" / "repro"
    bad = []
    for path in sorted(one.rglob("*")):
        if path.is_dir():
            continue
        twin = tmp_path / "two" / "repro" / path.relative_to(one)
        a, b = path.read_bytes(), twin.read_bytes()
        if path.name == "manifest.json":  # the one artifact that records when it was written
            a, b = ({**json.loads(m), "timestamp": None} for m in (a, b))
        if a != b:
            bad.append(str(path.relative_to(one)))
    _report(10, "reproducibility", not bad, "; ".join(bad) or "all artifacts bit-identical")
