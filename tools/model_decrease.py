"""The trust-region step's share of the exact model decrease, for two source trees.

    python3 tools/model_decrease.py PARENT_SRC CHANGE_SRC --out share.json

The steps are every step of `lsqm` and of `cobyqa` runs on ackley, levy and
rosenbrock at d = 2, 5 and 7 (the unconstrained suite's budgets: 20, 50,
80), seeds 0, 1 and 2, as the parent tree's package makes them. A child
process records each step's data, trust region, seed and objective model
once; one child per tree then repeats every recorded step with that tree's
`trust_region_step`, so both trees search the same steps. Children run with
one BLAS thread.

A step's share is (m(c) - m(x)) / (m(c) - m*), for its quadratic model m
(PSD for `lsqm`, indefinite wherever `cobyqa`'s fit is), centre c and
searched point x. m* is the least model value found over the ball and the
box: SLSQP with the analytic gradient, started from the centre, from each
tree's x and from 4 seeded points on the sphere, or a searched point where
that is lower. A step whose decrease m(c) - m* is below 1e-12 (1 + |m(c)|)
is not scored. Model values, shares and leads are taken in long double
(`np.longdouble`): float64 rounds the model values by as much as the leads
it would count at radii near 1e-6. SLSQP itself runs in float64. For each
method the report counts the steps where the two trees searched the same
point, and where the change's share is higher or lower (lower: the parent
was ahead), with the parent's largest lead; and gives each tree's least
share, 1st and 5th percentiles, median, mean, and the count below 0.997
and below 0.99.

A tree whose step searches the ball pool scores below 1 on most steps. A
tree whose step solves the subproblem exactly
(`optimizers._trust_region_subproblem`) scores 1 up to rounding: its share
can exceed 1 by a hair where SLSQP stops short, or fall short of the
pool's where the point x = c + s rounds (a radius near 1e-6 at |c| of a few
units, where the pool's pick among many rounded points can lie a hair
outside the ball) or where g = 2Qc + c cancels near an interior minimizer.
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

KINDS = ("lsqm", "cobyqa")
PROBLEMS = [f"{f}-d{d}" for f in ("ackley", "levy", "rosenbrock") for d in (2, 5, 7)]
BUDGETS = {2: 20, 5: 50, 7: 80}
SEEDS = (0, 1, 2)
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# child: run lsqm and cobyqa, and record each step's arguments and model
RECORD = """
import json, pickle, sys
from surropt import optimizers
from surropt.core import Dataset
from surropt.problems import get_problem
from surropt.surrogates import fit_quadratic
steps = []
step = optimizers.trust_region_step
def recorded(kind, data, bounds, tr, penalties=None, seed=0):
    m = fit_quadratic(Dataset(data.X, data.y), psd=kind == "lsqm")
    steps.append({"kind": kind, "X": data.X.copy(), "y": data.y.copy(), "G": data.G.copy(),
                  "lower": bounds.lower, "upper": bounds.upper,
                  "tr": (tr.center.copy(), tr.radius, tr.min_radius, tr.max_radius),
                  "seed": seed, "model": (m.Q, m.c, m.b)})
    return step(kind, data, bounds, tr, penalties, seed)
optimizers.trust_region_step = recorded
for kind, key, budget, seed in json.loads(sys.argv[2]):
    optimizers.run_optimizer(kind, get_problem(key), budget, seed)
with open(sys.argv[1], "wb") as f:
    pickle.dump(steps, f)
"""

# child: search every recorded step with this tree's trust_region_step
SEARCH = """
import pickle, sys
import numpy as np
from surropt.core import Bounds, Dataset
from surropt.optimizers import TrustRegionState, trust_region_step
with open(sys.argv[1], "rb") as f:
    steps = pickle.load(f)
xs = []
for s in steps:
    center, radius, lo, hi = s["tr"]
    tr = TrustRegionState(center=center, radius=radius, min_radius=lo, max_radius=hi)
    data, bounds = Dataset(s["X"], s["y"], s["G"]), Bounds(s["lower"], s["upper"])
    # unconstrained data: no penalties
    xs.append(trust_region_step(s["kind"], data, bounds, tr, seed=s["seed"]).x)
np.save(sys.argv[2], np.array(xs, dtype=object), allow_pickle=True)
"""


def child(src: Path, code: str, *args: str) -> None:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    env.update(dict.fromkeys(BLAS_THREADS, "1"), PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", code, *args], env=env, check=True)


def model_value(model, x) -> np.longdouble:
    Q, c, b = (np.asarray(a, dtype=np.longdouble) for a in model)
    x = np.asarray(x, dtype=np.longdouble)
    return x @ Q @ x + c @ x + b


def sphere_points(center, radius, seed, n=4) -> list:
    U = np.random.default_rng(seed).standard_normal((n, center.size))
    return list(center + radius * U / np.linalg.norm(U, axis=1, keepdims=True))


def exact_minimum(model, center, radius, lower, upper, starts) -> float:
    from scipy.optimize import minimize

    Q, c, _ = model
    starts = [np.clip(x, lower, upper) for x in starts]
    ball = {"type": "ineq", "fun": lambda x: radius**2 - np.sum((x - center) ** 2),
            "jac": lambda x: -2.0 * (x - center)}
    best = min(model_value(model, x) for x in starts)
    for x0 in starts:
        res = minimize(lambda x: float(model_value(model, x)), x0, jac=lambda x: 2.0 * Q @ x + c, method="SLSQP",
                       bounds=list(zip(lower, upper)), constraints=[ball],
                       options={"ftol": 1e-15, "maxiter": 500})
        x = np.clip(res.x, lower, upper)
        if np.linalg.norm(x - center) <= radius * (1.0 + 1e-9):
            best = min(best, model_value(model, x))
    return best


def summary(shares: np.ndarray) -> dict:
    return {
        "min": float(shares.min()),
        "p1": float(np.percentile(shares, 1)),
        "p5": float(np.percentile(shares, 5)),
        "median": float(np.median(shares)),
        "mean": float(shares.mean()),
        "below_0.997": int(np.sum(shares < 0.997)),
        "below_0.99": int(np.sum(shares < 0.99)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="src/ directory of the parent tree")
    parser.add_argument("change", type=Path, help="src/ directory of the changed tree")
    parser.add_argument("--out", type=Path, required=True, help="JSON report path")
    args = parser.parse_args(argv)

    cases = [(kind, key, BUDGETS[int(key.rsplit("-d", 1)[1])], seed)
             for kind in KINDS for key in PROBLEMS for seed in SEEDS]
    with tempfile.TemporaryDirectory() as tmp:
        recorded = Path(tmp) / "steps.pkl"
        child(args.parent, RECORD, str(recorded), json.dumps(cases))
        with open(recorded, "rb") as f:
            steps = pickle.load(f)
        xs = {}
        for side in ("parent", "change"):
            out = Path(tmp) / f"{side}.npy"
            child(getattr(args, side), SEARCH, str(recorded), str(out))
            xs[side] = list(np.load(out, allow_pickle=True))

    report = {}
    for kind in KINDS:
        ks = [k for k, s in enumerate(steps) if s["kind"] == kind]
        shares = {"parent": [], "change": []}
        for k in ks:
            s = steps[k]
            center, radius = s["tr"][0], s["tr"][1]
            points = [xs["parent"][k], xs["change"][k]]
            m_center = model_value(s["model"], center)
            starts = [center, *points, *sphere_points(center, radius, k)]
            exact = m_center - exact_minimum(s["model"], center, radius, s["lower"], s["upper"],
                                             starts)
            if exact < 1e-12 * (1.0 + abs(m_center)):
                continue
            for side, x in zip(shares, points):
                shares[side].append((m_center - model_value(s["model"], x)) / exact)
        parent = np.array(shares["parent"], dtype=np.longdouble)
        change = np.array(shares["change"], dtype=np.longdouble)
        report[kind] = {
            "steps": len(ks),
            "scored": len(parent),
            "same_point": sum(xs["parent"][k].tobytes() == xs["change"][k].tobytes() for k in ks),
            "change_higher": int(np.sum(change > parent)),
            "change_lower": int(np.sum(change < parent)),
            "change_at_least_parent": float(np.mean(change >= parent)),
            "parent_lead_max": float(np.max(parent - change, initial=0.0)),
            "parent": summary(parent),
            "change": summary(change),
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
