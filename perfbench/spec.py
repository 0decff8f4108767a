"""Workloads and metric names of the surropt benchmark.

Run ``python3 perfbench/spec.py`` to print every metric by name with its
unit. ``BENCHMARK.json`` at the repository root must list the same names;
``test_perfbench.py`` checks that it does.
"""

from __future__ import annotations

# One config per workload, in the YAML schema `surropt run --config` reads.
# The benchmark seed is filled in at run time.
WORKLOADS = {
    # Simulator-bound: the CSTR-PID model (d=32) and Williams-Otto. The
    # cstr-pid budget stays above the 2d = 64 points of the DYCORS initial
    # design so DYCORS takes proposal steps; d=32 quadratic fits and DYCORS
    # distance tensors are the other large costs. No GP work.
    "casestudies": {
        "suite": "casestudies",
        "repetitions": 1,
        "budgets": {32: 80},
    },
    # Surrogate-bound: six algorithms at d=10, where fit_gp dominates and
    # objectives cost almost nothing.
    "unconstrained-d10": {
        "suite": "unconstrained",
        "problems": ["ackley-d10", "rosenbrock-d10"],
        "repetitions": 1,
        "budgets": {10: 100},
    },
    # Call-overhead-bound: many small GP fits (n <= 20, d = 2) with
    # constraint GPs, and the most result files per second of work.
    "constrained": {
        "suite": "constrained",
        "repetitions": 10,
        "budgets": {2: 20},
    },
}

# name -> (unit, definition)
END_TO_END = {
    "norm_cpu_s": ("s", "CPU time of `surropt run`, rescaled by the speed probe to reference speed"),
    "evals_per_s": ("1/s", "objective evaluations completed per normalized CPU second"),
    "peak_rss_mb": ("MB", "peak resident set size of the program process"),
    "setup_s": ("s", "median normalized CPU time of fresh interpreters to reach a planned run"),
    "ok_frac": ("ratio", "cells that pass every correctness check over cells attempted"),
}

PER_LAYER = {
    "casestudies.calls": ("count", "case-study objective calls"),
    "casestudies.s": ("s", "case-study objective and constraint time"),
    "casestudies.ms_per_call_p50": ("ms", "median case-study time per evaluation"),
    "casestudies.ms_per_call_p90": ("ms", "90th percentile case-study time per evaluation"),
    "problems.calls": ("count", "synthetic objective calls"),
    "problems.s": ("s", "synthetic objective and constraint time"),
    "problems.get_problem.calls": ("count", "get_problem calls made by the harness"),
    "problems.get_problem.s": ("s", "get_problem time"),
    "surrogates.fit_gp.calls": ("count", "fit_gp calls"),
    "surrogates.fit_gp.s": ("s", "fit_gp self time"),
    "surrogates.fit_quadratic.calls": ("count", "fit_quadratic calls"),
    "surrogates.fit_quadratic.s": ("s", "fit_quadratic self time"),
    "surrogates.fit_rbf.calls": ("count", "fit_rbf calls"),
    "surrogates.fit_rbf.s": ("s", "fit_rbf self time"),
    "surrogates.fit_linear.calls": ("count", "fit_linear calls"),
    "surrogates.fit_linear.s": ("s", "fit_linear self time"),
    "surrogates.predict.calls": ("count", "gp_posterior, rbf_predict, QuadModel.predict and LinModel.predict calls"),
    "surrogates.predict.s": ("s", "surrogate prediction self time"),
    "optimizers.self_s": ("s", "cell time minus evaluate, dataset and surrogate time"),
    "optimizers.steps": ("count", "proposal steps timed for step_ms"),
    "optimizers.step_ms_p50": ("ms", "median time between consecutive evaluations of a step"),
    "optimizers.step_ms_p90": ("ms", "90th percentile time between consecutive evaluations of a step"),
    "optimizers.fallbacks": ("count", "cells that fell back to random search"),
    "core.evaluate.calls": ("count", "evaluate calls"),
    "core.evaluate.self_s": ("s", "evaluate time minus objective and constraint time"),
    "core.dataset.calls": ("count", "Dataset.from_trajectory calls"),
    "core.dataset.s": ("s", "Dataset.from_trajectory time"),
    "bench.cells": ("count", "cells run"),
    "bench.self_s": ("s", "run_benchmark time outside cells and get_problem: scoring and writes"),
    "bench.rescore_s": ("s", "score_results time"),
    "trace.overhead_frac": ("ratio", "traced over untraced norm_cpu_s, minus 1"),
}

# Time units that the speed probe rescales.
SCALED_UNITS = ("s", "ms")


def main() -> None:
    for title, table in (("end to end (--trace 0)", END_TO_END),
                         ("per layer (--trace 1)", PER_LAYER)):
        print(title)
        for name, (unit, what) in table.items():
            print(f"  {name:<32} {unit:<6} {what}")


if __name__ == "__main__":
    main()
