"""Quality gate for a change: is run B worse than run A on any (problem, algorithm)?

    python3 tools/paired_gate.py A B [--suite S]

A and B are two runs of one config, as `surropt compare` takes them (same
flags and seed; typically the parent tree and the changed tree). The test
runs on each pair of `compare_results`' report. Its sample is the pair's
deltas (B's final best feasible y minus A's, so a positive delta means B
ended higher, worse) plus one unbounded delta per cell where only one side
found a feasible point: -inf where only B did, +inf where only A did. This is
compare's own sign rule, under which such a cell is that side's win, so a
change that loses feasibility counts against B. Zero deltas and cells where
neither side is feasible are ties and are dropped, as the default
`zero_method` of `scipy.stats.wilcoxon` does. Each sample gets an exact
two-sided Wilcoxon signed-rank test, and Holm's step-down runs over every
pair of the report at family-wise level ALPHA. A pair is worse when Holm
rejects it and the median of its sample is positive.

The last line is the verdict: the pairs where B is worse, or "none". With n
nonzero values the smallest p an exact test can give is 2 / 2^n; when even
the least of these over the pairs is above ALPHA / m (m pairs), no pair can
be rejected, and the gate says so: such a run needs more reps. Exit 1 if
any pair is worse, else 0.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np
from scipy import stats

from surropt.bench import compare_results

ALPHA = 0.05  # family-wise level of the verdict


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


def pair_tests(report: dict) -> list:
    """The pairs of a ``compare_results`` report, each with its test and verdict.

    compare counts a one-side-feasible cell in ``b_better`` or ``b_worse``
    beside the negative or positive deltas, so those cells are the counts
    less the deltas of that sign.
    """
    rows = []
    for pair in report["pairs"]:
        d = np.asarray(pair["deltas"], dtype=float)
        b_only = pair["b_better"] - int((d < 0).sum())
        a_only = pair["b_worse"] - int((d > 0).sum())
        sample = np.concatenate([d[d != 0], np.full(b_only, -np.inf), np.full(a_only, np.inf)])
        rows.append({**pair, "b_only_feasible": b_only, "a_only_feasible": a_only,
                     "median": float(np.median(sample)) if sample.size else 0.0,
                     "p": float(stats.wilcoxon(sample, method="exact").pvalue) if sample.size else 1.0,
                     "floor_p": min(1.0, 2.0 ** (1 - sample.size))})
    for row, reject in zip(rows, holm([row["p"] for row in rows])):
        row.update(rejected=bool(reject), worse=bool(reject and row["median"] > 0))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="results of the reference run (the parent)")
    parser.add_argument("b", help="results of the run under test (the change)")
    parser.add_argument("--suite", default=None, help="suite directory under A and B")
    args = parser.parse_args(argv)

    rows = pair_tests(compare_results(args.a, args.b, suite=args.suite))
    m = len(rows)
    print(f"{'problem':<16} {'algorithm':<9} {'B<A':>4} {'B>A':>4} {'ties':>4} "
          f"{'median':>10} {'p':>9} {'Holm':>4}  one side feasible, missing")
    for row in rows:
        print(f"{row['problem']:<16} {row['algorithm']:<9} {row['b_better']:>4} "
              f"{row['b_worse']:>4} {row['ties']:>4} {row['median']:>10.4g} {row['p']:>9.4g} "
              f"{'rej' if row['rejected'] else '-':>4}  B only {row['b_only_feasible']}, "
              f"A only {row['a_only_feasible']}, missing {row['missing']}")
    if m:
        print(f"{m} pairs; smallest raw p {min(row['p'] for row in rows):.4g}; "
              f"Holm's first threshold ALPHA / m = {ALPHA / m:.4g}")
        floor = min(row["floor_p"] for row in rows)
        if floor > ALPHA / m:
            print(f"no pair can be rejected: the smallest attainable p, {floor:.4g}, "
                  f"is above ALPHA / m = {ALPHA / m:.4g}; this gate needs more reps")
    worse = [f"{row['problem']}/{row['algorithm']}" for row in rows if row["worse"]]
    print(f"verdict: B worse at family-wise {ALPHA:g}: {', '.join(worse) or 'none'}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
