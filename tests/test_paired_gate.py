"""tools/paired_gate.py: Holm's step-down and the per-pair signed-rank tests."""

import csv
import importlib.util
import shutil
from pathlib import Path

import numpy as np
import pytest

from surropt.bench import compare_results
from surropt.cli import main

_PATH = Path(__file__).resolve().parent.parent / "tools" / "paired_gate.py"
_SPEC = importlib.util.spec_from_file_location("paired_gate", _PATH)
paired_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(paired_gate)


def test_holm_rejects_where_the_adjusted_p_is_at_most_alpha():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = rng.uniform(0.0, 0.03, rng.integers(1, 13)) ** rng.uniform(0.5, 2.0)
        m = p.size
        # Holm's adjusted p: running max of (m - i) p_(i) over the sorted p, capped at 1
        order = np.argsort(p, kind="stable")
        adjusted = np.empty(m)
        adjusted[order] = np.minimum(np.maximum.accumulate((m - np.arange(m)) * p[order]), 1.0)
        assert np.array_equal(paired_gate.holm(p), adjusted <= paired_gate.ALPHA)


def _pair(problem, deltas=(), b_only=0, a_only=0, neither=0, missing=0):
    """A report pair as compare_results counts it: one-side-feasible cells are wins."""
    d = np.asarray(deltas, dtype=float)
    return {"problem": problem, "algorithm": "x", "deltas": list(d),
            "b_better": int((d < 0).sum()) + b_only, "b_worse": int((d > 0).sum()) + a_only,
            "ties": int((d == 0).sum()) + neither, "missing": missing}


def test_pair_tests_reads_one_side_feasible_cells_as_unbounded_deltas():
    rows = paired_gate.pair_tests({"pairs": [
        _pair("worse", deltas=1.0 + np.arange(11), a_only=1, missing=1),
        _pair("loses-feasibility", a_only=12),
        _pair("gains-feasibility", b_only=12),
        _pair("never-feasible", neither=12),
        _pair("unchanged", deltas=np.zeros(12)),
    ]})
    worse, loses, gains, never, same = rows
    assert (worse["a_only_feasible"], worse["b_only_feasible"], worse["missing"]) == (1, 0, 1)
    assert worse["p"] == pytest.approx(2.0 ** -11)  # the exact two-sided floor at n = 12
    assert (loses["a_only_feasible"], loses["p"]) == (12, pytest.approx(2.0 ** -11))
    assert (gains["b_only_feasible"], gains["p"]) == (12, pytest.approx(2.0 ** -11))
    assert [r["rejected"] for r in rows] == [True, True, True, False, False]
    assert [r["worse"] for r in rows] == [True, True, False, False, False]
    for tied in (never, same):  # both-infeasible cells and zero deltas are ties: nothing to test
        assert (tied["ties"], tied["p"], tied["floor_p"]) == (12, 1.0, 1.0)


def test_gate_reads_the_cells_a_run_lost_feasibility_in(tmp_path, capsys):
    a = tmp_path / "a"
    assert main(["run", "--suite", "constrained", "--algos", "cobyla", "--problems", "matyas-c",
                 "--reps", "2", "--budget", "10", "--seed", "3", "--jobs", "1",
                 "--out", str(a)]) == 0
    assert paired_gate.main([str(a), str(a)]) == 0
    assert capsys.readouterr().out.endswith("verdict: B worse at family-wise 0.05: none\n")
    b = tmp_path / "b"
    shutil.copytree(a, b)
    for rep in (b / "constrained" / "matyas-c" / "cobyla").glob("rep*.csv"):
        with open(rep, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        for r in rows:
            r[header.index("g0")] = "1.0"  # no row of B is feasible
        with open(rep, "w", newline="") as fh:
            csv.writer(fh).writerows([header, *rows])
    (row,) = paired_gate.pair_tests(compare_results(a, b))
    assert (row["a_only_feasible"], row["b_worse"], row["median"]) == (2, 2, np.inf)
    assert row["p"] == 0.5  # two reps: the smallest attainable p, not enough to reject
    assert paired_gate.main([str(a), str(b)]) == 0
    assert "this gate needs more reps" in capsys.readouterr().out
