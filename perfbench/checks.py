"""Correctness checks on a finished `surropt run` results directory.

A cell is ok when cells.json says ``ok``, its CSV has exactly ``budget``
rows, every ``y`` and ``g`` is finite, and the optimizer did not fall back
to random search. The whole run must also re-score bit-identically with
``score_results``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import sys
from pathlib import Path

import numpy as np

FALLBACK_MARK = "random search"


class FallbackLog(logging.Handler):
    """Collects the cells whose run fell back to random search.

    ``run_optimizer`` logs one such warning per cell at most. The cell is
    read from the ``run_optimizer`` frame that emitted it: (problem name,
    algorithm, seed).
    """

    def __init__(self, run_optimizer_code):
        super().__init__(logging.WARNING)
        self._code = run_optimizer_code
        self.cells: list[tuple] = []

    def emit(self, record):
        if FALLBACK_MARK not in record.getMessage():
            return
        frame = sys._getframe()
        while frame is not None and frame.f_code is not self._code:
            frame = frame.f_back
        if frame is None:
            self.cells.append(None)
            return
        local = frame.f_locals
        self.cells.append((local["problem"].name, local["algorithm"], local["seed"]))


def read_cell_csv(path: Path):
    """(X, y, G) of one rep CSV, bit-exact: the CSV stores 17 digits."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    cols = np.array([[float(v) for v in r] for r in body]).reshape(len(body), len(header))
    xi = [i for i, h in enumerate(header) if h.startswith("x")]
    gi = [i for i, h in enumerate(header) if h.startswith("g")]
    return cols[:, xi], cols[:, header.index("y")], cols[:, gi]


def fingerprint(X, y, G) -> str:
    """SHA-256 of a trajectory's xs, ys and gs as float64."""
    h = hashlib.sha256()
    for a in (X, y, G):
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def check_cells(suite_dir: Path, fallback_cells, derive_seed):
    """Per-cell verdicts: {cell: {"ok", "faults", "sha256", "evaluations"}}.

    ``fallback_cells`` holds (problem, algorithm, seed) of each cell that
    fell back to random search; ``derive_seed`` is surropt's, to find them.
    """
    payload = json.loads((suite_dir / "scores.json").read_text())
    status = json.loads((suite_dir / "cells.json").read_text())
    cfg = payload["config"]
    unattributed = set(fallback_cells)
    verdicts = {}
    for key, meta in payload["cells"].items():
        for algo in cfg["algorithms"]:
            for rep in range(cfg["repetitions"]):
                cell = f"{key}/{algo}/rep{rep}"
                faults, digest, n = [], None, 0
                if status.get(cell) != "ok":
                    faults.append(f"status {status.get(cell)!r}")
                path = suite_dir / key / algo / f"rep{rep}.csv"
                if path.exists():
                    X, y, G = read_cell_csv(path)
                    n = len(y)
                    digest = fingerprint(X, y, G)
                    if n != meta["n_e"]:
                        faults.append(f"{n} rows, budget {meta['n_e']}")
                    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(G))):
                        faults.append("non-finite y or g")
                else:
                    faults.append("no CSV")
                seed = derive_seed(cfg["seed"], algo, key, meta["dim"], rep)
                if (key, algo, seed) in unattributed:
                    unattributed.discard((key, algo, seed))
                    faults.append("fell back to random search")
                verdicts[cell] = {"ok": not faults, "faults": faults,
                                  "sha256": digest, "evaluations": n}
    if unattributed:
        for v in verdicts.values():
            v["ok"] = False
            v["faults"].append("a fallback could not be attributed to a cell")
    return verdicts


def check_rescore(suite_dir: Path, table) -> dict:
    """Compare a re-scored table with the stored scores.json and convergence.csv.

    scores.json must come back byte-identical, as `surropt score` checks.
    score_results lists problems in sorted key order rather than config
    order, so convergence rows are compared per (problem, algorithm,
    iteration) key; whether the order also matched is reported alone.
    """
    stored = (suite_dir / "scores.json").read_text()
    payload = json.loads(stored)
    payload["scores"] = table.to_dict()
    scores_identical = json.dumps(payload, indent=2, sort_keys=True) == stored

    with open(suite_dir / "convergence.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    fmt = "%.17g"
    rescored = [[key, algo, str(k), fmt % mean, fmt % p10, fmt % p90]
                for key, algo, k, mean, p10, p90 in table.convergence]
    by_key = {tuple(r[:3]): r[3:] for r in rows}
    convergence_identical = (len(rows) == len(rescored) and all(
        by_key.get(tuple(r[:3])) == r[3:] for r in rescored))
    return {
        "ok": scores_identical and convergence_identical,
        "scores_identical": scores_identical,
        "convergence_identical_by_key": convergence_identical,
        "convergence_order_matches": rows == rescored,
    }
