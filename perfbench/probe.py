"""Speed probe: a fixed unit of interpreter and numpy work, and the
arithmetic that rescales a CPU time to reference speed.

The vCPUs this benchmark runs on change speed by up to 2x over 10-40 s, so
a fixed job's CPU time is not repeatable. The runner pins the program and
the probe to one CPU and times one probe unit about every 100 ms (after an
untimed warm-up unit, so caches the program evicted are refilled). A unit
that takes twice ``REF_UNIT_S`` means the CPU ran at half reference speed,
so the program's CPU time over that stretch counts about half (see
ELASTICITY).
"""

from __future__ import annotations

import time

import numpy as np

# Thread CPU time of one probe unit at reference speed. Fixed forever: it
# only sets the scale of normalized seconds, which stay comparable across
# commits as long as this constant and probe_unit do not change.
REF_UNIT_S = 0.0025

# The probe unit's time swings more than surropt's CPU time does: over 30
# runs of the three workloads, the program's CPU time moved as the
# 0.78-0.86th power of the mean probe speed. Each speed ratio is raised to
# this power, so a CPU at half the probe's reference speed counts 0.55.
ELASTICITY = 0.85

# Share of samples dropped at each end before averaging speed ratios.
TRIM = 0.05

# Fewest samples a window is averaged over; shorter windows borrow the
# samples nearest to their midpoint.
MIN_SAMPLES = 5

_rng = np.random.default_rng(0)
_POINTS = _rng.standard_normal((20, 2))
_VEC = _rng.standard_normal(3)
_M = _rng.standard_normal((96, 96))
_SPD = _M @ _M.T + 96.0 * np.eye(96)
_RHS = _rng.standard_normal(96)


def probe_unit() -> float:
    """One fixed unit of work: small-array numpy calls driven from Python, as
    in surropt's inner loops, and small LAPACK factorizations, about 60:40
    in time.

    Run beside jobs from each workload (cbo on a constrained problem, bo at
    d=10, the CSTR simulator, cuatro on cstr-pid), this mix followed the
    jobs' speed swings in 3-6 s windows with slopes of 0.90-1.09.
    Small-array calls alone under-corrected cuatro (slope 0.80); a scalar
    Python loop or streaming over a 2 MB array followed every job worse.
    """
    acc = 0.0
    for _ in range(120):
        r = np.sqrt(np.sum(_POINTS * _POINTS, axis=1))
        acc += float(np.maximum(r, 0.1).min()) + float(_VEC @ _VEC)
    for _ in range(4):
        L = np.linalg.cholesky(_SPD)
        acc += float(np.linalg.solve(L, _RHS)[0])
    return acc


def sample() -> float:
    """Thread CPU seconds of one warmed-up probe unit."""
    probe_unit()
    t0 = time.thread_time()
    probe_unit()
    return time.thread_time() - t0


def speed_factor(samples, t0: float, t1: float) -> float:
    """Mean of (REF_UNIT_S / unit time) ** ELASTICITY over the samples in [t0, t1].

    ``samples`` is a sequence of (monotonic timestamp, unit seconds). A
    window with fewer than MIN_SAMPLES samples uses the MIN_SAMPLES samples
    nearest to its midpoint. The ratios are trimmed by TRIM at each end.
    """
    if not samples:
        raise ValueError("no probe samples")
    inside = [u for ts, u in samples if t0 <= ts <= t1]
    if len(inside) < MIN_SAMPLES:
        mid = 0.5 * (t0 + t1)
        nearest = sorted(samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]
        inside = [u for _, u in nearest]
    ratios = sorted((REF_UNIT_S / u) ** ELASTICITY for u in inside)
    k = int(len(ratios) * TRIM)
    kept = ratios[k:len(ratios) - k]
    return sum(kept) / len(kept)

