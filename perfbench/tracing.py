"""Spans around the public names surropt's layers call each other through.

``install`` replaces those names with wrappers that record one span per
call: name, parent span, and start and end in thread CPU seconds. Spans stay
in memory; ``layer_metrics`` reduces them to the per-layer metrics and
``write_spans`` writes them out once the run is over. Nothing here edits
the program's files: the wrappers are set on the imported modules.
"""

from __future__ import annotations

import dataclasses
import functools
import time

import numpy as np

CELL = "cell"
EVALUATE = "core.evaluate"
DATASET = "core.dataset"
GET_PROBLEM = "problems.get_problem"
RUN_BENCHMARK = "bench.run_benchmark"
FITS = ("fit_gp", "fit_quadratic", "fit_rbf", "fit_linear")
PREDICT = "surrogates.predict"
# objective/constraint spans, by the package the problem's callables live in
SIMULATOR = {"casestudies": "casestudies.sim", "problems": "problems.sim"}


class Tracer:
    """Span recorder; the parent of a span is the span open when it began."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._open = [-1]

    def wrap(self, name: str, fn):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, clock = self._open, time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(-1.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced


def install(tracer: Tracer) -> None:
    """Route the calls between surropt's layers through ``tracer``."""
    import surropt.bench as bench
    import surropt.cli as cli
    import surropt.core as core
    import surropt.optimizers as optimizers
    import surropt.surrogates as surrogates

    cli.run_benchmark = tracer.wrap(RUN_BENCHMARK, cli.run_benchmark)
    bench.run_optimizer = tracer.wrap(CELL, bench.run_optimizer)
    real_get_problem = bench.get_problem

    def get_problem(key):
        problem = real_get_problem(key)
        layer = "casestudies" if problem.objective.__module__.startswith(
            "surropt.casestudies") else "problems"
        timed = {"objective": tracer.wrap(SIMULATOR[layer], problem.objective)}
        if problem.constraints is not None:
            timed["constraints"] = tracer.wrap(SIMULATOR[layer], problem.constraints)
        return dataclasses.replace(problem, **timed)

    bench.get_problem = tracer.wrap(GET_PROBLEM, get_problem)
    optimizers.evaluate = tracer.wrap(EVALUATE, optimizers.evaluate)
    core.Dataset.from_trajectory = staticmethod(
        tracer.wrap(DATASET, core.Dataset.from_trajectory))
    for fit in FITS:
        setattr(optimizers, fit, tracer.wrap(f"surrogates.{fit}", getattr(optimizers, fit)))
    optimizers.gp_posterior = tracer.wrap(PREDICT, optimizers.gp_posterior)
    optimizers.rbf_predict = tracer.wrap(PREDICT, optimizers.rbf_predict)
    surrogates.QuadModel.predict = tracer.wrap(PREDICT, surrogates.QuadModel.predict)
    surrogates.LinModel.predict = tracer.wrap(PREDICT, surrogates.LinModel.predict)


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, fallbacks: int, rescore_s: float):
    """Per-layer metrics in thread CPU seconds, and the coverage error.

    A span's self time is its duration minus the durations of its direct
    children. The coverage error is how far the layer self times inside
    cells fall from the cell time; it is 0 up to rounding when every span
    under a cell was closed inside it.
    """
    names = np.array(tracer.names)
    parents = np.array(tracer.parents, dtype=np.int64)
    starts = np.array(tracer.starts)
    ends = np.array(tracer.ends)
    if np.any(ends < starts):
        raise RuntimeError("a span was never closed")
    dur = ends - starts
    nested = parents >= 0
    self_t = dur - np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))

    def spans(name):
        return names == name

    def count(name):
        return int(np.count_nonzero(spans(name)))

    def self_s(name):
        return float(self_t[spans(name)].sum())

    m = {}
    # per-evaluation simulator time: simulator spans summed into their evaluate
    for layer, sim in SIMULATOR.items():
        is_sim = spans(sim)
        per_eval = np.bincount(parents[is_sim], weights=dur[is_sim], minlength=len(dur))
        has_sim = np.bincount(parents[is_sim], minlength=len(dur)) > 0
        evals = np.flatnonzero(spans(EVALUATE) & has_sim)
        m[f"{layer}.calls"] = len(evals)
        m[f"{layer}.s"] = float(dur[is_sim].sum())
        if layer == "casestudies":
            m["casestudies.ms_per_call_p50"] = 1e3 * _pct(per_eval[evals], 50)
            m["casestudies.ms_per_call_p90"] = 1e3 * _pct(per_eval[evals], 90)
    m["problems.get_problem.calls"] = count(GET_PROBLEM)
    m["problems.get_problem.s"] = self_s(GET_PROBLEM)
    for fit in FITS:
        m[f"surrogates.{fit}.calls"] = count(f"surrogates.{fit}")
        m[f"surrogates.{fit}.s"] = self_s(f"surrogates.{fit}")
    m["surrogates.predict.calls"] = count(PREDICT)
    m["surrogates.predict.s"] = self_s(PREDICT)
    m["optimizers.self_s"] = self_s(CELL)
    steps = step_gaps(names, parents, starts, ends)
    m["optimizers.steps"] = len(steps)
    m["optimizers.step_ms_p50"] = 1e3 * _pct(steps, 50)
    m["optimizers.step_ms_p90"] = 1e3 * _pct(steps, 90)
    m["optimizers.fallbacks"] = fallbacks
    m["core.evaluate.calls"] = count(EVALUATE)
    m["core.evaluate.self_s"] = self_s(EVALUATE)
    m["core.dataset.calls"] = count(DATASET)
    m["core.dataset.s"] = self_s(DATASET)
    m["bench.cells"] = count(CELL)
    m["bench.self_s"] = self_s(RUN_BENCHMARK)
    m["bench.rescore_s"] = rescore_s

    cell_s = float(dur[spans(CELL)].sum())
    layer_sum = (m["optimizers.self_s"] + m["core.evaluate.self_s"] + m["core.dataset.s"]
                 + m["casestudies.s"] + m["problems.s"] + m["surrogates.predict.s"]
                 + sum(m[f"surrogates.{fit}.s"] for fit in FITS))
    return m, abs(layer_sum - cell_s) / cell_s


def step_gaps(names, parents, starts, ends) -> list:
    """Time between consecutive evaluations of a cell that enclose a proposal.

    The runner builds the Dataset a proposal needs right after an
    evaluation; gaps without a Dataset span in them are initial-design
    evaluations back to back and are skipped.
    """
    gaps = []
    last_end, proposed = {}, {}
    for i in np.flatnonzero((names == EVALUATE) | (names == DATASET)):
        cell = parents[i]
        if names[i] == DATASET:
            proposed[cell] = True
            continue
        if proposed.get(cell) and cell in last_end:
            gaps.append(starts[i] - last_end[cell])
        last_end[cell], proposed[cell] = ends[i], False
    return gaps


def write_spans(tracer: Tracer, path) -> None:
    """Write every span as one tab-separated line: id, parent, name, start, end."""
    with open(path, "w") as fh:
        fh.write("id\tparent\tname\tstart_s\tend_s\n")
        for i, (name, parent, start, end) in enumerate(
                zip(tracer.names, tracer.parents, tracer.starts, tracer.ends)):
            fh.write(f"{i}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
