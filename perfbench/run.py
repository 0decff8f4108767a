"""Benchmark runner: one measured run of one workload.

    python3 perfbench/run.py --workload constrained --seed 42 --seconds 10 --trace 0

Run it from a checkout of the repository; it uses the package under src/.
The runner pins itself to one CPU of its affinity set, so every child
interpreter it starts runs on that CPU, each with one BLAS/OMP/MKL thread.
While a child runs, the runner is the speed probe: about every 100 ms it
times one warmed-up probe unit (see probe.py), and each child's CPU time is
rescaled by the probe samples taken while it ran.

--trace 0 measures set-up in several fresh interpreters, then runs the
workload untraced in whole passes until --seconds of run time have passed
(at least one pass), and reports the end-to-end metrics. --trace 1 runs the
workload once untraced and once traced and reports the per-layer metrics.
Every run checks and re-scores its results. The last line of standard
output is the JSON result; the full record (probe samples, raw wall and CPU
times, the chosen CPU, per-cell fingerprints) goes to perfbench/runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"

ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_STARTS = 9
TICK_S = 0.1
# A run must end within 180 s; give up before that.
DEADLINE_S = 170.0


class BenchmarkError(RuntimeError):
    pass


class ProbedCpu:
    """Runs child interpreters one at a time, sampling the probe meanwhile."""

    def __init__(self, probe, deadline: float, work: Path):
        self.probe = probe
        self.deadline = deadline
        self.work = work
        self.samples: list[tuple[float, float]] = []
        self.env = dict(os.environ, **ONE_THREAD)

    def child(self, mode: str, *args: str) -> dict:
        out = self.work / "child.json"
        out.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "child.py"), mode, str(out), str(SRC), *args]
        with open(self.work / "child.log", "a") as log:
            proc = subprocess.Popen(argv, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=log)
            try:
                next_tick = time.monotonic()
                while proc.poll() is None:
                    now = time.monotonic()
                    if now > self.deadline:
                        raise BenchmarkError("out of time while a child was running")
                    if now >= next_tick:
                        self.samples.append((now, self.probe.sample()))
                        next_tick = now + TICK_S
                    time.sleep(min(0.005, max(0.0, next_tick - time.monotonic())))
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise BenchmarkError(
                f"{mode} child exited with {proc.returncode}; see {self.work / 'child.log'}")
        return json.loads(out.read_text())

    def speed_factor(self, t0: float, t1: float) -> float:
        return self.probe.speed_factor(self.samples, t0, t1)


def run_pass(cpu: ProbedCpu, config: Path, traced: bool) -> dict:
    """One `surropt run` of the workload; returns the child's report, normalized."""
    results = cpu.work / "results"
    shutil.rmtree(results, ignore_errors=True)
    args = [str(config), str(results)]
    if traced:
        args.append(str(cpu.work / "spans.tsv"))
    report = cpu.child("run", *args)
    shutil.rmtree(results)
    report["speed_factor"] = cpu.speed_factor(report["t0"], report["t1"])
    report["norm_cpu_s"] = report["cpu_s"] * report["speed_factor"]
    report["evaluations"] = sum(c["evaluations"] for c in report["cells"].values())
    report["ok"] = report["rescore"]["ok"] and all(c["ok"] for c in report["cells"].values())
    return report


def end_to_end(cpu: ProbedCpu, config: Path, seconds: float, record: dict) -> dict:
    starts = [cpu.child("setup", str(config)) for _ in range(SETUP_STARTS)]
    factor = cpu.speed_factor(starts[0]["t0"], starts[-1]["t1"])
    for s in starts:
        s["norm_cpu_s"] = s["cpu_s"] * factor
    record["setup"] = {"speed_factor": factor, "starts": starts}

    passes, run_s = [], 0.0
    while not passes or run_s < seconds:
        passes.append(run_pass(cpu, config, traced=False))
        run_s += passes[-1]["wall_s"]
    record["passes"] = passes
    return {
        "norm_cpu_s": statistics.median(p["norm_cpu_s"] for p in passes),
        "evals_per_s": statistics.median(p["evaluations"] / p["norm_cpu_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(s["norm_cpu_s"] for s in starts),
        "ok_frac": ok_cells(passes) / attempted(passes),
    }


def per_layer(cpu: ProbedCpu, config: Path, record: dict) -> dict:
    plain = run_pass(cpu, config, traced=False)
    traced = run_pass(cpu, config, traced=True)
    record["passes"] = [plain, traced]
    if traced["coverage_error"] > 1e-6:
        traced["ok"] = False
    metrics = {}
    for name, value in traced["layers"].items():
        scaled = spec.PER_LAYER[name][0] in spec.SCALED_UNITS
        metrics[name] = value * traced["speed_factor"] if scaled else value
    metrics["trace.overhead_frac"] = traced["norm_cpu_s"] / plain["norm_cpu_s"] - 1.0
    return metrics


def ok_cells(passes) -> int:
    return sum(c["ok"] for p in passes for c in p["cells"].values())


def attempted(passes) -> int:
    return sum(len(p["cells"]) for p in passes)


def write_config(workload: str, seed: int, path: Path) -> None:
    path.write_text(yaml.safe_dump(dict(spec.WORKLOADS[workload], seed=seed)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "surropt" / "__init__.py").is_file():
        print(f"error: no surropt package under {SRC}", file=sys.stderr)
        return 2

    os.environ.update(ONE_THREAD)  # before numpy loads, for the probe's own numpy
    cpu_id = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu_id})
    import probe

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = RUNS / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.yaml"
    write_config(args.workload, args.seed, config)
    cpu = ProbedCpu(probe, deadline, work)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "cpu": cpu_id, "config": spec.WORKLOADS[args.workload]}
    try:
        if args.trace:
            metrics, table = per_layer(cpu, config, record), spec.PER_LAYER
        else:
            metrics, table = end_to_end(cpu, config, args.seconds, record), spec.END_TO_END
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    passes = record["passes"]
    record["probe_samples"] = cpu.samples
    record["metrics"] = metrics
    (RUNS / f"{name}.json").write_text(json.dumps(record, indent=1))

    for key, value in metrics.items():
        print(f"{key:<32} {value:>14.6g} {table[key][0]}")
    for i, p in enumerate(passes):
        print(f"pass {i}: wall_s {p['wall_s']:.3f} cpu_s {p['cpu_s']:.3f} "
              f"speed_factor {p['speed_factor']:.4f} norm_cpu_s {p['norm_cpu_s']:.3f}")
    result = {
        "correct": all(p["ok"] for p in passes),
        "attempted": attempted(passes),
        "failed": attempted(passes) - ok_cells(passes),
        "metrics": {k: {"value": v, "unit": table[k][0]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
