"""Wall time of `surropt run --suite <s> --reps 5 --seed 42` at its default flags,
for two source trees in alternating pairs.

    python3 tools/time_suites.py PARENT_SRC CHANGE_SRC --pairs 3 --out walltime.json

Each run is `python -m surropt.cli run --suite <s> --reps 5 --seed 42` with the
tree's package first on PYTHONPATH, in the caller's environment without
OPENBLAS/OMP/MKL_NUM_THREADS, so BLAS and --jobs keep their defaults. Pair k
runs the parent first when k is even. Every side's output tree is compared,
file by file without manifest.json, with the parent's output of the same
suite in pair 0. The report gives per-run wall, CPU (user + system of the run
and its workers) and minor-fault counts, per-side medians, the CPU count and
BLAS's default thread count.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# BLAS's default thread count in a fresh interpreter, through surropt's own lookup
DEFAULT_THREADS = """
from surropt.core import _blas_thread_calls
calls = _blas_thread_calls()
print(calls[1]() if calls else "unknown")
"""
REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def default_env() -> dict:
    return {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}


def result_files(root: Path) -> list:
    return sorted(p.relative_to(root) for p in root.rglob("*")
                  if p.is_file() and p.name != "manifest.json")


def same_tree(a: Path, b: Path) -> bool:
    files = result_files(a)
    return files == result_files(b) and all(filecmp.cmp(a / f, b / f, shallow=False) for f in files)


def timed_run(src: Path, suite: str, out: Path) -> dict:
    env = default_env()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "surropt.cli", "run", "--suite", suite, "--reps", "5",
            "--seed", "42", "--out", str(out)]
    r0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, check=True)
    wall = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    return {"wall_s": round(wall, 3), "cpu_s": round(cpu, 3), "minflt": r1.ru_minflt - r0.ru_minflt}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="src/ directory of the parent tree")
    parser.add_argument("change", type=Path, help="src/ directory of the changed tree")
    parser.add_argument("--suites", nargs="+",
                        default=["constrained", "casestudies", "unconstrained"])
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--out", type=Path, required=True, help="JSON report path")
    args = parser.parse_args(argv)

    env = dict(default_env(), PYTHONPATH=str(REPO_SRC))
    threads = subprocess.run([sys.executable, "-c", DEFAULT_THREADS], env=env,
                             capture_output=True, text=True, check=True).stdout.strip()
    report = {
        "command": "surropt run --suite <s> --reps 5 --seed 42",
        "cpu_count": os.cpu_count(),
        "openblas_default_threads": threads,
        "suites": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for suite in args.suites:
            runs = {"parent": [], "change": []}
            reference = work / "reference"
            for k in range(args.pairs):
                for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
                    out = work / side
                    shutil.rmtree(out, ignore_errors=True)
                    run = timed_run(getattr(args, side), suite, out)
                    if k == 0 and side == "parent":
                        out.rename(reference)
                        out = reference
                    run["same_files_as_parent_pair0"] = same_tree(reference, out)
                    runs[side].append(run)
                    print(suite, k, side, run, flush=True)
            shutil.rmtree(reference)
            report["suites"][suite] = {
                side: {"runs": r, "wall_s_median": statistics.median(x["wall_s"] for x in r),
                       "cpu_s_median": statistics.median(x["cpu_s"] for x in r)}
                for side, r in runs.items()
            }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
