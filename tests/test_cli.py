"""Tests for the command-line interface and config parsing."""

import csv
import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import surropt
from surropt import ConfigError
from surropt.bench import (
    DEFAULT_BUDGETS,
    DEFAULT_WARMUP,
    BenchmarkConfig,
    _read_rep_csv,
    compare_results,
    plan_cells,
    run_benchmark,
    score_results,
)
from surropt.cli import SUITES, RunManifest, main, parse_config
from surropt.core import Problem, feasible
from surropt.optimizers import ALGORITHMS, run_optimizer
from surropt.problems import get_problem, list_problems


# ---------------------------------------------------------------- config


def test_empty_config_gets_documented_defaults(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    config = parse_config(str(path))
    assert config.suite == "unconstrained"
    assert config.algorithms == ["bo", "lsqm", "cobyla", "cobyqa", "cuatro", "dycors"]
    assert config.problems == ["ackley", "levy", "rosenbrock", "quadratic"]
    assert config.dims == [2, 5, 7]
    assert config.repetitions == 5
    assert config.seed == 0
    assert config.budgets == {d: DEFAULT_BUDGETS[d] for d in (2, 5, 7)}
    assert config.warmup == {d: DEFAULT_WARMUP[d] for d in (2, 5, 7)}


def test_benchmark_config_defaults_match_parse_config():
    direct = BenchmarkConfig(["lsqm"], ["quadratic"])
    parsed = parse_config(flags={"algorithms": ["lsqm"], "problems": ["quadratic"]})
    for name in ("dims", "repetitions", "seed"):
        assert getattr(direct, name) == getattr(parsed, name), name


def test_flags_override_file_values(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("repetitions: 5\nseed: 1\n")
    config = parse_config(str(path), {"repetitions": 10})
    assert config.repetitions == 10
    assert config.seed == 1


def test_unknown_problem_names_nearest_key():
    with pytest.raises(ConfigError, match="ackley-d2"):
        parse_config(None, {"algorithms": ["lsqm"], "problems": ["ackly-d2"]})


def test_dimension_the_registry_rejects():
    with pytest.raises(ConfigError, match="unknown problem key 'ackley-d0'"):
        parse_config(None, {"algorithms": ["lsqm"], "problems": ["ackley"], "dims": [0]})


def test_unknown_algorithm_names_nearest_key():
    with pytest.raises(ConfigError, match="cobyla"):
        parse_config(None, {"algorithms": ["cobila"], "problems": ["quadratic"]})


def _yaml_file(tmp_path, text):
    path = tmp_path / "config.yaml"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("kind, value, close, valid, refuse", [
    ("algorithm", "cobylla", "cobyla", ALGORITHMS,
     lambda tmp: run_optimizer("cobylla", get_problem("quadratic-d2"), budget=20, seed=0)),
    ("algorithm", "cobylla", "cobyla", ALGORITHMS,
     lambda tmp: plan_cells(BenchmarkConfig(["cobylla"], ["quadratic"], dims=[2]))),
    ("algorithm", "cobylla", "cobyla", ALGORITHMS,
     lambda tmp: parse_config(None, {"algorithms": ["cobylla"], "problems": ["quadratic"]})),
    ("algorithm", "cobylla", "cobyla", ALGORITHMS,
     lambda tmp: main(["optimize", "--algo", "cobylla", "--problem", "quadratic-d2"])),
    ("problem key", "quadratc-d2", "quadratic-d2", list_problems(),
     lambda tmp: get_problem("quadratc-d2")),
    ("suite", "constraind", "constrained", list(SUITES),
     lambda tmp: parse_config(None, {"suite": "constraind"})),
    ("config key", "repetition", "repetitions", [f.name for f in fields(BenchmarkConfig)],
     lambda tmp: parse_config(_yaml_file(tmp, "repetition: 3\n"))),
], ids=["run_optimizer", "plan_cells", "parse_config", "optimize", "problem", "suite",
        "config_key"])
def test_unknown_names_share_one_message(tmp_path, capsys, kind, value, close, valid, refuse):
    expected = f"unknown {kind} '{value}'; did you mean '{close}'? (valid: {', '.join(valid)})"
    try:
        code = refuse(tmp_path)
    except ConfigError as exc:
        message = str(exc)
    else:
        assert code == 2, f"{value!r} was not refused"
        message = capsys.readouterr().err.strip().removeprefix("error: ")
    assert message == expected


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("repititions: 5\n")
    with pytest.raises(ConfigError, match="repetitions"):
        parse_config(str(path))


def test_config_key_that_is_no_string_rejected(tmp_path):
    # YAML reads `5: 1` as an integer key; the message names it like any other
    with pytest.raises(ConfigError, match=r"^unknown config key '5' \(valid: algorithms, "):
        parse_config(_yaml_file(tmp_path, "5: 1\n"))


@pytest.mark.parametrize(
    "line",
    ["budgets: 30", "warmup: [1, 2]", "dims: 5", "algorithms: bo", "problems: {ackley: 2}"],
    ids=lambda line: line.split(":")[0],
)
def test_config_value_of_wrong_type_rejected(tmp_path, line):
    key = line.split(":")[0]
    path = tmp_path / "c.yaml"
    path.write_text(line + "\n")
    with pytest.raises(ConfigError, match=key):
        parse_config(str(path))


@pytest.mark.parametrize(
    "line",
    [
        "repetitions: abc",
        "seed: [1]",
        "dims: [abc]",
        "budgets: {2: abc}",
        "warmup: {2: abc}",
        "violation_threshold: abc",
    ],
    ids=lambda line: line.split(":")[0],
)
def test_config_value_that_does_not_convert_rejected(tmp_path, line):
    key = line.split(":")[0]
    path = tmp_path / "c.yaml"
    path.write_text(line + "\n")
    with pytest.raises(ConfigError, match=key):
        parse_config(str(path))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize(
    "yaml_value, value", [(".nan", "nan"), (".inf", "inf"), ("-.inf", "-inf")],
    ids=["nan", "inf", "-inf"],
)
def test_non_finite_violation_threshold_rejected(tmp_path, capsys, yaml_value, value):
    # feasibility has one rule, core.feasible's: no config key or flag moves it,
    # so a violation_threshold of any value, finite or not, is refused
    path = tmp_path / "c.yaml"
    path.write_text(f"violation_threshold: {yaml_value}\n")
    with pytest.raises(ConfigError, match="^unknown config key 'violation_threshold' "):
        parse_config(str(path), {"suite": "constrained"})
    out = tmp_path / "out"
    run = ["run", "--suite", "constrained", "--budget", "8", "--reps", "1", "--out", str(out)]
    assert main(run + ["--config", str(path)]) == 2
    assert "error: unknown config key 'violation_threshold'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(run + [f"--threshold={value}"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --threshold={value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_rejected(tmp_path, capsys, jobs):
    config = parse_config(None, {"suite": "constrained", "budget": 8, "repetitions": 1})
    with pytest.raises(ConfigError, match="jobs"):
        run_benchmark(config, jobs=jobs)
    run = ["run", "--suite", "constrained", "--budget", "8", "--reps", "1"]
    assert main(run + ["--jobs", str(jobs), "--out", str(tmp_path)]) == 2
    assert "jobs must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "constrained" / "scores.json").exists()


def test_rejected_jobs_writes_nothing(tmp_path, capsys):
    run = ["run", "--suite", "constrained", "--budget", "8", "--reps", "1", "--jobs", "0"]
    assert main(run + ["--out", str(tmp_path / "new")]) == 2
    assert not (tmp_path / "new" / "constrained").exists()
    manifest = tmp_path / "old" / "constrained" / "manifest.json"
    manifest.parent.mkdir(parents=True)
    manifest.write_bytes(b'{"created": "earlier run"}\n')
    assert main(run + ["--out", str(tmp_path / "old")]) == 2
    assert manifest.read_bytes() == b'{"created": "earlier run"}\n'
    assert capsys.readouterr().err.count("jobs must be >= 1") == 2


def test_missing_config_file():
    with pytest.raises(ConfigError, match="not found"):
        parse_config("/nonexistent/config.yaml")


def test_budget_leq_warmup_rejected(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("budgets: {2: 5}\n")
    with pytest.raises(ConfigError, match="exceed"):
        parse_config(str(path))


def test_json_config_round_trips(tmp_path):
    # JSON, as in scores.json's config block, keys the dimensions by strings
    config = BenchmarkConfig(["cbo"], ["quadratic-c"], dims=[2], repetitions=2,
                             budgets={2: 8}, warmup={2: 3}, seed=7)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config.to_dict()))
    assert parse_config(str(path)).to_dict() == config.to_dict()


def test_repeated_problem_key_rejected(tmp_path, capsys):
    out = tmp_path / "out"
    run = ["run", "--algos", "cobyla", "--problems", "quadratic", "--dims", "2", "2",
           "--reps", "1", "--budget", "8", "--jobs", "1", "--out", str(out)]
    assert main(run) == 2
    assert "problem 'quadratic-d2' is listed twice" in capsys.readouterr().err
    assert not out.exists()


def test_repeated_algorithm_rejected(tmp_path, capsys):
    out = tmp_path / "out"
    run = ["run", "--algos", "cobyla", "cobyla", "--problems", "quadratic", "--dims", "2",
           "--reps", "1", "--budget", "8", "--jobs", "1", "--out", str(out)]
    assert main(run) == 2
    assert "algorithm 'cobyla' is listed twice" in capsys.readouterr().err
    assert not out.exists()


def test_cbo_on_an_unconstrained_problem_rejected(tmp_path, capsys):
    out = tmp_path / "out"
    run = ["run", "--algos", "cbo", "--problems", "ackley", "--dims", "2",
           "--reps", "1", "--budget", "8", "--jobs", "1", "--out", str(out)]
    assert main(run) == 2
    assert ("problem 'ackley-d2': cbo requires a constrained problem"
            in capsys.readouterr().err)
    assert not out.exists()


def test_missing_warmup_names_the_config_file_key(tmp_path, capsys):
    # no flag sets a warm-up, and only d = 2, 5, 7 and 10 have presets
    out = tmp_path / "out"
    run = ["run", "--algos", "bo", "--problems", "ackley", "--dims", "3", "--budget", "7",
           "--jobs", "1", "--out", str(out)]
    assert main(run) == 2
    assert capsys.readouterr().err == (
        "error: no warm-up for dimension 3 (problem 'ackley-d3'); a config file can set "
        "warmup: {3: <n>}; dimensions with both: []\n")
    assert not out.exists()
    # and the key the message names is the one that lets the run through
    path = tmp_path / "warmup.yaml"
    path.write_text("warmup: {3: 5}\nrepetitions: 1\n")
    assert main(run + ["--config", str(path)]) == 0


def test_budget_below_an_initial_design_rejected(tmp_path, capsys):
    # bo starts with 2d = 20 points at d = 10; cobyla with d + 1 = 11
    out = tmp_path / "out"
    run = ["run", "--algos", "bo", "cobyla", "--problems", "ackley", "--dims", "10",
           "--budget", "16", "--reps", "1", "--jobs", "1", "--out", str(out)]
    assert main(run) == 2
    assert ("problem 'ackley-d10': budget 16 is below the initial design size 20 of 'bo'"
            in capsys.readouterr().err)
    assert not out.exists()
    # re-scoring plans from stored dimensions and checks no budget
    config = parse_config(None, {"algorithms": ["bo"], "problems": ["ackley-d10"],
                                 "budget": 16})
    _, cells = plan_cells(config, dim_of=lambda key: 10)
    assert [cell.name for cell in cells] == [f"ackley-d10/bo/rep{k}" for k in range(5)]


def test_run_builds_each_problem_once_before_its_cells(tmp_path, monkeypatch):
    import surropt.bench as bench

    events = []
    real_get_problem, real_run_optimizer = bench.get_problem, bench.run_optimizer

    def get_problem(key):
        events.append(key)
        return real_get_problem(key)

    def run_optimizer(*args):
        events.append("cell")
        return real_run_optimizer(*args)

    monkeypatch.setattr(bench, "_PLANNED", {})  # as in a fresh process
    monkeypatch.setattr(bench, "get_problem", get_problem)
    monkeypatch.setattr(bench, "run_optimizer", run_optimizer)
    run = ["run", "--algos", "lsqm", "dycors", "--problems", "quadratic", "ackley",
           "--dims", "2", "--budget", "10", "--reps", "1", "--jobs", "1",
           "--out", str(tmp_path)]
    assert main(run) == 0
    q, a = "quadratic-d2", "ackley-d2"
    assert events == [q, a] + [q, "cell"] * 2 + [a, "cell"] * 2


def test_suite_presets():
    con = parse_config(None, {"suite": "constrained"})
    assert con.algorithms == ["cbo", "cobyla", "cobyqa", "cuatro"]
    assert con.problems == ["rosenbrock-c", "quadratic-c", "matyas-c"]
    cs = parse_config(None, {"suite": "casestudies"})
    assert cs.problems == ["cstr-pid", "williams-otto"]
    assert cs.budgets == {32: 150, 2: 20}
    assert cs.warmup == {32: 15, 2: 5}


def test_scalar_budget_applies_to_dims_in_use():
    config = parse_config(
        None,
        {"algorithms": ["lsqm"], "problems": ["quadratic"], "dims": [2], "budget": 12},
    )
    assert config.budgets == {2: 12}
    assert config.warmup == {2: 5}


def test_manifest_plan_lists_cells():
    config = parse_config(
        None,
        {
            "algorithms": ["lsqm", "dycors"],
            "problems": ["quadratic"],
            "dims": [2],
            "repetitions": 2,
        },
    )
    manifest = RunManifest.plan(config)
    assert set(manifest.cells) == {
        "quadratic-d2/lsqm/rep0",
        "quadratic-d2/lsqm/rep1",
        "quadratic-d2/dycors/rep0",
        "quadratic-d2/dycors/rep1",
    }
    assert all(v == "planned" for v in manifest.cells.values())
    assert manifest.seed == config.seed


# ---------------------------------------------------------------- commands


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "dycors" in out
    assert "ackley-d2" in out
    assert "casestudies" in out


RUN_ARGS = [
    "run",
    "--algos",
    "lsqm",
    "dycors",
    "--problems",
    "quadratic",
    "--dims",
    "2",
    "--budget",
    "10",
    "--reps",
    "1",
    "--seed",
    "5",
    "--jobs",
    "1",
]


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli")
    code = main(RUN_ARGS + ["--out", str(out)])
    return out, code


def test_run_exit_code_and_layout(cli_run):
    out, code = cli_run
    assert code == 0
    suite = out / "custom"
    assert (suite / "manifest.json").exists()
    assert (suite / "scores.json").exists()
    assert (suite / "convergence.csv").exists()
    assert (suite / "cells.json").exists()
    assert (suite / "quadratic-d2" / "lsqm" / "rep0.csv").exists()
    assert (suite / "quadratic-d2" / "dycors" / "rep0.csv").exists()


def test_run_manifest_contents(cli_run):
    out, _ = cli_run
    with open(out / "custom" / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["seed"] == 5
    assert manifest["config"]["budgets"] == {"2": 10}
    assert set(manifest["cells"]) == {
        "quadratic-d2/lsqm/rep0",
        "quadratic-d2/dycors/rep0",
    }
    assert all(v == "planned" for v in manifest["cells"].values())
    assert manifest["timestamp"]
    assert manifest["version"] == surropt.__version__
    with open(out / "custom" / "cells.json") as fh:
        cells = json.load(fh)
    assert all(v == "ok" for v in cells.values())


def test_run_manifest_provenance(cli_run):
    out, _ = cli_run
    provenance = json.loads((out / "custom" / "manifest.json").read_text())["provenance"]
    assert set(provenance) == {"python", "numpy", "blas", "jobs", "blas_threads"}
    assert provenance["jobs"] == 1
    assert provenance["numpy"] == np.__version__
    assert set(provenance["blas_threads"]) == {
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
    assert provenance["blas"] is None or set(provenance["blas"]) == {"name", "version"}


def test_import_loads_no_process_pool():
    # score, compare, list and --jobs 1 runs never start one
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, surropt.cli\n"
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_run_trajectory_row_count(cli_run):
    out, _ = cli_run
    with open(out / "custom" / "quadratic-d2" / "lsqm" / "rep0.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) - 1 == 10


def test_score_reproduces_scores_json(cli_run, capsys):
    out, _ = cli_run
    scores_path = out / "custom" / "scores.json"
    before = scores_path.read_bytes()
    assert main(["score", "--out", str(out), "--suite", "custom"]) == 0
    assert scores_path.read_bytes() == before
    assert "bit-identically" in capsys.readouterr().out


SCORE_FILES = ("scores.json", "convergence.csv")


def test_score_rewrites_both_files_after_a_y_edit(cli_run, tmp_path, capsys):
    out, _ = cli_run
    suite = tmp_path / "custom"
    shutil.copytree(out / "custom", suite)
    score = ["score", "--out", str(tmp_path), "--suite", "custom"]
    stored = {name: (suite / name).read_bytes() for name in SCORE_FILES}
    capsys.readouterr()
    assert main(score) == 0
    assert "scores.json and convergence.csv reproduced bit-identically" in capsys.readouterr().out
    assert {name: (suite / name).read_bytes() for name in SCORE_FILES} == stored

    # lower dycors's last y below every best so far; its best_so_far column keeps its old value
    path = suite / "quadratic-d2" / "dycors" / "rep0.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    i = rows[0].index("y")
    rows[-1][i] = repr(float(rows[-1][i]) - 1e6)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    score_results(suite)  # writes nothing
    assert {name: (suite / name).read_bytes() for name in SCORE_FILES} == stored
    assert main(score) == 0
    assert "rewrote scores.json and convergence.csv" in capsys.readouterr().out
    assert all((suite / name).read_bytes() != stored[name] for name in SCORE_FILES)
    assert main(score) == 0
    assert "bit-identically" in capsys.readouterr().out


def test_score_missing_directory(tmp_path, capsys):
    assert main(["score", "--out", str(tmp_path), "--suite", "nope"]) == 2
    assert "scores.json" in capsys.readouterr().err


def test_score_finds_the_one_suite_under_a_root(cli_run, tmp_path, capsys):
    # as compare does: without --suite, the root's one child holding scores.json
    out, _ = cli_run
    shutil.copytree(out / "custom", tmp_path / "custom")
    assert main(["score", "--out", str(tmp_path)]) == 0
    assert "bit-identically" in capsys.readouterr().out
    shutil.copytree(out / "custom", tmp_path / "again")
    assert main(["score", "--out", str(tmp_path)]) == 2
    assert (f"no single scores.json under {tmp_path} (suites: again, custom)"
            in capsys.readouterr().err)


def test_optimize_writes_trajectory(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = main(
        [
            "optimize",
            "--algo",
            "dycors",
            "--problem",
            "ackley-d5",
            "--budget",
            "50",
            "--seed",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) - 1 == 50
    assert rows[0][:2] == ["iteration", "x0"]
    assert "best y" in capsys.readouterr().out


def test_optimize_reports_the_best_feasible_y(tmp_path, capsys):
    # cobyla's least y on williams-otto at seed 0 (-190.722) is an infeasible row
    out = tmp_path / "wo.csv"
    assert main(["optimize", "--algo", "cobyla", "--problem", "williams-otto", "--budget", "20",
                 "--seed", "0", "--out", str(out)]) == 0
    _, y, G = _read_rep_csv(out, {2: 20})
    ok = feasible(G)
    assert np.min(y) < np.min(y[ok])
    printed = capsys.readouterr().out
    assert f"best y = {np.min(y[ok]):.6g}, {ok.sum()} of 20 evaluations feasible" in printed
    assert "best y = -168.755, 8 of 20 evaluations feasible" in printed


def test_optimize_says_when_no_evaluation_is_feasible(tmp_path, capsys, monkeypatch):
    import surropt.cli as cli

    base = get_problem("quadratic-c")
    never = Problem(base.name, base.bounds, base.objective, lambda x: np.ones(1), 1)
    monkeypatch.setattr(cli, "get_problem", lambda key: never)
    assert main(["optimize", "--algo", "cobyla", "--problem", "quadratic-c", "--budget", "8",
                 "--out", str(tmp_path / "never.csv")]) == 0
    assert "cobyla on quadratic-c: no best y: none of 8 evaluations feasible" in (
        capsys.readouterr().out)


def test_optimize_default_budget_for_case_study(tmp_path):
    out = tmp_path / "wo.csv"
    code = main(["optimize", "--algo", "cobyla", "--problem", "williams-otto", "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        assert len(list(csv.reader(fh))) - 1 == 20


def test_optimize_any_registry_dimension(tmp_path):
    out = tmp_path / "r3.csv"
    code = main(["optimize", "--algo", "cobyla", "--problem", "rosenbrock-d3",
                 "--budget", "8", "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) - 1 == 8
    assert rows[0][:4] == ["iteration", "x0", "x1", "x2"]


def test_optimize_unknown_problem_names_nearest_key(capsys):
    assert main(["optimize", "--algo", "cobyla", "--problem", "rosenbrok-d2"]) == 2
    assert "rosenbrock-d2" in capsys.readouterr().err


def test_run_any_registry_dimension_with_warmup(tmp_path):
    path = tmp_path / "d3.yaml"
    path.write_text("warmup: {3: 3}\n")
    args = ["run", "--config", str(path), "--algos", "cobyla", "--problems", "rosenbrock-d3",
            "--budget", "8", "--reps", "1", "--jobs", "1", "--out", str(tmp_path)]
    assert main(args) == 0
    with open(tmp_path / "custom" / "rosenbrock-d3" / "cobyla" / "rep0.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) - 1 == 8


def test_optimize_unknown_algo(capsys):
    assert main(["optimize", "--algo", "dycor", "--problem", "ackley-d2"]) == 2
    assert "dycors" in capsys.readouterr().err


def test_strict_flag_fails_on_failed_cells(tmp_path, capsys, monkeypatch):
    import surropt.bench as bench

    real = bench.run_optimizer

    def cobyla_fails(algo, problem, budget, seed):
        if algo == "cobyla":
            raise RuntimeError("synthetic failure")
        return real(algo, problem, budget, seed)

    monkeypatch.setattr(bench, "run_optimizer", cobyla_fails)  # --jobs 1 runs cells here
    args = [
        "run",
        "--algos",
        "lsqm",
        "cobyla",
        "--problems",
        "quadratic",
        "--dims",
        "2",
        "--budget",
        "8",
        "--reps",
        "1",
        "--jobs",
        "1",
        "--out",
        str(tmp_path),
    ]
    assert main(args) == 0  # failures reported but tolerated by default
    assert main(args + ["--strict"]) == 1
    assert "failed" in capsys.readouterr().err


def test_results_root_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SURROPT_RESULTS", str(tmp_path / "envroot"))
    code = main(
        [
            "run",
            "--algos",
            "lsqm",
            "--problems",
            "quadratic",
            "--dims",
            "2",
            "--budget",
            "8",
            "--reps",
            "1",
            "--jobs",
            "1",
        ]
    )
    assert code == 0
    assert (tmp_path / "envroot" / "custom" / "scores.json").exists()


# ---------------------------------------------------------------- compare

COMPARE_ARGS = ["run", "--suite", "constrained", "--algos", "cobyla", "cbo", "--problems",
                "matyas-c", "--reps", "2", "--budget", "10", "--seed", "3", "--jobs", "1"]


@pytest.fixture(scope="module")
def compare_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("compare") / "a"
    assert main(COMPARE_ARGS + ["--out", str(out)]) == 0
    return out


def test_compare_of_a_run_with_itself_finds_no_difference(compare_run, tmp_path, capsys):
    report = compare_results(compare_run, compare_run)
    assert report["differing_cells"] == 0
    assert len(report["cells"]) == 4
    for cell in report["cells"].values():
        assert cell["first_differing_row"] is None
        assert cell["max_abs_dx"] == 0.0 and cell["delta"] == 0.0
    for pair in report["pairs"]:
        assert (pair["paired"], pair["ties"], pair["b_better"], pair["b_worse"]) == (2, 2, 0, 0)
        assert pair["mean_delta"] == 0.0 and pair["ci95"] == (0.0, 0.0)
    path = tmp_path / "report.json"
    assert main(["compare", str(compare_run), str(compare_run), "--json", str(path)]) == 0
    assert capsys.readouterr().out.startswith("0 differing cells of 4 ")
    assert json.loads(path.read_text())["differing_cells"] == 0


def test_compare_names_the_one_perturbed_cell_and_row(compare_run, tmp_path):
    other = tmp_path / "b"
    shutil.copytree(compare_run, other)
    path = other / "constrained" / "matyas-c" / "cobyla" / "rep1.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[6][0] == "6"
    rows[6][1] = repr(float(rows[6][1]) + 0.25)  # x0 at iteration 6
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    report = compare_results(compare_run, other)
    assert report["differing_cells"] == 1
    moved = {name: c for name, c in report["cells"].items() if c["first_differing_row"]}
    assert list(moved) == ["matyas-c/cobyla/rep1"]
    assert moved["matyas-c/cobyla/rep1"]["first_differing_row"] == 6
    assert moved["matyas-c/cobyla/rep1"]["max_abs_dx"] == pytest.approx(0.25)


def test_compare_pairs_best_feasible_values(compare_run, tmp_path):
    # lowering y at a feasible row improves B; lowering it at an infeasible row does not
    other = tmp_path / "b"
    shutil.copytree(compare_run, other)
    path = other / "constrained" / "matyas-c" / "cbo" / "rep0.csv"
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    i_y, i_g = header.index("y"), header.index("g0")
    feasible = [r for r in rows if float(r[i_g]) <= 1e-3]
    infeasible = [r for r in rows if float(r[i_g]) > 1e-3]
    best = min(float(r[i_y]) for r in feasible)
    feasible[-1][i_y] = repr(best - 1.0)
    for r in infeasible:
        r[i_y] = repr(best - 5.0)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    report = compare_results(compare_run, other)
    assert report["cells"]["matyas-c/cbo/rep0"]["delta"] == pytest.approx(-1.0)
    pair = next(p for p in report["pairs"] if p["algorithm"] == "cbo")
    assert (pair["b_better"], pair["ties"], pair["b_worse"]) == (1, 1, 0)
    assert pair["mean_delta"] == pytest.approx(-0.5)


def test_compare_refuses_runs_of_different_configs(compare_run, tmp_path, capsys):
    other = tmp_path / "b"
    shutil.copytree(compare_run, other)
    manifest = other / "constrained" / "manifest.json"
    data = json.loads(manifest.read_text())
    data["config"]["seed"] = 4
    manifest.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match="different configs.*seed"):
        compare_results(compare_run, other)
    assert main(["compare", str(compare_run), str(other),
                 "--json", str(tmp_path / "r.json")]) == 2
    assert "different configs" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def _damage(run, tmp_path, keep):
    """A copy of ``run`` whose matyas-c/cbo/rep1.csv keeps its header and ``keep`` rows."""
    other = tmp_path / "b"
    shutil.copytree(run, other)
    path = other / "constrained" / "matyas-c" / "cbo" / "rep1.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 11  # header and the budget of 10
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows[:1 + keep])
    return other, path


@pytest.mark.parametrize("keep, message", [(0, "has no data rows"),
                                           (7, "has 7 data rows; the budget at dimension 2 is 10")])
@pytest.mark.parametrize("command", ["score", "compare"])
def test_damaged_rep_csv_is_a_config_error_naming_the_file(compare_run, tmp_path, capsys,
                                                           keep, message, command):
    other, path = _damage(compare_run, tmp_path, keep)
    report = tmp_path / "r.json"
    argv = (["score", "--out", str(other), "--suite", "constrained"] if command == "score"
            else ["compare", str(compare_run), str(other), "--json", str(report)])
    capsys.readouterr()
    assert main(argv) == 2
    assert f"error: rep CSV {path} {message}" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("edit, message", [
    (lambda text: text[:text.rindex(",")] + "\n", ": "),  # the last row loses its last field
    (lambda text: text.replace(",y,", ",yy,", 1), " has no y column"),
])
def test_rep_csv_with_a_bad_row_or_header_is_a_config_error(compare_run, tmp_path, capsys,
                                                            edit, message):
    other, path = _damage(compare_run, tmp_path, 10)
    path.write_text(edit(path.read_text()))
    assert main(["score", "--out", str(other), "--suite", "constrained"]) == 2
    assert f"error: rep CSV {path}{message}" in capsys.readouterr().err
