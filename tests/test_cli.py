"""Tests for the command-line interface and config parsing."""

import csv
import json

import pytest

from surropt import ConfigError
from surropt.bench import DEFAULT_BUDGETS, DEFAULT_WARMUP, BenchmarkConfig, run_benchmark
from surropt.cli import RunManifest, main, parse_config


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
    assert config.violation_threshold == 1e-3
    assert config.seed == 0
    assert config.budgets == {d: DEFAULT_BUDGETS[d] for d in (2, 5, 7)}
    assert config.warmup == {d: DEFAULT_WARMUP[d] for d in (2, 5, 7)}


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


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("repititions: 5\n")
    with pytest.raises(ConfigError, match="repetitions"):
        parse_config(str(path))


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
    path = tmp_path / "c.yaml"
    path.write_text(f"violation_threshold: {yaml_value}\n")
    with pytest.raises(ConfigError, match="violation_threshold"):
        parse_config(str(path), {"suite": "constrained"})
    out = tmp_path / "out"
    run = ["run", "--suite", "constrained", "--budget", "8", "--reps", "1", "--out", str(out)]
    assert main(run + ["--config", str(path)]) == 2
    assert main(run + [f"--threshold={value}"]) == 2
    assert capsys.readouterr().err.count("violation_threshold must be finite") == 2
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
    with open(out / "custom" / "cells.json") as fh:
        cells = json.load(fh)
    assert all(v == "ok" for v in cells.values())


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


def test_score_missing_directory(tmp_path, capsys):
    assert main(["score", "--out", str(tmp_path), "--suite", "nope"]) == 2
    assert "scores.json" in capsys.readouterr().err


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


def test_strict_flag_fails_on_failed_cells(tmp_path, capsys):
    args = [
        "run",
        "--algos",
        "lsqm",
        "cbo",
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
