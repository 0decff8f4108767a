import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surropt.optimizers as opt
from surropt.bench import count_violations
from surropt.core import VIOLATION_THRESHOLD, ConfigError
from surropt.problems import (
    ackley,
    get_problem,
    levy,
    list_problems,
    quadratic_ill,
    rosenbrock,
)


def test_ackley_optimum_and_known_value():
    assert abs(ackley(np.zeros(2))) < 1e-12
    assert abs(ackley(np.zeros(7))) < 1e-12
    # frozen from an independent direct evaluation
    assert abs(ackley([1.0, 1.0]) - 3.62538) < 1e-4
    assert abs(ackley([1.0, 1.0]) - 3.6253849384403627) < 1e-12


def test_ackley_symmetries():
    assert ackley([1.0, -2.0]) == pytest.approx(ackley([-2.0, 1.0]), abs=1e-12)
    assert ackley([1.0, -2.0]) == pytest.approx(ackley([2.0, 1.0]), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    x=st.lists(st.floats(-5, 5), min_size=2, max_size=6),
    seed=st.integers(0, 10_000),
)
def test_ackley_permutation_invariance(x, seed):
    x = np.asarray(x)
    perm = np.random.default_rng(seed).permutation(x.size)
    assert ackley(x) == pytest.approx(ackley(x[perm]), rel=1e-12, abs=1e-12)


def test_levy_optimum():
    assert abs(levy(np.ones(2))) < 1e-12
    assert abs(levy(np.ones(5))) < 1e-12


def test_levy_last_term_only():
    z = 2.5
    w = 1 + (z - 1) / 4
    expected = (w - 1) ** 2 * (1 + math.sin(2 * math.pi * w) ** 2)
    assert levy([1.0, 1.0, 1.0, z]) == pytest.approx(expected, abs=1e-12)


def test_levy_direct_evaluation_oracle():
    # frozen from an independent evaluation script
    assert levy([0.0, 0.0]) == pytest.approx(0.7158445541169746, abs=1e-10)


def test_rosenbrock_values():
    assert rosenbrock([1.0, 1.0]) == 0.0
    assert rosenbrock([0.0, 0.0]) == 1.0
    assert rosenbrock([-1.0, 1.0]) == 4.0
    assert rosenbrock(np.ones(6)) == 0.0


def test_quadratic_ill_values():
    assert quadratic_ill(np.zeros(3)) == 0.0
    assert quadratic_ill([1.0, 1.0]) == pytest.approx(7.85, abs=1e-12)
    assert quadratic_ill([0.0, 1.0]) == pytest.approx(5.9, abs=1e-12)


def test_quadratic_ill_is_not_permutation_symmetric():
    assert quadratic_ill([1.0, 2.0]) != pytest.approx(quadratic_ill([2.0, 1.0]))


def test_all_functions_zero_at_optimum_and_finite():
    rng = np.random.default_rng(0)
    for fn, x_star in (
        (ackley, np.zeros(5)),
        (levy, np.ones(5)),
        (rosenbrock, np.ones(5)),
        (quadratic_ill, np.zeros(5)),
    ):
        assert abs(fn(x_star)) < 1e-9
        for _ in range(20):
            assert np.isfinite(fn(rng.uniform(-5, 5, size=5)))


# ------------------------------------------------------------ constrained suite


def test_matyas_constraint_at_origin():
    problem = get_problem("matyas-c")
    assert problem.objective([0.0, 0.0]) == 0.0
    g = problem.constraints([0.0, 0.0])
    assert g[0] == pytest.approx(3.60, abs=1e-12)
    assert g[0] > VIOLATION_THRESHOLD  # origin is infeasible


def test_quadratic_constraint_boundary():
    problem = get_problem("quadratic-c")
    assert problem.constraints([0.0, 0.6])[0] == pytest.approx(0.0, abs=1e-12)


def test_rosenbrock_constraint_root_substitution():
    problem = get_problem("rosenbrock-c")
    x1 = -1.27 + 2.83 - 0.69
    assert problem.constraints([x1, 1.0])[0] == pytest.approx(0.0, abs=1e-12)


def test_constrained_suite_unknown_name():
    with pytest.raises(ConfigError, match="unknown problem key 'ackley-c'"):
        get_problem("ackley-c")


def test_violation_threshold_default():
    # one threshold: the feasibility metrics and the optimizers' incumbent both use it
    assert VIOLATION_THRESHOLD == 0.001
    on, above = VIOLATION_THRESHOLD, np.nextafter(VIOLATION_THRESHOLD, 1.0)
    assert count_violations([[on], [above]]) == (0.5, above)
    # incumbent: g == threshold is feasible (row 0 wins on y), g just above is not
    assert opt._best_index([0.0, 1.0], np.array([[on], [-1.0]])) == 0
    assert opt._best_index([0.0, 1.0], np.array([[above], [on]])) == 1


# ------------------------------------------------------------ registry


def test_registry_round_trip():
    p = get_problem("ackley-d5")
    assert p.dim == 5
    assert p.n_constraints == 0
    assert p.objective(np.zeros(5)) == pytest.approx(0.0, abs=1e-12)
    x_star, f_star = p.known_optimum
    assert f_star == 0.0

    pc = get_problem("matyas-c")
    assert pc.dim == 2
    assert pc.n_constraints == 1


def test_registry_lists_advertised_keys():
    keys = list_problems()
    for expected in ("ackley-d2", "levy-d7", "quadratic-c", "cstr-pid", "williams-otto"):
        assert expected in keys


def test_registry_rejects_unknown_key_with_suggestion():
    with pytest.raises(ConfigError) as err:
        get_problem("ackly-d2")
    assert "ackley-d2" in str(err.value)
    with pytest.raises(ConfigError):
        get_problem("nope")


def test_registry_supports_nonstandard_dims():
    p = get_problem("rosenbrock-d3")
    assert p.dim == 3
    assert p.objective(np.ones(3)) == 0.0
