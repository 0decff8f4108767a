"""Golden trajectories: SHA-256 digests of ``traj.xs/ys/gs`` for every algorithm.

The digests freeze optimizer behaviour bit-for-bit on a small matrix of
problems and seeds at short budgets, so a refactor that claims to keep
behaviour can show it. Change a digest only in a change that means to alter
behaviour, and say so in CHANGES.md. To print the digests of the current
code, run ``python tests/test_golden.py`` with ``src`` on the path.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from surropt.casestudies import WoParams, cstr_objective, wo_objective
from surropt.core import NoiseSpec
from surropt.optimizers import ALGORITHMS, run_optimizer
from surropt.problems import get_problem

BUDGETS = {"quadratic-d2": 10, "levy-d5": 13, "matyas-c": 10, "williams-otto": 10}
SEEDS = (0, 1)
# cobyla rebuilds its degenerate simplex on matyas-c seed 1 only past 27
# evaluations, so one longer run covers the rebuild. A DYCORS step scores its
# trials with the centred gemm (_centred_distances), so each DYCORS run
# exercises _distances only through fit_rbf's n x n matrix: at the BUDGETS
# problems' d <= 5, on ackley-d10 and on cstr-pid (d = 32, below).
EXTRA = [
    ("matyas-c", "cobyla", 1, 32),
    ("ackley-d10", "dycors", 0, 30),
    ("ackley-d10", "dycors", 1, 30),
]


def _cases():
    for key, budget in BUDGETS.items():
        constrained = get_problem(key).n_constraints > 0
        for algo in ALGORITHMS:
            if algo == "cbo" and not constrained:
                continue
            for seed in SEEDS:
                yield key, algo, seed, budget
    yield from EXTRA


def digest(traj) -> str:
    h = hashlib.sha256()
    for a in (traj.xs, traj.ys, traj.gs):
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


GOLDEN = {
    ("quadratic-d2", "bo", 0, 10): "e0469cfff1135ed3aaeaa38313b20c365edeb0d4779a8f82adcf550ff789a272",
    ("quadratic-d2", "bo", 1, 10): "26a3e4fa16a566c0aac18e6a452530f7aee66ce710c502b8c319527ffc9b8989",
    ("quadratic-d2", "lsqm", 0, 10): "4c0b536d5bb7ef72cac6424c5ea880cbb68e0f7b7b9564606b3a72da0e80210f",
    ("quadratic-d2", "lsqm", 1, 10): "6cd1f54030d5a75d939392fbee9796a90f99528f7e4f869ec51905717f0490a9",
    ("quadratic-d2", "cuatro", 0, 10): "4c0b536d5bb7ef72cac6424c5ea880cbb68e0f7b7b9564606b3a72da0e80210f",
    ("quadratic-d2", "cuatro", 1, 10): "6cd1f54030d5a75d939392fbee9796a90f99528f7e4f869ec51905717f0490a9",
    ("quadratic-d2", "cobyla", 0, 10): "d13864d1ad84909f478b514304a2f38a1d528d7ccb6603b729107f6b91f7554f",
    ("quadratic-d2", "cobyla", 1, 10): "1afd239b0ca1e666e9c9b2f7aad7ffaafcafc6555d34b9e42efa6f6e1a0ccab5",
    ("quadratic-d2", "cobyqa", 0, 10): "fa8766e5379989eacc3312ff1a495ff954e8be8528d8ebd3c363b403784c2846",
    ("quadratic-d2", "cobyqa", 1, 10): "3700472549227ddfd8e67224e8ec0343faac2d2f5bdf477061e1cb712fcf5dd4",
    ("quadratic-d2", "dycors", 0, 10): "553e9f59ee17a31775c0633f73d5ba0b927bc70f325ea950383409ee8b2921b7",
    ("quadratic-d2", "dycors", 1, 10): "605b845cce6c372b30a9a953272180c361439e339333ac0e9657932c77890dab",
    ("levy-d5", "bo", 0, 13): "31f0a8a42180d690605ec0e8e416d038279487475d1b692603d007a573a89ab6",
    ("levy-d5", "bo", 1, 13): "12c5344196bcc68be05e401022547559f26854449e4e5eefa4b965a7679db58e",
    ("levy-d5", "lsqm", 0, 13): "948bf9d793b9df6c81286ff433fb69e863e2b0d3b73972695e3abc7bb82441ce",
    ("levy-d5", "lsqm", 1, 13): "08ed14c8feb72f7b81ad4e9e2faf2e959be64deeb70514bcd83c440e6098d640",
    ("levy-d5", "cuatro", 0, 13): "948bf9d793b9df6c81286ff433fb69e863e2b0d3b73972695e3abc7bb82441ce",
    ("levy-d5", "cuatro", 1, 13): "08ed14c8feb72f7b81ad4e9e2faf2e959be64deeb70514bcd83c440e6098d640",
    ("levy-d5", "cobyla", 0, 13): "010b8ee16e6cf9a646a8d0185b8b2f4344e3400e464a035d4b58db7ce3017cce",
    ("levy-d5", "cobyla", 1, 13): "efa3bf8afb70bae0439336155945f2d7dbb0cda7685d4ae66cdf58e49623fb9b",
    ("levy-d5", "cobyqa", 0, 13): "79e0e8a2719b14c63d8a03836924a13999b26b3025bc125feab761232cde8be2",
    ("levy-d5", "cobyqa", 1, 13): "a1592191896f0041cfb5c2ffd4100199ca1f0e3c76e737b1b9482a6f6869745e",
    ("levy-d5", "dycors", 0, 13): "e57922a9d4ec2b0741498c8513427397323fd45500af2ed586c229fce117373e",
    ("levy-d5", "dycors", 1, 13): "62a4b3c8b35df53e0e4055cabd6d2f2b09fe20abc97866a70cf551b814e15e0b",
    ("matyas-c", "bo", 0, 10): "fec26f377f7945016399ef895982f19d33682e5b9f1d1ba4870098e0a1081666",
    ("matyas-c", "bo", 1, 10): "58eb20520ee218b94236efb49529e99fd308fb9bace586f652057468ff6995be",
    ("matyas-c", "cbo", 0, 10): "cf071ef587a5a377f2361555a6ffb78ea7a00f4325c66b734b303096901e3cf3",
    ("matyas-c", "cbo", 1, 10): "1ef9243bb61040be180c3f2d971b6a9d70391e86e148aae830a26c0a0ff05af6",
    ("matyas-c", "lsqm", 0, 10): "3f2734f40114b40f9b53a8ea1f8bbf0f625221741d8f7ab1128c6ea3ad9a8a64",
    ("matyas-c", "lsqm", 1, 10): "e45b3a97e0f468c2495a5a133f13b2feeb045f6521ada82da6dc0d6cad23556a",
    ("matyas-c", "cuatro", 0, 10): "2aeb4b9c321364a45dc66ba30649ea5feac0196c92a6d797fd5412f2bd3762d7",
    ("matyas-c", "cuatro", 1, 10): "84f2811e356ab3b2e918a7f534bfc5c2d1625e6aafbb713735149b5a203bc1cb",
    ("matyas-c", "cobyla", 0, 10): "6a2ef7fac9a64edba7bda2342a07c4abae5bde742c1f7fcb81c9923053e0ba88",
    ("matyas-c", "cobyla", 1, 10): "4a75b352edad7edc49b44eb4474f7c90d94e9e41208aed4d4d5e54e82b862563",
    ("matyas-c", "cobyqa", 0, 10): "e4620b7d75d1f9c6bac9deafbf982029587a168b195329c31ec28f5095e34a67",
    ("matyas-c", "cobyqa", 1, 10): "ddc30eb4bcfb2bbb7e95f0060ac02563bfc606dd4d1436ff14550e9632555a3e",
    ("matyas-c", "dycors", 0, 10): "4781936fb9f6d21e999cf3c75f8ff8d3157553219a3dfb1af0d626e272dc6ee2",
    ("matyas-c", "dycors", 1, 10): "f8b76693852ee3599f5c479b9cd7acf36fadce69d5ced296645faab943c8ebf1",
    ("williams-otto", "bo", 0, 10): "bac0a90c49a93ef52e1b0b7ce659e11e38b0e9421dd5760fbee2f35a6ae602ba",
    ("williams-otto", "bo", 1, 10): "be0f888e9cc825caa9b48beb3c7dd0b0df8d9dc49d2ba9ed899cf6b36b8b0d8b",
    ("williams-otto", "cbo", 0, 10): "8567c42eabcbc3f33929ddffa2a8822060afe9e3403887a5bc8be555d5e686bc",
    ("williams-otto", "cbo", 1, 10): "84dc71529715293409b158ca3fafe83bced7e610ce18fe12aec5413a385f4860",
    ("williams-otto", "lsqm", 0, 10): "5d1aa4df662e329a0603bea698a720fd9fa35c3708c0d1eb9cb2665b8a2169f4",
    ("williams-otto", "lsqm", 1, 10): "8104f8c217d1c63cde8f7a640ca2b4d70d87920e02bee44b730a553cd05f47ca",
    ("williams-otto", "cuatro", 0, 10): "dfa16669e21aa4664d1e6f1fbc22951653d371bde6b7ae85b402b03f5a7697d8",
    ("williams-otto", "cuatro", 1, 10): "67301bb06d773b8d6655614f6fc11244df2bab03a409268223c734f7e925e9d1",
    ("williams-otto", "cobyla", 0, 10): "8f9018971d8498f131ea831e64df7366e4320be3dbde8491073e453c9b64b720",
    ("williams-otto", "cobyla", 1, 10): "98fd7a4764cb9ee2d02453d5d2c7c74f4811bfdb702c18f5f61dbbd191422754",
    ("williams-otto", "cobyqa", 0, 10): "3967332c25612ea08304cd16d507118f084ba9aee73b1064182e6006a850f7e6",
    ("williams-otto", "cobyqa", 1, 10): "f418835931feb3b076590b9bc087005e88e3f85ddeebc7c92d4e3b6e88b229ba",
    ("williams-otto", "dycors", 0, 10): "9d16e0608071ba286399a5852c27088a59abe0577ae2e6a5a376103003f2e21e",
    ("williams-otto", "dycors", 1, 10): "46c8f1d5d183fd993cb5ad9762dbe285d3ced6ce4a655631e2fc8c4d23e38aeb",
    ("matyas-c", "cobyla", 1, 32): "90d8d93cf2de47c0eb896a2444144c8275d7c5f2bf72edfe60a85cd564c8fe0c",
    ("ackley-d10", "dycors", 0, 30): "30c68d1bb4ae617433952eff50393e1c8fa5c85c5a9f04773e5d9408219c4302",
    ("ackley-d10", "dycors", 1, 30): "e87d6c6b23c30fc410d19ed78534f2d6a88700d3c86d0acb977f39aae58c9e39",
}


@pytest.mark.parametrize("case", list(_cases()), ids=lambda c: "-".join(map(str, c)))
def test_golden_trajectory(case):
    key, algo, seed, budget = case
    traj = run_optimizer(algo, get_problem(key), budget, seed)
    assert digest(traj) == GOLDEN[case]


# The CSTR simulator is locked on its own: objective values at fixed theta,
# plus cstr-pid runs whose trust-region and DYCORS steps feed it points off
# that set.
_HAND_TUNED = np.zeros((4, 2, 4))
_HAND_TUNED[:, :, 0] = 0.5
_HAND_TUNED[:, :, 1] = 0.3
_HAND_TUNED[:, :, 3] = 0.8


def cstr_values() -> np.ndarray:
    thetas = list(np.random.default_rng(0).uniform(size=(32, 32)))
    thetas += [np.zeros(32), _HAND_TUNED.ravel()]
    values = [cstr_objective(t) for t in thetas]
    noise = NoiseSpec(sigma=5.0)
    values += [cstr_objective(_HAND_TUNED.ravel(), noise=noise, seed=s) for s in (0, 1)]
    return np.array(values)


CSTR_VALUES = "b54dc7b6f1e4c8aa869df5d1090028a676a5513cc38ea0af24938f74ac45cdf3"
CSTR_GOLDEN = {
    ("cstr-pid", "cobyla", 0, 34): "2dd0772b56931f8069f822b9ea52cf0fbfacf7ddddfaa789ad074ddf996f9675",
    ("cstr-pid", "cuatro", 0, 34): "31fcc28cf914efa84f952fd11348628a7d7225d65e4fb35f37c7266f8e5317a4",
    ("cstr-pid", "dycors", 0, 70): "4c422ecc42c0453e0dace0767df4edc25a17e0820db321db48f33fa97d988eb5",
}


def test_golden_cstr_values():
    values = cstr_values()
    assert hashlib.sha256(values.tobytes()).hexdigest() == CSTR_VALUES


@pytest.mark.parametrize("case", list(CSTR_GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_golden_cstr_trajectory(case):
    key, algo, seed, budget = case
    assert digest(run_optimizer(algo, get_problem(key), budget, seed)) == CSTR_GOLDEN[case]


def wo_values() -> np.ndarray:
    """(-profit, g_A, g_G) of ``wo_objective`` on a 9 x 9 grid over its box."""
    p = WoParams.from_config()
    values = []
    for T in np.linspace(*p.temperature_bounds, 9):
        for FB in np.linspace(*p.feed_b_bounds, 9):
            f, g = wo_objective(float(T), float(FB), p)
            values += [f, *g.tolist()]
    return np.array(values)


WO_VALUES = "51420827dafc675cb56860ba40f41f5f484ef1e92abbbde6a3d8ae07992e2a69"


def test_golden_wo_values():
    assert hashlib.sha256(wo_values().tobytes()).hexdigest() == WO_VALUES


# Trajectories do not depend on the BLAS thread count: each child process below
# digests its cases with OpenBLAS (or OMP/MKL) held to one thread or to two. A
# 561-column primal least-squares fit (d=32, n >= p = 561, past every suite
# budget) is large enough for OpenBLAS to split across threads, which changes
# its rounding; while n < p a d=32 quadratic fit solves the n-column dual system.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_digests(cases):
    """The digests of ``cases`` on one and on two BLAS threads, one child process each."""
    here = Path(__file__).resolve().parent
    path = [str(here), str(here.parent / "src"), os.environ.get("PYTHONPATH", "")]
    code = (
        "from test_golden import digest, get_problem, run_optimizer\n"
        f"for key, algo, seed, budget in {list(cases)!r}:\n"
        "    print(digest(run_optimizer(algo, get_problem(key), budget, seed)))\n"
    )
    digests = []
    for threads in (1, 2):
        env = {**os.environ, **dict.fromkeys(BLAS_THREADS, str(threads))}
        env["PYTHONPATH"] = os.pathsep.join(path)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
            timeout=600,
        )
        digests.append(out.stdout.split())
    return digests


def test_golden_table_same_under_one_and_two_blas_threads():
    table = {**GOLDEN, **CSTR_GOLDEN}
    one, two = child_digests(list(table))
    assert one == two
    assert one == list(table.values())


# Budget 40 gives each run 7 quadratic-model steps past its 33-point initial
# design; with the 561-column primal fit both runs differ from budget 34 on.
@pytest.mark.parametrize("algo", ["cuatro", "cobyqa"])
def test_cstr_trajectory_same_under_one_and_two_blas_threads(algo):
    one, two = child_digests([("cstr-pid", algo, 0, 40)])
    assert one == two


if __name__ == "__main__":
    for case in _cases():
        key, algo, seed, budget = case
        print(f"    {case!r}: \"{digest(run_optimizer(algo, get_problem(key), budget, seed))}\",")
    print(f"CSTR_VALUES = \"{hashlib.sha256(cstr_values().tobytes()).hexdigest()}\"")
    print(f"WO_VALUES = \"{hashlib.sha256(wo_values().tobytes()).hexdigest()}\"")
    for case in CSTR_GOLDEN:
        key, algo, seed, budget = case
        print(f"    {case!r}: \"{digest(run_optimizer(algo, get_problem(key), budget, seed))}\",")
