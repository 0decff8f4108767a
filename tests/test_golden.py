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
    ("quadratic-d2", "lsqm", 0, 10): "eeb7a74c61dde10b5b9aac9ce064405e3ee817294bd9148a67a488f319fba5cf",
    ("quadratic-d2", "lsqm", 1, 10): "ed0cf6973cae8b7171f85afebff5d02d93031a7361600f5f92d125d374e587b4",
    ("quadratic-d2", "cuatro", 0, 10): "eeb7a74c61dde10b5b9aac9ce064405e3ee817294bd9148a67a488f319fba5cf",
    ("quadratic-d2", "cuatro", 1, 10): "ed0cf6973cae8b7171f85afebff5d02d93031a7361600f5f92d125d374e587b4",
    ("quadratic-d2", "cobyla", 0, 10): "d13864d1ad84909f478b514304a2f38a1d528d7ccb6603b729107f6b91f7554f",
    ("quadratic-d2", "cobyla", 1, 10): "1afd239b0ca1e666e9c9b2f7aad7ffaafcafc6555d34b9e42efa6f6e1a0ccab5",
    ("quadratic-d2", "cobyqa", 0, 10): "c01f214e9256ef21430ea3695b566910f68ac9acd364d61f2dc29178afe1595a",
    ("quadratic-d2", "cobyqa", 1, 10): "c569e9581967eb29fd8521da4ece65244d24b8da3bbacc630ea58d67f521cb7d",
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
    ("levy-d5", "cobyqa", 1, 13): "517be91e5d8a9ce591963b8389ce5b2d50b97bfec4306e7d6c204b63bb93f824",
    ("levy-d5", "dycors", 0, 13): "e57922a9d4ec2b0741498c8513427397323fd45500af2ed586c229fce117373e",
    ("levy-d5", "dycors", 1, 13): "62a4b3c8b35df53e0e4055cabd6d2f2b09fe20abc97866a70cf551b814e15e0b",
    ("matyas-c", "bo", 0, 10): "fec26f377f7945016399ef895982f19d33682e5b9f1d1ba4870098e0a1081666",
    ("matyas-c", "bo", 1, 10): "58eb20520ee218b94236efb49529e99fd308fb9bace586f652057468ff6995be",
    ("matyas-c", "cbo", 0, 10): "cf071ef587a5a377f2361555a6ffb78ea7a00f4325c66b734b303096901e3cf3",
    ("matyas-c", "cbo", 1, 10): "1ef9243bb61040be180c3f2d971b6a9d70391e86e148aae830a26c0a0ff05af6",
    ("matyas-c", "lsqm", 0, 10): "dd6f4a7e52665e353ba8c599033378426de73355e2d5c929ef2aa7a7d0ab7bac",
    ("matyas-c", "lsqm", 1, 10): "ce751f114a8f4d6bc104cc115832341742b70791e7b1cf2400c45471f1294236",
    ("matyas-c", "cuatro", 0, 10): "c0721ab4cdd11148744af5254933524dccc99b4e1ded7950019959c2ebcddf1f",
    ("matyas-c", "cuatro", 1, 10): "9565c729af9e2bb7879c22b9a680aa85f70abcf2ccc3ff64a7cefef0c3dd0dea",
    ("matyas-c", "cobyla", 0, 10): "e9f4c7b286cef30406336b6651709a8de4e65baf5884704d9bfa69978dd2b06d",
    ("matyas-c", "cobyla", 1, 10): "4a75b352edad7edc49b44eb4474f7c90d94e9e41208aed4d4d5e54e82b862563",
    ("matyas-c", "cobyqa", 0, 10): "01efd351b9180ce959605b602217af12bf9a31163d09bd2d3fc148704b78972f",
    ("matyas-c", "cobyqa", 1, 10): "68b3ba46837041c573cced54b904fe6a2e28e41a54943169fab3b9f28c182b47",
    ("matyas-c", "dycors", 0, 10): "4781936fb9f6d21e999cf3c75f8ff8d3157553219a3dfb1af0d626e272dc6ee2",
    ("matyas-c", "dycors", 1, 10): "f8b76693852ee3599f5c479b9cd7acf36fadce69d5ced296645faab943c8ebf1",
    ("williams-otto", "bo", 0, 10): "bac0a90c49a93ef52e1b0b7ce659e11e38b0e9421dd5760fbee2f35a6ae602ba",
    ("williams-otto", "bo", 1, 10): "be0f888e9cc825caa9b48beb3c7dd0b0df8d9dc49d2ba9ed899cf6b36b8b0d8b",
    ("williams-otto", "cbo", 0, 10): "8567c42eabcbc3f33929ddffa2a8822060afe9e3403887a5bc8be555d5e686bc",
    ("williams-otto", "cbo", 1, 10): "84dc71529715293409b158ca3fafe83bced7e610ce18fe12aec5413a385f4860",
    ("williams-otto", "lsqm", 0, 10): "5925e23b0603746beaa194a88746c2e8d68afd209123b332d684b3d43424524e",
    ("williams-otto", "lsqm", 1, 10): "c4df0574d7cdf90e9725bafbe9482cd0121edc8c27b7589aef25b788dfc0d7e5",
    ("williams-otto", "cuatro", 0, 10): "87b1b0d73f87f91204b68072387b1e8fa463ae364986fb7828b6e8d63acd6b0c",
    ("williams-otto", "cuatro", 1, 10): "938a57e54707f206da54cd302af8e28b7d1825daf1c9997f2b230c7fffe97feb",
    ("williams-otto", "cobyla", 0, 10): "35212c931ff2e031bae2917ec1b8c0aea9dd7bb9f32b44aa3e594672cb8f6baf",
    ("williams-otto", "cobyla", 1, 10): "e8eca468d753084c41a4200daf6e5cc3b306da733d9c3ce673ef311a3b24a9b4",
    ("williams-otto", "cobyqa", 0, 10): "7862d2342a792367fba7a0df73a15fd2560625ec016b85cbe975dbd8fe99d1e4",
    ("williams-otto", "cobyqa", 1, 10): "6eff8c857b8bc984b2e07772b8146442cb077c63b06f1e2d70b85322b3e9c5d4",
    ("williams-otto", "dycors", 0, 10): "9d16e0608071ba286399a5852c27088a59abe0577ae2e6a5a376103003f2e21e",
    ("williams-otto", "dycors", 1, 10): "46c8f1d5d183fd993cb5ad9762dbe285d3ced6ce4a655631e2fc8c4d23e38aeb",
    ("matyas-c", "cobyla", 1, 32): "f25ae748fc18bace7546ccf2df9fed22ac1faff85608dc4d7628b2e914003990",
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
