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
# cobyla rebuilds its degenerate simplex on matyas-c seed 1 only past 23
# evaluations, so one longer run covers the rebuild; budget 33 ends on the step
# after its third rebuild, not inside a rebuild. A DYCORS step scores its
# trials with the centred gemm (_centred_distances), so each DYCORS run
# exercises _distances only through fit_rbf's n x n matrix: at the BUDGETS
# problems' d <= 5, on ackley-d10 and on cstr-pid (d = 32, below).
EXTRA = [
    ("matyas-c", "cobyla", 1, 33),
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
    ("quadratic-d2", "bo", 0, 10): "c13549862f0941456ee50a77df585076e8234dd0cb89b7aafe4647917b897590",
    ("quadratic-d2", "bo", 1, 10): "467dc655a69bbee64d71866f59435302059ca012b81abc5435d539dadb59fe2d",
    ("quadratic-d2", "lsqm", 0, 10): "c1ae66f5f6ca2343199b3312fc60ecb03004eed89fff7315bbb5b7cf9ed0e98a",
    ("quadratic-d2", "lsqm", 1, 10): "1a6f2930fdbd6336ca4e7e3a48bfce95ece854cb9d628178745d1ba37e39efb0",
    ("quadratic-d2", "cuatro", 0, 10): "c1ae66f5f6ca2343199b3312fc60ecb03004eed89fff7315bbb5b7cf9ed0e98a",
    ("quadratic-d2", "cuatro", 1, 10): "1a6f2930fdbd6336ca4e7e3a48bfce95ece854cb9d628178745d1ba37e39efb0",
    ("quadratic-d2", "cobyla", 0, 10): "d675f20fcfdc3b59e7ebd387a957d9b62814eaa5e90b3286ef2abf2827497e77",
    ("quadratic-d2", "cobyla", 1, 10): "a9b4d31f4b5bcb93b0e1da00a068fa84117b162317ab299a15a2a16ac288d753",
    ("quadratic-d2", "cobyqa", 0, 10): "03a0d8cd7183dbe45a217a52a72cb00f93ced48cde7c51a8600f7bb3fea57913",
    ("quadratic-d2", "cobyqa", 1, 10): "cdc788eb36090381f680cacf8c4b7fd4832e4b577a714e0bef2e4f8b6a562000",
    ("quadratic-d2", "dycors", 0, 10): "553e9f59ee17a31775c0633f73d5ba0b927bc70f325ea950383409ee8b2921b7",
    ("quadratic-d2", "dycors", 1, 10): "605b845cce6c372b30a9a953272180c361439e339333ac0e9657932c77890dab",
    ("levy-d5", "bo", 0, 13): "916efc5723f60182167f188bb9ea7de72b00ccad6f9169a64e813e11d6a18bdb",
    ("levy-d5", "bo", 1, 13): "ee2bc2d76afb575cde78569aefed1f0ea5a2e5ea89a07732799438141298c693",
    ("levy-d5", "lsqm", 0, 13): "6f3e9ed47d04cec66d8e7eb964faf4e14654b1e62f6452b799a77c20d526b05f",
    ("levy-d5", "lsqm", 1, 13): "1b99790dfb7548279617dc3f692b7883df89641993c514bb9995fe0cd01be01d",
    ("levy-d5", "cuatro", 0, 13): "6f3e9ed47d04cec66d8e7eb964faf4e14654b1e62f6452b799a77c20d526b05f",
    ("levy-d5", "cuatro", 1, 13): "1b99790dfb7548279617dc3f692b7883df89641993c514bb9995fe0cd01be01d",
    ("levy-d5", "cobyla", 0, 13): "924095ce0d2c8a365ed28689df5b53d11723cd9b0df690b5fc19cea8fc34d02a",
    ("levy-d5", "cobyla", 1, 13): "bbf690c6d4439de6365ec1477415982a84f86eab2c0abd164b30e40025d5f623",
    ("levy-d5", "cobyqa", 0, 13): "45c08ee4d977433b1cb5f31caa8c21765dace518757bd8d348dfa0ea2ae58d99",
    ("levy-d5", "cobyqa", 1, 13): "735f32698ef18e7e1c5ca268b72d0c067b9b22b911bb97602ccb55e7b0e7112b",
    ("levy-d5", "dycors", 0, 13): "e57922a9d4ec2b0741498c8513427397323fd45500af2ed586c229fce117373e",
    ("levy-d5", "dycors", 1, 13): "62a4b3c8b35df53e0e4055cabd6d2f2b09fe20abc97866a70cf551b814e15e0b",
    ("matyas-c", "bo", 0, 10): "d96b861d6645bc50291b653fc3b1ed8ba3bfaabece9d4c93097659cf89ffee1b",
    ("matyas-c", "bo", 1, 10): "9e89e98e7b49a082e279172db9a0439c3d02a68ba1853cef56f6aeb75cc9046d",
    ("matyas-c", "cbo", 0, 10): "6505c45a76eb6349e555359e43874dd409418b30be6ad7694ecc96c8a19a0ded",
    ("matyas-c", "cbo", 1, 10): "96811cead1f0ae229da49b2b400934016607bfa1b3a15b0b9dc4623dfb34893c",
    ("matyas-c", "lsqm", 0, 10): "9d121792076eb6eee70be5b891d817e2caf9328e666588cc8e907d8e72f66ad2",
    ("matyas-c", "lsqm", 1, 10): "ec2b392a42c0c765f8eb94bf271541940223a4e002daefd207728a4a2ee553e5",
    ("matyas-c", "cuatro", 0, 10): "b11b510e9e47e787d0ebcddfe2a3519a07d0e5690dc94dfeed7aa3c096c0382b",
    ("matyas-c", "cuatro", 1, 10): "7611536486808a5cf4be73126cb09de97490902cc6e581e8460900e6f64db2b8",
    ("matyas-c", "cobyla", 0, 10): "6a2ef7fac9a64edba7bda2342a07c4abae5bde742c1f7fcb81c9923053e0ba88",
    ("matyas-c", "cobyla", 1, 10): "4a75b352edad7edc49b44eb4474f7c90d94e9e41208aed4d4d5e54e82b862563",
    ("matyas-c", "cobyqa", 0, 10): "d6668dbf6522bdc0e255fe8ed3ccd16b306f0e46259e23d323784d2ab64f2346",
    ("matyas-c", "cobyqa", 1, 10): "b06b1eca244661988f3790929c459f4cc7302ca62af5f1645c3f0a6392347ee6",
    ("matyas-c", "dycors", 0, 10): "4781936fb9f6d21e999cf3c75f8ff8d3157553219a3dfb1af0d626e272dc6ee2",
    ("matyas-c", "dycors", 1, 10): "f8b76693852ee3599f5c479b9cd7acf36fadce69d5ced296645faab943c8ebf1",
    ("williams-otto", "bo", 0, 10): "13a36f551b80cb946693462fe39ef25be8ad00bad70ecdc2d8e44333e6db7150",
    ("williams-otto", "bo", 1, 10): "e0f655f0f4ba7c01f28680fb20b2086798784f4e1552860d00de6fa80cc95957",
    ("williams-otto", "cbo", 0, 10): "af20148df956fac4ba81f7449192e7f1fc85ed757d48772e8c2ab297fc0df037",
    ("williams-otto", "cbo", 1, 10): "4764ffa8005bc3d16218b76b25c7031ca2ad9a1105ef996c87625961c7c7b40e",
    ("williams-otto", "lsqm", 0, 10): "765c3c19a7d627973d983ee68428db9f22766e70e9980c94fe4a4e29d404d2de",
    ("williams-otto", "lsqm", 1, 10): "d85c0942b32429622fd39d48f56052d161874d9dfa60c75a29867b14f3a430a5",
    ("williams-otto", "cuatro", 0, 10): "3bc392a891f460f0363bc6f30ca9d4b92c09084f5a9e3381f09b207e4659c5e8",
    ("williams-otto", "cuatro", 1, 10): "67301bb06d773b8d6655614f6fc11244df2bab03a409268223c734f7e925e9d1",
    ("williams-otto", "cobyla", 0, 10): "64372947f1011c5913c9590932e5137a5e9475a068ad4f62d5a2509ea709dd6e",
    ("williams-otto", "cobyla", 1, 10): "74e5f8eb4ad6ffe8faf9f9a49e63bd5ec54cf6aabbb264e9a21095022aa99423",
    ("williams-otto", "cobyqa", 0, 10): "c06b65507503d9c04ac8fc81bb78ab81594c0f55bd73ff7febf854d0af95faca",
    ("williams-otto", "cobyqa", 1, 10): "fe91b11e6437689c44becec8eb56ce9bae1071160b05d668f75725e0b613f651",
    ("williams-otto", "dycors", 0, 10): "9d16e0608071ba286399a5852c27088a59abe0577ae2e6a5a376103003f2e21e",
    ("williams-otto", "dycors", 1, 10): "46c8f1d5d183fd993cb5ad9762dbe285d3ced6ce4a655631e2fc8c4d23e38aeb",
    ("matyas-c", "cobyla", 1, 33): "92c42899fe7993b48e2169ec0c85755df7b0c67ad276ee3c63cccdb51e799e6a",
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
    ("cstr-pid", "cuatro", 0, 34): "382b5ffbaee7732035b31b9fd4abad64e8bbc2da8403c49b8040ae44480700b9",
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
