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
    ("quadratic-d2", "lsqm", 0, 10): "a49c7dd9203194b11def2d68a2a9eb36382e6d081c727c0721d887115ae08fb4",
    ("quadratic-d2", "lsqm", 1, 10): "e903c52f710dc5c501b2cd3fcae599df6181907708bd17a216306f23442530be",
    ("quadratic-d2", "cuatro", 0, 10): "a49c7dd9203194b11def2d68a2a9eb36382e6d081c727c0721d887115ae08fb4",
    ("quadratic-d2", "cuatro", 1, 10): "e903c52f710dc5c501b2cd3fcae599df6181907708bd17a216306f23442530be",
    ("quadratic-d2", "cobyla", 0, 10): "d675f20fcfdc3b59e7ebd387a957d9b62814eaa5e90b3286ef2abf2827497e77",
    ("quadratic-d2", "cobyla", 1, 10): "a9b4d31f4b5bcb93b0e1da00a068fa84117b162317ab299a15a2a16ac288d753",
    ("quadratic-d2", "cobyqa", 0, 10): "02519d1b0f5a6949736f016bcb42efa543e33231446990b750e33454edcc59ea",
    ("quadratic-d2", "cobyqa", 1, 10): "ee7f09bce149deaa4e4be8241c13c85c7c9346b490453931702350addde01521",
    ("quadratic-d2", "dycors", 0, 10): "553e9f59ee17a31775c0633f73d5ba0b927bc70f325ea950383409ee8b2921b7",
    ("quadratic-d2", "dycors", 1, 10): "605b845cce6c372b30a9a953272180c361439e339333ac0e9657932c77890dab",
    ("levy-d5", "bo", 0, 13): "916efc5723f60182167f188bb9ea7de72b00ccad6f9169a64e813e11d6a18bdb",
    ("levy-d5", "bo", 1, 13): "ee2bc2d76afb575cde78569aefed1f0ea5a2e5ea89a07732799438141298c693",
    ("levy-d5", "lsqm", 0, 13): "59dd1098cadea35374f51b48178c5986483894230c10f1ca0d51013e0456d732",
    ("levy-d5", "lsqm", 1, 13): "c978f6eb6ad87b014300285a4f96138dd8216b0aef114757506c7ffbe7377495",
    ("levy-d5", "cuatro", 0, 13): "59dd1098cadea35374f51b48178c5986483894230c10f1ca0d51013e0456d732",
    ("levy-d5", "cuatro", 1, 13): "c978f6eb6ad87b014300285a4f96138dd8216b0aef114757506c7ffbe7377495",
    ("levy-d5", "cobyla", 0, 13): "924095ce0d2c8a365ed28689df5b53d11723cd9b0df690b5fc19cea8fc34d02a",
    ("levy-d5", "cobyla", 1, 13): "bbf690c6d4439de6365ec1477415982a84f86eab2c0abd164b30e40025d5f623",
    ("levy-d5", "cobyqa", 0, 13): "acde23b64664afdf645961b050508133b7c598aca0cfa06c370113cfaee1be82",
    ("levy-d5", "cobyqa", 1, 13): "9997e0cb25fefc2f264d35417a00bfe3b057e4e045a0076cabbdedb65ebc1a79",
    ("levy-d5", "dycors", 0, 13): "e57922a9d4ec2b0741498c8513427397323fd45500af2ed586c229fce117373e",
    ("levy-d5", "dycors", 1, 13): "62a4b3c8b35df53e0e4055cabd6d2f2b09fe20abc97866a70cf551b814e15e0b",
    ("matyas-c", "bo", 0, 10): "d96b861d6645bc50291b653fc3b1ed8ba3bfaabece9d4c93097659cf89ffee1b",
    ("matyas-c", "bo", 1, 10): "9e89e98e7b49a082e279172db9a0439c3d02a68ba1853cef56f6aeb75cc9046d",
    ("matyas-c", "cbo", 0, 10): "6505c45a76eb6349e555359e43874dd409418b30be6ad7694ecc96c8a19a0ded",
    ("matyas-c", "cbo", 1, 10): "96811cead1f0ae229da49b2b400934016607bfa1b3a15b0b9dc4623dfb34893c",
    ("matyas-c", "lsqm", 0, 10): "7bee15c959cc3516e2e9cf972b2b4d09711e4c5ab10373b9b4db17327db4e9a2",
    ("matyas-c", "lsqm", 1, 10): "ed0b3cf6a2082c411c65b4bb16793e4441c77842c55cdc38191a099ee4faf3a8",
    ("matyas-c", "cuatro", 0, 10): "463b13a1e8ab7bbb033760bb2fdcb1c3c7a20c48fdcd7791c551a0becd9c8b70",
    ("matyas-c", "cuatro", 1, 10): "44ba1b3da54447a7ec19bf4ceeee83b4a46a13574c8a60db33878805b1bb92ab",
    ("matyas-c", "cobyla", 0, 10): "6a2ef7fac9a64edba7bda2342a07c4abae5bde742c1f7fcb81c9923053e0ba88",
    ("matyas-c", "cobyla", 1, 10): "4a75b352edad7edc49b44eb4474f7c90d94e9e41208aed4d4d5e54e82b862563",
    ("matyas-c", "cobyqa", 0, 10): "a117b32823ea0029d672db237cc263e5832d71ab184c6dbc9fe052772d6d341f",
    ("matyas-c", "cobyqa", 1, 10): "6139b3b410e9566b3b0503989322f59c50639db2885f6d4dfcaf3840cd8a5313",
    ("matyas-c", "dycors", 0, 10): "4781936fb9f6d21e999cf3c75f8ff8d3157553219a3dfb1af0d626e272dc6ee2",
    ("matyas-c", "dycors", 1, 10): "f8b76693852ee3599f5c479b9cd7acf36fadce69d5ced296645faab943c8ebf1",
    ("williams-otto", "bo", 0, 10): "13a36f551b80cb946693462fe39ef25be8ad00bad70ecdc2d8e44333e6db7150",
    ("williams-otto", "bo", 1, 10): "e0f655f0f4ba7c01f28680fb20b2086798784f4e1552860d00de6fa80cc95957",
    ("williams-otto", "cbo", 0, 10): "af20148df956fac4ba81f7449192e7f1fc85ed757d48772e8c2ab297fc0df037",
    ("williams-otto", "cbo", 1, 10): "4764ffa8005bc3d16218b76b25c7031ca2ad9a1105ef996c87625961c7c7b40e",
    ("williams-otto", "lsqm", 0, 10): "7386040682b7ebb5edc38bc21d480c2158d37c13c8fb289755115b064ff5e6d2",
    ("williams-otto", "lsqm", 1, 10): "c4576f0a4fc56450361b96d1441fec60f543d83fd7244afe8b39658cb46c4437",
    ("williams-otto", "cuatro", 0, 10): "dfa16669e21aa4664d1e6f1fbc22951653d371bde6b7ae85b402b03f5a7697d8",
    ("williams-otto", "cuatro", 1, 10): "67301bb06d773b8d6655614f6fc11244df2bab03a409268223c734f7e925e9d1",
    ("williams-otto", "cobyla", 0, 10): "64372947f1011c5913c9590932e5137a5e9475a068ad4f62d5a2509ea709dd6e",
    ("williams-otto", "cobyla", 1, 10): "74e5f8eb4ad6ffe8faf9f9a49e63bd5ec54cf6aabbb264e9a21095022aa99423",
    ("williams-otto", "cobyqa", 0, 10): "f35fa9e24d764492e99390ac25b19b7219dddffbd1647848e5c1b93a1e818d0e",
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
    ("cstr-pid", "cuatro", 0, 34): "588c572b077b68e5add44c340292ecea4d029bd8ee46ab5572abb0fbc80b31d8",
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
