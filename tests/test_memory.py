"""Memory bounds of the instrument totals and of the stacked state sweeps.

A d = 16 Holevo instrument with 5 outcomes holds 5 * d**2 = 1,280 rank-one
Kraus operators (5 MiB).  Every total over its outcomes works in blocks of at
most d**2 operators, so no call may hold more than four such blocks at once
(4 * d**4 complex128 entries, 4 MiB).  The same bound holds for judging a
50-state stack through one of its Holevo operations (256 operators): the
dual transports one effect, where applying the operation to every state
would hold 50 * 256 operator-sized products (50 MiB).  Composing the
instrument's bar channel with a Lüders operation takes ``compose``'s Choi
branch, which sums the bar's Gram matrix over the same blocks, so it may hold
five d**4-entry matrices (5 MiB), the last ones for the eigendecomposition.
tracemalloc sees numpy's buffers, so its peak is the bound checked here.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from qcond import (
    bar_channel,
    bayes1_check,
    bayes1_expectation_check,
    bayes2_residual,
    condition_effect,
    condition_observable,
    conditional_effect_entropy,
    conditional_observable_entropy_double,
    conditional_prob,
    conditioned_stochastic_operator,
    compose,
    holevo_instrument,
    luders,
    sequential_entropy,
    validate_instrument,
)
from qcond.rand import (
    Generator,
    random_effect,
    random_observable,
    random_real_values,
    random_state,
    random_states,
)

DIM = 16
N_OUTCOMES = 5
N_STATES = 50
BLOCK_BYTES = DIM**4 * 16
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def setting():
    # A fresh instrument per test: an operation caches its effect on first read.
    g = Generator(1600)
    a_obs = random_observable(g.derive(0), DIM, N_OUTCOMES)
    alphas = {x: random_state(g.derive(1, i), DIM) for i, x in enumerate(a_obs.outcomes)}
    ins = holevo_instrument(a_obs, alphas)
    assert sum(len(op.kraus) for op in ins.ops.values()) == N_OUTCOMES * DIM**2
    b_obs = random_observable(g.derive(2), DIM, 3)
    op_a, op_b = (ins.ops[x] for x in a_obs.outcomes[:2])
    assert len(op_a.kraus) == len(op_b.kraus) == DIM**2
    return {
        "ins": ins,
        "op_a": op_a,
        "op_b": op_b,
        "states": random_states(g.derive(6), DIM, N_STATES),
        "rho": random_state(g.derive(3), DIM),
        "a": random_effect(g.derive(4), DIM),
        "b_obs": b_obs,
        "b": random_real_values(g.derive(5), b_obs),
    }


CALLS = {
    "bayes1_check": lambda s: bayes1_check(s["rho"], s["ins"], s["a"]),
    "bayes1_expectation_check": lambda s: bayes1_expectation_check(s["rho"], s["ins"], s["b"]),
    "condition_effect": lambda s: condition_effect(s["a"], s["ins"]),
    "condition_observable": lambda s: condition_observable(s["b_obs"], s["ins"]),
    "conditioned_stochastic_operator": lambda s: conditioned_stochastic_operator(s["ins"], s["b"]),
    "conditional_observable_entropy_double": lambda s: conditional_observable_entropy_double(
        s["rho"], s["ins"], s["b_obs"]
    ),
    "validate_instrument": lambda s: validate_instrument(s["ins"]),
    "conditional_prob": lambda s: conditional_prob(s["states"], s["op_a"], s["a"]),
    "bayes2_residual": lambda s: bayes2_residual(s["states"], s["op_a"], s["op_b"]),
    "entropy_gap": lambda s: sequential_entropy(s["states"], s["op_a"], s["a"])
    - conditional_effect_entropy(s["states"], s["op_a"], s["a"]),
}


def _peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", CALLS)
def test_instrument_totals_stay_within_four_blocks(setting, name):
    peak = _peak(lambda: CALLS[name](setting))
    assert peak <= 4 * BLOCK_BYTES, f"{name} peaked at {peak / 2**20:.1f} MiB"


def test_compose_of_the_bar_channel_stays_within_five_blocks(setting):
    bar = bar_channel(setting["ins"])
    op = luders(setting["a"])
    peak = _peak(lambda: compose(bar, op))
    assert peak <= 5 * BLOCK_BYTES, f"compose peaked at {peak / 2**20:.1f} MiB"


# Two trials at d = 32 (bayes1's second is a Holevo instrument) in a fresh
# process, whose peak RSS is the whole run's.
LARGE_D_RUN = """
import resource, sys
from qcond import run_suite
ok = run_suite(sys.argv[1], dims=(32,), trials=2, seed=7).ok
print(ok, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024)
"""


@pytest.mark.slow
@pytest.mark.parametrize("suite", ("bayes1", "uncertainty"))
def test_large_d_suite_peaks_below_a_gigabyte(suite):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", LARGE_D_RUN, suite],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert out[0] == "True"
    assert int(out[1]) < 2**30, f"{suite} at d = 32 peaked at {int(out[1]) / 2**20:.0f} MiB"
