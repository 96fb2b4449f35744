"""Memory bounds of the instrument totals.

A d = 16 Holevo instrument with 5 outcomes holds 5 * d**2 = 1,280 rank-one
Kraus operators (5 MiB).  Every total over its outcomes works in blocks of at
most d**2 operators, so no call may hold more than four such blocks at once
(4 * d**4 complex128 entries, 4 MiB).  tracemalloc sees numpy's buffers, so
its peak is the bound checked here.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from qcond import (
    bayes1_check,
    bayes1_expectation_check,
    condition_effect,
    condition_observable,
    conditional_observable_entropy_double,
    conditioned_stochastic_operator,
    holevo_instrument,
    validate_instrument,
)
from qcond.rand import Generator, random_effect, random_observable, random_real_values, random_state

DIM = 16
N_OUTCOMES = 5
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
    return {
        "ins": ins,
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
}


@pytest.mark.parametrize("name", CALLS)
def test_instrument_totals_stay_within_four_blocks(setting, name):
    tracemalloc.start()
    try:
        CALLS[name](setting)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * BLOCK_BYTES, f"{name} peaked at {peak / 2**20:.1f} MiB"


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
