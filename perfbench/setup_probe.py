"""Set-up time of a fresh process: import qcond and qcond.cli, then first calls.

Prints the seconds from before the import to after one tiny suite run and
one tiny scene run.  Interpreter start-up is not included.  Whether those
first calls pass is the workload's gate to judge, not this probe's.
"""

import sys
import time

start = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import qcond  # noqa: E402
import qcond.cli  # noqa: E402,F401

qcond.run_suite("duality", (2,), 1, 1)
scene = qcond.load_scene(
    {
        "objects": {"rho": {"state": [[0.5, 0], [0, 0.5]]}, "p0": {"effect": [[1, 0], [0, 0]]}},
        "checks": [{"op": "prob", "args": ["rho", "p0"], "expect": 0.5}],
    }
)
qcond.run_scene(scene)
print(repr(time.perf_counter() - start))
