"""The benchmark harness still runs against the library.

One tiny traced `large-d` run: the tracer wraps the public qcond functions
and reads Kraus counts from `len(op.kraus)`, so it breaks if the operation
representation or the traced API drifts from what it expects.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_perfbench_large_d_tiny_traced_run():
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", "large-d",
        "--seed", "1", "--seconds", "1", "--trace", "1", "--tiny",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
