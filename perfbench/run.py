"""qcond benchmark: one workload, one seed, timed or traced.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload large-d --seed 1 --seconds 40 --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics; see perfbench/README.md.  Each metric is printed by name with its
unit, followed by a details line (environment, tail percentile, failure
ratio, which metrics are exact counts) and, as the last line, the result
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--tiny`` shrinks
every job list to a smoke-test size.

The workload runs in a fresh worker process with BLAS pinned to one thread;
set-up time is the median of several further fresh processes.  The exit
code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-default", "large-d", "scene-batch")
#: Set-up probes before and after the workload process; their median is
#: setup_s.  Splitting them spreads the samples over the run.
SETUP_PROBES = (4, 5)
DEADLINE_S = 170.0

SINGLE_THREAD = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "job_ms_p50": "ms",
    "job_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "operations.madds":
        return "madd"
    if name == "suites.witness_ratio":
        return "ratio"
    return "count"


def child_env() -> dict:
    return {**os.environ, **SINGLE_THREAD}


def run_child(args: list[str], deadline: float) -> str:
    """Run a python child to completion (killed at the deadline); its stdout."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("benchmark deadline passed")
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=remaining,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited with code {proc.returncode}")
    return proc.stdout


def setup_samples(probes: int, deadline: float) -> list[float]:
    """Set-up seconds of fresh processes, one sample per process."""
    probe = str(HERE / "setup_probe.py")
    return [float(run_child([probe], deadline).strip().splitlines()[-1]) for _ in range(probes)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="smoke-test job sizes")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    missing = [
        str(p.relative_to(ROOT))
        for p in (ROOT / "src" / "qcond" / "__init__.py", ROOT / "docs" / "scenes")
        if not p.exists()
    ]
    if missing:
        print(f"error: not a qcond checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    before, after = (1, 1) if args.tiny else SETUP_PROBES
    try:
        setup = []
        if args.trace == 0:
            setup_samples(1, deadline)  # fills the bytecode cache; not a sample
            setup += setup_samples(before, deadline)
        worker_args = [
            str(HERE / "worker.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--tiny"] if args.tiny else [])
        out = json.loads(run_child(worker_args, deadline).strip().splitlines()[-1])
        if args.trace == 0:
            setup += setup_samples(after, deadline)
    except (OSError, ValueError, IndexError, RuntimeError, TimeoutError,
            subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = out["attempted"], out["failed"]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": out["environment"],
        "jobs_per_pass": out["jobs_per_pass"],
        "fail_ratio": {"value": failed / attempted, "unit": "ratio"},
        "failed_jobs": out["failed_jobs"],
    }
    correct = failed == 0
    if args.trace == 0:
        timed = out["timed"]
        values = {name: timed[name] for name in END_TO_END_UNITS if name != "setup_s"}
        values["setup_s"] = statistics.median(setup)
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END_UNITS.items()}
        details.update(
            pass_wall_s=timed["pass_wall_s"],
            job_ms_tail_percentile=timed["tail_percentile"],
            setup_samples_s=setup,
        )
    else:
        traced = out["traced"]
        metrics = {
            n: {"value": v, "unit": per_layer_unit(n)} for n, v in traced["metrics"].items()
        }
        details.update(
            spans=traced["spans"],
            exact_counts=traced["exact"],
            exact_counts_reproduced=not traced["exact_unstable"],
            computed_counts=["operations.madds"],
        )
        correct = correct and not traced["exact_unstable"]

    for name, m in metrics.items():
        print(f"{name:<48} {m['value']:>18.6g} {m['unit']}")
    print(f"{'fail_ratio':<48} {failed / attempted:>18.6g} ratio")
    print("details " + json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
