"""Time each property suite on its own: best wall time in a fresh process.

Usage::

    python tools/suite_times.py --dims 2,3 --trials 25 --repeat 3 [SUITE ...]

For each suite (every registered one unless some are named), a fresh Python
process with BLAS pinned to one thread imports qcond from this checkout's
``src``, calls ``run_suite(name, dims, trials, seed=7)`` ``--repeat`` times
and reports its fastest call.  The table lists the suites slowest first,
each with its share of the summed times, so it shows which suite costs the
most per trial.  Timings vary with the host; compare two checkouts on the
same machine, one after the other.

Exit status: 0 when every suite ran, 1 when one failed to run, 2 on bad input.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qcond.suites import SUITE_NAMES  # noqa: E402

SEED = 7
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Run in the fresh process: argv is name, dims, trials, repeat; prints the best seconds.
_CHILD = """
import json, sys, time
from qcond.suites import run_suite
name, dims, trials, repeat = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
dims = [int(d) for d in dims.split(",")]
best = float("inf")
for _ in range(repeat):
    start = time.perf_counter()
    run_suite(name, dims, trials, %d)
    best = min(best, time.perf_counter() - start)
print(json.dumps(best))
""" % SEED


def time_suite(name: str, dims: str, trials: int, repeat: int) -> float:
    """The best of repeat wall times, in seconds, of one suite run in a fresh process."""
    env = {**os.environ, **SINGLE_THREAD, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, name, dims, str(trials), str(repeat)],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{name}: exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def table(times: dict[str, float]) -> list[str]:
    """The printed rows: suites slowest first with milliseconds and share, then the sum."""
    total = sum(times.values())
    rows = [f"{'suite':<28} {'best ms':>9} {'share':>7}"]
    for name, seconds in sorted(times.items(), key=lambda item: -item[1]):
        share = seconds / total if total else 0.0
        rows.append(f"{name:<28} {seconds * 1e3:9.1f} {share:7.1%}")
    rows.append(f"{'sum':<28} {total * 1e3:9.1f}")
    return rows


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dims", default="2,3", help="comma-separated dims (default 2,3)")
    parser.add_argument("--trials", type=int, default=25)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("suites", nargs="*", metavar="SUITE", help="suites to time (default: all)")
    args = parser.parse_args(argv)
    unknown = [name for name in args.suites if name not in SUITE_NAMES]
    if unknown:
        parser.error(f"unknown suite(s) {', '.join(unknown)}; available: {', '.join(SUITE_NAMES)}")
    if args.repeat < 1 or args.trials < 0:
        parser.error("--repeat must be at least 1 and --trials at least 0")
    try:
        dims = [int(d) for d in args.dims.split(",")]
    except ValueError:
        parser.error(f"--dims must be comma-separated integers, got {args.dims!r}")
    if any(d < 2 for d in dims):
        parser.error("--dims must all be at least 2")

    times = {}
    try:
        for name in args.suites or SUITE_NAMES:
            times[name] = time_suite(name, args.dims, args.trials, args.repeat)
    except (OSError, ValueError, IndexError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"dims {args.dims}, {args.trials} trials, best of {args.repeat}, seed {SEED}, BLAS on 1 thread")
    print("\n".join(table(times)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
