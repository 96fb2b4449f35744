"""Write the determinism report set of this checkout into a directory.

Usage::

    python tools/report_set.py OUT

OUT receives, all computed from this checkout's ``src``:

- ``verify-2,3.json`` and ``verify-4,6.json``: ``qcond verify --all --json``
  at seed 7 and 25 trials, at dims 2,3 and at dims 4,6;
- ``scenes/<name>.json``: ``qcond run --json`` on each ``docs/scenes`` file
  and on ``tests/scenes/every-op.json``;
- ``jobs/<workload>/<nnn>-<key>.json``: the report of every job of the
  ``verify-default``, ``large-d`` and ``scene-batch`` benchmark workloads at
  seed 1009, as built by ``perfbench.workloads.build``.

The benchmark's files are only read (no bytecode is written next to them).
To compare two checkouts, write a set from each and run::

    python tools/compare_reports.py A B
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from qcond import cli  # noqa: E402

_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
from perfbench import workloads  # noqa: E402

sys.dont_write_bytecode = _write_bytecode

VERIFY_SEED, VERIFY_TRIALS = 7, 25
VERIFY_DIMS = ("2,3", "4,6")
SCENE_DIR = ROOT / "docs" / "scenes"
SCENES = (*sorted(SCENE_DIR.glob("*.json")), ROOT / "tests" / "scenes" / "every-op.json")
JOB_SEED = 1009
WORKLOADS = ("verify-default", "large-d", "scene-batch")


def _qcond(*argv: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))


def write_report_set(out: Path) -> int:
    """Write every report under out; the number of files written."""
    (out / "scenes").mkdir(parents=True, exist_ok=True)
    for dims in VERIFY_DIMS:
        _qcond(
            "verify", "--all", "--dims", dims, "--trials", str(VERIFY_TRIALS),
            "--seed", str(VERIFY_SEED), "--json", str(out / f"verify-{dims}.json"),
        )
    # Scenes are named relative to the checkout, so the reports' "path" field
    # is the same in every checkout.
    scene_out, cwd = out.resolve() / "scenes", os.getcwd()
    os.chdir(ROOT)
    try:
        for scene in SCENES:
            _qcond("run", str(scene.relative_to(ROOT)), "--json", str(scene_out / scene.name))
    finally:
        os.chdir(cwd)
    written = len(VERIFY_DIMS) + len(SCENES)
    for workload in WORKLOADS:
        jobs, _warmup = workloads.build(workload, JOB_SEED, SCENE_DIR)
        folder = out / "jobs" / workload
        folder.mkdir(parents=True, exist_ok=True)
        for i, job in enumerate(jobs):
            _ok, _text, payload = job.run()
            name = f"{i:03d}-{re.sub(r'[^A-Za-z0-9.,-]+', '_', job.key)}.json"
            (folder / name).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        written += len(jobs)
    return written


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/report_set.py OUT", file=sys.stderr)
        return 2
    out = Path(argv[0])
    print(f"wrote {write_report_set(out)} reports to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
