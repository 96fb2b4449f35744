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
  seed 1009, as built by ``perfbench.workloads.build``;
- ``demos/<name>.json``: what each ``demos/<name>.py`` script prints, as
  ``{"demo": ..., "stdout": [line, ...]}``, so a comparison holds every
  demo to the same bytes line by line.

Every file is strict JSON, written as ``qcond`` writes its reports (a
non-finite number is the string "NaN", "Infinity" or "-Infinity").

The benchmark's files are only read (no bytecode is written next to them).
A qcond command that fails with an error (exit status 2: an invalid scene,
a report path that cannot be written) stops the tool, which names it and
exits 1.  To compare two checkouts, write a set from each and run::

    python tools/compare_reports.py A B
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from qcond import cli  # noqa: E402
from qcond.serialize import strict_json  # noqa: E402

_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
from perfbench import workloads  # noqa: E402

sys.dont_write_bytecode = _write_bytecode

VERIFY_SEED, VERIFY_TRIALS = 7, 25
VERIFY_DIMS = ("2,3", "4,6")
SCENE_DIR = ROOT / "docs" / "scenes"
SCENES = (*sorted(SCENE_DIR.glob("*.json")), ROOT / "tests" / "scenes" / "every-op.json")
DEMOS = sorted((ROOT / "demos").glob("*.py"))
JOB_SEED = 1009
WORKLOADS = ("verify-default", "large-d", "scene-batch")


class CommandFailed(Exception):
    """A qcond command exited with status 2, an error, and wrote no report."""


def _qcond(*argv: str) -> None:
    """Run ``qcond argv`` with its stdout discarded; CommandFailed if it exits 2.

    Status 1 (a check or suite that fails) still writes its report.
    """
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(list(argv))
    if status == 2:
        raise CommandFailed(f"qcond {' '.join(argv)}")


def _demo_stdout(demo: Path) -> str:
    """What the demo script prints, run in this process as ``python demo`` runs it."""
    with contextlib.redirect_stdout(io.StringIO()) as text:
        runpy.run_path(str(demo), run_name="__main__")
    return text.getvalue()


def write_report_set(out: Path) -> int:
    """Write every report under out; the number of files written."""
    (out / "scenes").mkdir(parents=True, exist_ok=True)
    for dims in VERIFY_DIMS:
        _qcond(
            "verify", "--all", "--dims", dims, "--trials", str(VERIFY_TRIALS),
            "--seed", str(VERIFY_SEED), f"--json={out / f'verify-{dims}.json'}",
        )
    # Scenes are named relative to the checkout, so the reports' "path" field
    # is the same in every checkout.
    scene_out, cwd = out.resolve() / "scenes", os.getcwd()
    os.chdir(ROOT)
    try:
        for scene in SCENES:
            _qcond("run", str(scene.relative_to(ROOT)), f"--json={scene_out / scene.name}")
    finally:
        os.chdir(cwd)
    (out / "demos").mkdir(exist_ok=True)
    for demo in DEMOS:
        lines = _demo_stdout(demo).splitlines()
        text = strict_json({"demo": demo.name, "stdout": lines}, indent=2)
        (out / "demos" / f"{demo.stem}.json").write_text(text + "\n")
    written = len(VERIFY_DIMS) + len(SCENES) + len(DEMOS)
    for workload in WORKLOADS:
        jobs, _warmup = workloads.build(workload, JOB_SEED, SCENE_DIR)
        folder = out / "jobs" / workload
        folder.mkdir(parents=True, exist_ok=True)
        for i, job in enumerate(jobs):
            _ok, _text, payload = job.run()
            name = f"{i:03d}-{re.sub(r'[^A-Za-z0-9.,-]+', '_', job.key)}.json"
            (folder / name).write_text(strict_json(payload, indent=2, sort_keys=True) + "\n")
        written += len(jobs)
    return written


USAGE = "usage: python tools/report_set.py OUT"


def main(argv: list[str]) -> int:
    if argv in (["-h"], ["--help"]):
        print(USAGE)
        return 0
    if len(argv) != 1:
        print(USAGE, file=sys.stderr)
        return 2
    out = Path(argv[0])
    try:
        written = write_report_set(out)
    except CommandFailed as exc:
        print(f"error: {exc} exited with status 2", file=sys.stderr)
        return 1
    print(f"wrote {written} reports to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
