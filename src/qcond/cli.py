"""Command-line front end: validate scene files, run them, run property suites.

Subcommands::

    qcond validate SCENE [SCENE...]          load each scene: objects, ops, expectations
    qcond run SCENE [--tol T] [--json OUT]   execute a scene's checks
    qcond verify [SUITE...] [--all] [--dims 2,3] [--trials N] [--seed S] [--json OUT]

``validate`` loads a scene as ``run`` does, without running its checks: it
rejects malformed or invalid objects, ops, arguments and expectations (each
expectation is parsed into its op's result kind).  Only what needs a
computed value, a record's field names or a result's outcome labels, is left
to ``run``.

Exit codes: 0 all passed, 1 at least one check/suite failed, 2 bad input
(usage errors, malformed or invalid scenes, unknown suites, a malformed
QCOND_SEED, a --json path that cannot be written).  The seed
defaults to the QCOND_SEED environment variable when set, otherwise 7;
--seed always wins.  All reports are deterministic in (inputs, seed).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from .errors import InvalidValueError, QcondError, SceneError, UnknownSuiteError
from .scene import load_scene, run_scene
from .serialize import strict_json
from .suites import DEFAULT_SEED, SUITE_NAMES, run_suite

__all__ = ["main"]


def _parse_dims(text: str) -> list[int]:
    try:
        dims = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"dims must be comma-separated integers, got {text!r}")
    if not dims or any(d < 2 for d in dims):
        raise argparse.ArgumentTypeError("dims must be integers >= 2")
    return dims


def _parse_trials(text: str) -> int:
    try:
        trials = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"trials must be an integer, got {text!r}")
    if trials < 1:
        raise argparse.ArgumentTypeError("trials must be an integer >= 1")
    return trials


def _parse_tol(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"tol must be a number, got {text!r}")
    if not 0.0 < tol < math.inf:  # also false for NaN
        raise argparse.ArgumentTypeError("tol must be a positive finite number")
    return tol


def _default_seed() -> int:
    raw = os.environ.get("QCOND_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise InvalidValueError(f"QCOND_SEED must be an integer, got {raw!r}") from None


def _write_json(path: str, payload: dict) -> None:
    try:
        Path(path).write_text(strict_json(payload, indent=2) + "\n")
    except OSError as exc:
        raise InvalidValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcond",
        description="Verification tools for effect algebras, instruments and conditioning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check scene files without running them")
    p_validate.add_argument("scenes", nargs="+", metavar="SCENE")

    p_run = sub.add_parser("run", help="execute a scene's checks")
    p_run.add_argument("scene", metavar="SCENE")
    p_run.add_argument("--tol", type=_parse_tol, default=None, help="default check tolerance")
    p_run.add_argument("--json", dest="json_out", metavar="PATH", help="write the JSON report")

    p_verify = sub.add_parser("verify", help="run property suites")
    p_verify.add_argument("suites", nargs="*", metavar="SUITE", help=f"one of: {', '.join(SUITE_NAMES)}")
    p_verify.add_argument("--all", action="store_true", help="run every registered suite")
    p_verify.add_argument("--dims", type=_parse_dims, default=[2, 3], help="comma-separated dimensions")
    p_verify.add_argument("--trials", type=_parse_trials, default=25, help="trials per dimension")
    p_verify.add_argument("--seed", type=int, default=None, help="root seed (default: QCOND_SEED or 7)")
    p_verify.add_argument("--json", dest="json_out", metavar="PATH", help="write the JSON report")
    return parser


def _cmd_validate(args) -> int:
    status = 0
    for path in args.scenes:
        try:
            scene = load_scene(path)
        except SceneError as exc:
            print(f"invalid {path}: {exc}", file=sys.stderr)
            status = 2
            continue
        print(f"ok {path} ({len(scene.objects)} objects, {len(scene.checks)} checks)")
    return status


def _cmd_run(args) -> int:
    try:
        scene = load_scene(args.scene)
        report = run_scene(scene, default_tol=args.tol)
    except SceneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for r in report.checks:
        status = "pass" if r.passed else "FAIL"
        bits = [f"[{status}] #{r.index} {r.op}"]
        if r.label:
            bits.append(f"({r.label})")
        if r.error is not None:
            bits.append(f"error: {r.error}")
        else:
            bits.append(f"residual {r.residual:.2e}")
        print(" ".join(bits))
    failed = sum(1 for r in report.checks if not r.passed)
    tail = "" if failed == 0 else f" ({failed} failed)"
    print(f"scene {report.scene}: {len(report.checks) - failed}/{len(report.checks)} checks passed{tail}")
    if args.json_out:
        _write_json(args.json_out, report.to_json())
    return 0 if report.passed else 1


def _cmd_verify(args) -> int:
    if args.all and args.suites:
        print("error: give suite names or --all, not both", file=sys.stderr)
        return 2
    names = list(SUITE_NAMES) if (args.all or not args.suites) else args.suites
    seed = _default_seed() if args.seed is None else args.seed
    reports = []
    for name in names:
        try:
            report = run_suite(name, dims=args.dims, trials=args.trials, seed=seed)
        except UnknownSuiteError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        reports.append(report)
        status = "pass" if report.ok else "FAIL"
        line = (
            f"[{status}] {report.suite}: {report.passes}/{report.trials} trials, "
            f"max residual {report.max_residual:.2e}"
        )
        if report.witnesses:
            line += f", {len(report.witnesses)} witnesses"
        if report.failures:
            line += f", {len(report.failures)} failures"
        if report.missing:
            line += f", missing {', '.join(report.missing)}"
        print(line)
        for note in report.notes:
            print(f"    note: {note}")
    ok = all(r.ok for r in reports)
    print(f"verify: {sum(r.ok for r in reports)}/{len(reports)} suites passed (seed {seed})")
    if args.json_out:
        payload = {
            "seed": seed,
            "dims": list(args.dims),
            "trials": args.trials,
            "passed": ok,
            "suites": [r.to_json() for r in reports],
        }
        _write_json(args.json_out, payload)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_verify(args)
    except QcondError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
