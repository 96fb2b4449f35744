"""Every scene op, exercised once with a hand-derived expectation.

``tests/scenes/every-op.json`` holds one check per entry of ``SCENE_OPS`` on
qubit objects.  The registry hands library results to the report unchanged,
so scalar results must already be builtin bool/float/complex: the residual
comparison rejects a ``numpy.bool_`` against a JSON boolean.
"""

import numbers
import pathlib

import numpy as np

from qcond.scene import SCENE_OPS, load_scene, run_scene

EVERY_OP = pathlib.Path(__file__).resolve().parent / "scenes" / "every-op.json"


def _call(op, args, tolerance):
    if op.takes_tol:
        return op.fn(*args, tol=tolerance)
    return op.fn(*args)


def test_every_op_has_a_check():
    scene = load_scene(EVERY_OP)
    assert {check.op for check in scene.checks} == set(SCENE_OPS)
    assert all(check.has_expect for check in scene.checks)


def test_every_op_scene_passes():
    report = run_scene(load_scene(EVERY_OP))
    failed = [(c.index, c.op, c.residual, c.error) for c in report.checks if not c.passed]
    assert report.passed, f"failed checks: {failed}"


def test_scalar_results_are_builtin():
    scene = load_scene(EVERY_OP)
    for check in scene.checks:
        value = _call(SCENE_OPS[check.op], check.args, scene.tolerance)
        scalars = list(value.values()) if isinstance(value, dict) else [value]
        for v in scalars:
            if isinstance(v, (numbers.Number, np.generic)):
                assert type(v) in (bool, float, complex), (check.op, type(v))


def test_takes_tol_follows_the_signature():
    assert SCENE_OPS["prob"].takes_tol
    assert SCENE_OPS["uncertainty_report"].takes_tol
    assert SCENE_OPS["jointly_commuting"].takes_tol
    assert not SCENE_OPS["apply"].takes_tol
    assert not SCENE_OPS["contextual_correlation"].takes_tol
    assert not SCENE_OPS["commutator_norm"].takes_tol
