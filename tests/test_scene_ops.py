"""Every scene op, exercised once with a hand-derived expectation.

``tests/scenes/every-op.json`` holds one check per entry of ``SCENE_OPS`` on
qubit objects.  The registry hands library results to the report unchanged,
so scalar results must already be builtin bool/float/complex, and each
result must be of the kind its row declares: the expectation is parsed into
that kind at load, and the kind's distance is all the runner compares with.
"""

import numbers
import pathlib

import numpy as np

from qcond import BayesTriple, Instrument, Operation, SubObservable
from qcond.errors import SceneValidationError
from qcond.scene import SCENE_OPS, SceneObject, _coerce_arg, load_scene, run_scene
from qcond.serialize import value_to_json

EVERY_OP = pathlib.Path(__file__).resolve().parent / "scenes" / "every-op.json"


def _call(op, args, tolerance):
    if op.takes_tol:
        return op.fn(*args, tol=tolerance)
    return op.fn(*args)


def test_every_op_has_a_check():
    scene = load_scene(EVERY_OP)
    assert {check.op for check in scene.checks} == set(SCENE_OPS)
    assert all(check.want is not None for check in scene.checks)


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


def test_every_declared_argument_kind_is_read():
    # An argument kind _coerce_arg does not read fails with a KeyError, not a scene error.
    objects = {"rho": SceneObject("rho", "state", np.eye(2) / 2)}
    for kind in {kind for op in SCENE_OPS.values() for kind in op.kinds}:
        try:
            _coerce_arg(kind, "rho", "check", objects)
        except SceneValidationError:
            pass  # read, and refused: a state is no argument of this kind


def test_takes_tol_follows_the_signature():
    assert SCENE_OPS["prob"].takes_tol
    assert SCENE_OPS["uncertainty_report"].takes_tol
    assert SCENE_OPS["jointly_commuting"].takes_tol
    assert not SCENE_OPS["apply"].takes_tol
    assert not SCENE_OPS["contextual_correlation"].takes_tol
    assert not SCENE_OPS["commutator_norm"].takes_tol


def _numeric_fields(value) -> bool:
    fields = value_to_json(value)
    return isinstance(fields, dict) and all(
        type(v) is float or (isinstance(v, list) and [type(x) for x in v] == [float, float])
        for v in fields.values()
    )


_IS_KIND = {
    "real": lambda v, d: type(v) is float,
    "complex": lambda v, d: type(v) is complex,
    "bool": lambda v, d: type(v) is bool,
    "matrix": lambda v, d: isinstance(v, np.ndarray) and v.shape == (d, d),
    "operation": lambda v, d: isinstance(v, Operation) and v.dim == d,
    "observable": lambda v, d: isinstance(v, SubObservable) and v.dim == d,
    "instrument": lambda v, d: isinstance(v, Instrument) and v.dim == d,
    "record": lambda v, d: not isinstance(v, BayesTriple) and _numeric_fields(v),
    "Bayes triple": lambda v, d: isinstance(v, BayesTriple) and _numeric_fields(v),
}


def test_declared_result_kinds_match_values():
    # The runner trusts the row's kind; a row that lies would compare a result
    # with a distance made for another kind.
    scene = load_scene(EVERY_OP)
    assert {op.result.name for op in SCENE_OPS.values()} == set(_IS_KIND)
    for check in scene.checks:
        kind = SCENE_OPS[check.op].result.name
        value = _call(SCENE_OPS[check.op], check.args, scene.tolerance)
        assert _IS_KIND[kind](value, 2), (check.op, kind, type(value))
