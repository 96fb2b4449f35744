"""Exception types raised across the package.

Numerical *invariant* violations (a state that is not quite PSD, a Kraus sum
that overshoots the identity) are reported by the ``validate_*`` functions as
violation lists rather than raised — see the module docstrings.  The
exceptions here signal structural problems: inputs on which the requested
computation is not defined at all.
"""

from __future__ import annotations


class QcondError(Exception):
    """Base class for every error raised by this package."""


class InvalidValueError(QcondError, ValueError):
    """An argument has the right type but a value the computation does not accept."""


class InvalidTypeError(QcondError, TypeError):
    """An argument is of a type the computation does not accept."""


class NotHermitianError(QcondError):
    """Input matrix is not Hermitian within tolerance."""


class NotPSDError(QcondError):
    """Input matrix has an eigenvalue below -psd_tol."""


class DimMismatchError(QcondError):
    """Operands have incompatible dimensions (or a matrix is not square)."""


class NotCommutingFamilyError(QcondError):
    """A family passed to simultaneous diagonalization does not commute."""


class ZeroProbabilityConditionError(QcondError):
    """Conditioning on an effect whose probability is zero within tolerance."""


class UnknownLabelError(QcondError):
    """An outcome label is not part of the observable's outcome set."""


class MissingAlphaError(QcondError):
    """A Holevo instrument is missing the update state for some outcome."""


class NotJointlyCommutingError(QcondError):
    """Observables passed to atomic_context are not jointly commuting."""


class RetryExhaustedError(QcondError):
    """A randomized generator failed to produce a valid object in its budget."""


class UnknownSuiteError(QcondError):
    """run_suite was asked for a suite name that is not registered."""


class SuiteArgumentError(InvalidValueError):
    """run_suite was given dims below 2 or a negative trial count."""


class SceneError(QcondError):
    """Base class for scene-file problems (parse, validation, reference)."""


class SceneParseError(SceneError):
    """Scene file is not syntactically valid (JSON or literal layout)."""


class SceneValidationError(SceneError):
    """Scene object or check violates an invariant; message says which."""


class SceneReferenceError(SceneError):
    """A check or literal refers to an object name that does not exist."""
