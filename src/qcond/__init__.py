"""Effect algebras, quantum operations, instruments, and conditioning.

The package models measurements as Kraus-family operations and instruments,
with the dual (Heisenberg) action tying together sequential products,
conditional probabilities, both Bayes rules, contextual second-order
statistics, and measurement entropies.  Every law the library exposes is
also registered as a seeded property suite (``qcond verify``), and scenario
files with frozen expected values run through ``qcond run``.

Each module's ``__all__`` is its public API, and the star imports below
republish it; ``errors``, ``scene`` and ``suites`` are imported by name.
"""

from .context_stats import *
from .core import *
from .entropy import *
from .errors import (
    DimMismatchError,
    InvalidTypeError,
    InvalidValueError,
    MissingAlphaError,
    NotCommutingFamilyError,
    NotHermitianError,
    NotJointlyCommutingError,
    NotPSDError,
    QcondError,
    RetryExhaustedError,
    SceneError,
    SceneParseError,
    SceneReferenceError,
    SceneValidationError,
    SuiteArgumentError,
    UnknownLabelError,
    UnknownSuiteError,
    ZeroProbabilityConditionError,
)
from .instruments import *
from .linalg import *
from .observables import *
from .operations import *
from .rand import *
from .scene import Scene, SceneReport, load_scene, run_scene
from .suites import DEFAULT_SEED, SUITE_NAMES, SuiteReport, run_suite

__version__ = "0.1.0"
