import json

import numpy as np
import pytest

from qcond import Tolerance


@pytest.fixture
def tol():
    return Tolerance()


@pytest.fixture
def strict_loads():
    """json.loads that raises on NaN, Infinity and -Infinity, which JSON does not define."""

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return lambda text: json.loads(text, parse_constant=reject)


@pytest.fixture
def qubit():
    """The standard qubit zoo: projections, |+>/|-> and the Pauli matrices."""
    P0 = np.diag([1.0, 0.0]).astype(complex)
    P1 = np.diag([0.0, 1.0]).astype(complex)
    plus = np.full((2, 2), 0.5, dtype=complex)
    minus = np.eye(2, dtype=complex) - plus
    X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    Z = np.diag([1.0, -1.0]).astype(complex)
    return {"P0": P0, "P1": P1, "plus": plus, "minus": minus, "X": X, "Z": Z}
