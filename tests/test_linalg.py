import math

import numpy as np
import pytest

from stosszahl.evolution import Propagator, evolve_observable, evolve_unitary
from stosszahl.measurement import as_measurement_basis, process1
from stosszahl.states import MAX_DIMENSION, as_density_matrix, require_hermitian, vn_entropy

# The eigendecomposition of a Hamiltonian is Propagator's: its constructor
# validates with require_hermitian and keeps numpy's eigh of the result.


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


def test_identity_eigenvalues():
    assert np.allclose(Propagator(np.eye(3)).eigenvalues, [1.0, 1.0, 1.0])


def test_diagonal_already_sorted_ascending():
    assert np.allclose(Propagator(np.diag([2.0, -1.0])).eigenvalues, [-1.0, 2.0])


def test_pauli_x_form_eigenvalues():
    # characteristic polynomial lambda^2 - 1 = 0
    propagator = Propagator(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(propagator.eigenvalues, [-1.0, 1.0], atol=1e-12)


def test_non_hermitian_rejected_with_diagnostic():
    # the message carries the measured max |A - A^dag| and the tolerance
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(
        ValueError,
        match=r"^hamiltonian is not Hermitian: max \|A - A\^dag\| = 1\.000e\+00 exceeds 1\.0e-10$",
    ):
        Propagator(bad)
    with pytest.raises(ValueError, match=r"max \|A - A\^dag\| = 2\.500e-01 exceeds"):
        require_hermitian(np.array([[0.0, 0.5], [0.25, 0.0]]))


def test_reconstruction_and_unitarity():
    rng = np.random.default_rng(42)
    for d in (1, 2, 5, 8, 16):
        a = random_hermitian(rng, d)
        propagator = Propagator(a)
        assert np.all(np.diff(propagator.eigenvalues) >= 0)
        v = propagator.eigenvectors
        assert np.max(np.abs((v * propagator.eigenvalues) @ v.conj().T - a)) < 1e-8
        assert np.max(np.abs(v.conj().T @ v - np.eye(d))) < 1e-8
        # the same bits as numpy's eigh of the validated copy
        eigenvalues, eigenvectors = np.linalg.eigh(require_hermitian(a))
        assert propagator.eigenvalues.tobytes() == eigenvalues.tobytes()
        assert propagator.eigenvectors.tobytes() == eigenvectors.tobytes()


def test_dimension_cap_enforced():
    assert Propagator(np.eye(MAX_DIMENSION)).shape == (MAX_DIMENSION, MAX_DIMENSION)
    with pytest.raises(ValueError, match=f"hamiltonian dimension {MAX_DIMENSION + 1} exceeds"):
        Propagator(np.eye(MAX_DIMENSION + 1))


def test_non_square_rejected():
    with pytest.raises(ValueError, match="square"):
        require_hermitian(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="hamiltonian must be square"):
        Propagator(np.zeros((2, 3)))


def with_entry(matrix, index, value):
    """A complex copy of ``matrix`` with ``value`` at ``index``."""
    out = np.array(matrix, dtype=complex)
    out[index] = value
    return out


QUBIT_H = np.array([[1.0, 0.0], [0.0, 0.0]])
MIXED = np.eye(2) / 2


# Each call puts the bad value in one entry of an otherwise valid argument;
# every tolerance comparison with NaN is false, so each passed, or failed
# with another message, before require_square checked finiteness.
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda v: require_hermitian(with_entry(QUBIT_H, (0, 1), v)), "matrix"),
        (lambda v: as_density_matrix(with_entry(MIXED, (0, 0), v)), "rho"),
        (lambda v: as_measurement_basis(with_entry(np.eye(2), (1, 1), v)), "basis"),
        (lambda v: Propagator(with_entry(QUBIT_H, (0, 1), v)), "hamiltonian"),
        (lambda v: evolve_unitary(MIXED, with_entry(QUBIT_H, (1, 1), v), 1.0), "hamiltonian"),
        (lambda v: evolve_unitary(with_entry(MIXED, (1, 0), v), QUBIT_H, 1.0), "rho"),
        (lambda v: evolve_observable(with_entry(QUBIT_H, (0, 0), v), QUBIT_H, 1.0), "observable"),
        (lambda v: process1(MIXED, with_entry(np.eye(2), (0, 1), v)), "basis"),
        (lambda v: vn_entropy(with_entry(MIXED, (0, 1), v)), "rho"),
    ],
    ids=[
        "require_hermitian", "as_density_matrix", "as_measurement_basis", "Propagator",
        "evolve_unitary-hamiltonian", "evolve_unitary-rho", "evolve_observable", "process1",
        "vn_entropy",
    ],
)
def test_non_finite_matrix_entries_are_rejected(call, name, value):
    with pytest.raises(ValueError, match=f"^{name} has a non-finite entry$"):
        call(value)
