import numpy as np
import pytest

from stosszahl.linalg import (
    MAX_DIMENSION,
    Spectrum,
    eig_hermitian,
    hermiticity_defect,
    require_hermitian,
)


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


def test_identity_eigenvalues():
    spectrum = eig_hermitian(np.eye(3))
    assert np.allclose(spectrum.eigenvalues, [1.0, 1.0, 1.0])


def test_diagonal_already_sorted_ascending():
    spectrum = eig_hermitian(np.diag([2.0, -1.0]))
    assert np.allclose(spectrum.eigenvalues, [-1.0, 2.0])


def test_pauli_x_form_eigenvalues():
    # characteristic polynomial lambda^2 - 1 = 0
    spectrum = eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(spectrum.eigenvalues, [-1.0, 1.0], atol=1e-12)


def test_non_hermitian_rejected_with_diagnostic():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        eig_hermitian(bad)
    assert hermiticity_defect(bad) == 1.0


def test_reconstruction_and_unitarity():
    rng = np.random.default_rng(42)
    for d in (1, 2, 5, 8, 16):
        a = random_hermitian(rng, d)
        spectrum = eig_hermitian(a)
        assert np.all(np.diff(spectrum.eigenvalues) >= 0)
        assert np.max(np.abs(spectrum.reconstruct() - a)) < 1e-8
        v = spectrum.eigenvectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(d))) < 1e-8


def test_dimension_cap_enforced():
    ok = np.eye(MAX_DIMENSION)
    assert eig_hermitian(ok).dimension == MAX_DIMENSION
    with pytest.raises(ValueError, match="cap"):
        eig_hermitian(np.eye(MAX_DIMENSION + 1))


def test_non_square_rejected():
    with pytest.raises(ValueError, match="square"):
        require_hermitian(np.zeros((2, 3)))


def test_spectrum_is_frozen():
    spectrum = eig_hermitian(np.eye(2))
    assert isinstance(spectrum, Spectrum)
    with pytest.raises(AttributeError):
        spectrum.eigenvalues = np.zeros(2)

