"""Dense Hermitian linear algebra shared by the state and dynamics layers.

Everything here works on small complex numpy matrices (dimension capped at
``MAX_DIMENSION``); the quantum side of the laboratory is desk-scale by
design and never needs sparse or iterative methods.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Hard cap on matrix dimension accepted anywhere in the quantum layer.
MAX_DIMENSION = 64

# Tolerance for accepting a matrix as Hermitian (max entrywise |A - A^dag|).
HERMITIAN_TOL = 1e-10


def hermiticity_defect(matrix: np.ndarray) -> float:
    """Largest entrywise deviation |A - A^dag|, zero for exactly Hermitian input."""
    a = np.asarray(matrix)
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def require_square(matrix, name: str = "matrix") -> np.ndarray:
    """Return ``matrix`` as a complex square array within the dimension cap."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError(f"{name} must have dimension >= 1")
    if a.shape[0] > MAX_DIMENSION:
        raise ValueError(
            f"{name} dimension {a.shape[0]} exceeds the configured cap {MAX_DIMENSION}"
        )
    return a


def require_hermitian(matrix, name: str = "matrix", tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Validate Hermiticity and return a complex array copy.

    Rejection carries the measured asymmetry so a caller can see how far off
    the input was.
    """
    a = require_square(matrix, name)
    defect = hermiticity_defect(a)
    if defect > tol:
        raise ValueError(
            f"{name} is not Hermitian: max |A - A^dag| = {defect:.3e} exceeds {tol:.1e}"
        )
    return a.copy()


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` holds the
    matching orthonormal eigenvectors as columns of a unitary matrix.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dimension(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        """V diag(lambda) V^dag, equal to the decomposed matrix up to roundoff."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def eig_hermitian(matrix, name: str = "matrix") -> Spectrum:
    """Eigendecompose a Hermitian matrix into a :class:`Spectrum`.

    Non-Hermitian input (beyond ``HERMITIAN_TOL``) is rejected rather than
    silently symmetrized.
    """
    a = require_hermitian(matrix, name)
    eigenvalues, eigenvectors = np.linalg.eigh(a)
    return Spectrum(eigenvalues=eigenvalues, eigenvectors=eigenvectors)
