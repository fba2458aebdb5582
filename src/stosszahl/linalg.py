"""Validation of the dense complex matrices shared by the state and dynamics layers.

Everything here works on small complex numpy matrices (dimension capped at
``MAX_DIMENSION``); the quantum side of the laboratory is desk-scale by
design and never needs sparse or iterative methods. :func:`require_square`
checks the shape, the cap and that every entry is finite, and every matrix
validator of the quantum layer starts from it; :func:`require_hermitian`
adds Hermiticity. The one eigendecomposition of a Hamiltonian is numpy's
``eigh``, taken by :class:`stosszahl.evolution.Propagator`.
"""

from __future__ import annotations

import numpy as np

# Hard cap on matrix dimension accepted anywhere in the quantum layer.
MAX_DIMENSION = 64

# Tolerance for accepting a matrix as Hermitian (max entrywise |A - A^dag|).
HERMITIAN_TOL = 1e-10


def require_square(matrix, name: str = "matrix") -> np.ndarray:
    """Return ``matrix`` as a finite complex square array within the dimension cap."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError(f"{name} must have dimension >= 1")
    if a.shape[0] > MAX_DIMENSION:
        raise ValueError(
            f"{name} dimension {a.shape[0]} exceeds the configured cap {MAX_DIMENSION}"
        )
    # Every comparison with NaN is false, so a later tolerance check would pass it.
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has a non-finite entry")
    return a


def require_hermitian(matrix, name: str = "matrix", tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Validate Hermiticity and return a complex array copy.

    Rejection carries the measured asymmetry, the largest entrywise
    |A - A^dag|, so a caller can see how far off the input was.
    """
    a = require_square(matrix, name)
    defect = float(np.max(np.abs(a - a.conj().T)))
    if defect > tol:
        raise ValueError(
            f"{name} is not Hermitian: max |A - A^dag| = {defect:.3e} exceeds {tol:.1e}"
        )
    return a.copy()
