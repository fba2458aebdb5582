"""Validation of quantum states and matrices, and the entropy functionals defined on them.

Everything here works on small dense numpy arrays validated at the boundary;
the quantum side of the laboratory is desk-scale by design (dimension capped
at ``MAX_DIMENSION``) and never needs sparse or iterative methods.
:func:`require_square` checks a matrix's shape, the cap and that every entry
is finite, and every matrix validator of the quantum layer starts from it;
:func:`require_hermitian` adds Hermiticity. A state vector is a unit-norm
complex vector, a density matrix is a Hermitian, unit-trace,
positive-semidefinite complex matrix, and a probability vector is a
nonnegative real vector summing to one. The one eigendecomposition of a
Hamiltonian is numpy's ``eigh``, taken by :class:`stosszahl.evolution.Propagator`.

The convention 0 * ln 0 = 0 is applied in exactly one place,
:func:`neg_sum_x_ln_x`, and shared by the von Neumann and Shannon entropies
so the two can never disagree on a diagonal state.
"""

from __future__ import annotations

import numpy as np

# Hard cap on matrix dimension accepted anywhere in the quantum layer.
MAX_DIMENSION = 64

# Tolerance for accepting a matrix as Hermitian (max entrywise |A - A^dag|).
HERMITIAN_TOL = 1e-10

# Unit norm / unit trace acceptance tolerance.
NORM_TOL = 1e-10

# Density-matrix eigenvalues in [-PSD_TOL, 0) are roundoff and get clamped to
# zero before logarithms; anything more negative is a genuine PSD violation.
PSD_TOL = 1e-10

# Probability entries in [-PROB_NEG_TOL, 0) are clamped to zero.
PROB_NEG_TOL = 1e-12
PROB_SUM_TOL = 1e-10


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


def require_hermitian(matrix, name: str = "matrix") -> np.ndarray:
    """Validate Hermiticity and return a complex array copy.

    Rejection carries the measured asymmetry, the largest entrywise
    |A - A^dag|, so a caller can see how far off the input was.
    """
    a = require_square(matrix, name)
    defect = float(np.max(np.abs(a - a.conj().T)))
    if defect > HERMITIAN_TOL:
        raise ValueError(
            f"{name} is not Hermitian: max |A - A^dag| = {defect:.3e} exceeds {HERMITIAN_TOL:.1e}"
        )
    return a.copy()


def as_state_vector(psi, name: str = "state") -> np.ndarray:
    """Validate and return a normalized complex state vector."""
    v = np.asarray(psi, dtype=complex).ravel()
    if v.size < 1:
        raise ValueError(f"{name} must have dimension >= 1")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} has a non-finite entry")
    norm_sq = float(np.vdot(v, v).real)
    if abs(norm_sq - 1.0) > NORM_TOL:
        raise ValueError(f"{name} is not normalized: |psi|^2 = {norm_sq!r}")
    return v.copy()


def as_density_matrix(rho, name: str = "rho") -> np.ndarray:
    """Validate Hermiticity, unit trace and positive semidefiniteness."""
    return _validated(rho, name, np.linalg.eigvalsh)[0]


def _validated(rho, name: str, eigenvalues_of) -> tuple[np.ndarray, np.ndarray]:
    """The checks of :func:`as_density_matrix`: the matrix and the ascending eigenvalues it read."""
    a = require_hermitian(rho, name)
    trace = float(np.trace(a).real)
    if abs(trace - 1.0) > NORM_TOL:
        raise ValueError(f"{name} trace is {trace!r}, expected 1")
    eigenvalues = eigenvalues_of(a)
    min_eig = float(eigenvalues[0])
    if min_eig < -PSD_TOL:
        raise ValueError(
            f"{name} is not positive semidefinite: min eigenvalue {min_eig:.3e}"
        )
    return a, eigenvalues


def suspect_density_matrices(stack: np.ndarray) -> np.ndarray:
    """Indices of the matrices of an ``(n, d, d)`` stack that may fail :func:`as_density_matrix`.

    Its three checks run stacked, with the same tolerances; a matrix that
    does not clearly pass them all (NaN included) is listed, so one not
    listed passes :func:`as_density_matrix`.
    """
    defect = np.abs(stack - stack.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    trace = np.trace(stack, axis1=-2, axis2=-1).real
    min_eig = np.linalg.eigvalsh(stack)[:, 0]
    clear = (defect <= HERMITIAN_TOL) & (abs(trace - 1.0) <= NORM_TOL) & (min_eig >= -PSD_TOL)
    return np.flatnonzero(~clear)


def as_probability_vector(p, name: str = "probabilities") -> np.ndarray:
    """Validate a probability vector, clamping tiny negative roundoff to zero."""
    v = np.asarray(p, dtype=float).ravel()
    if v.size < 1:
        raise ValueError(f"{name} must have at least one entry")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} has a non-finite entry")
    if np.min(v) < -PROB_NEG_TOL:
        raise ValueError(f"{name} has negative entry {np.min(v)!r}")
    v = np.where(v < 0.0, 0.0, v)
    total = float(v.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"{name} sums to {total!r}, expected 1")
    return v


def density_from_pure(psi) -> np.ndarray:
    """Rank-1 projector |psi><psi| of a normalized state vector."""
    v = as_state_vector(psi)
    return np.outer(v, v.conj())


def mix_states(states, probs) -> np.ndarray:
    """Statistical mixture sum_i p_i |psi_i><psi_i|.

    The component states need not be orthogonal; the result is validated as a
    density matrix before being returned.
    """
    p = as_probability_vector(probs)
    vectors = [as_state_vector(s, name=f"states[{i}]") for i, s in enumerate(states)]
    if len(vectors) != p.size:
        raise ValueError(f"{len(vectors)} states but {p.size} probabilities")
    dims = {v.size for v in vectors}
    if len(dims) != 1:
        raise ValueError(f"states have mismatched dimensions {sorted(dims)}")
    rho = np.zeros((vectors[0].size, vectors[0].size), dtype=complex)
    for weight, v in zip(p, vectors):
        rho += weight * np.outer(v, v.conj())
    return as_density_matrix(rho, name="mixture")


def purity(rho) -> float:
    """Tr(rho^2); 1 for pure states, 1/d for the maximally mixed state."""
    a = as_density_matrix(rho)
    return float(np.trace(a @ a).real)


def neg_sum_x_ln_x(values: np.ndarray) -> float:
    """-sum x ln x with the 0 ln 0 = 0 convention; roundoff-negative x count as 0.

    Only the positive values are summed, in ascending order, so the result
    depends only on the multiset of values; the Shannon entropy of p and the
    von Neumann entropy of diag(p) then agree exactly, not just to roundoff.
    """
    x = np.sort(values[values > 0.0])
    return float(-np.sum(x * np.log(x)))


def vn_entropy(rho) -> float:
    """von Neumann entropy -Tr(rho ln rho) in nats.

    Validates ``rho`` as a density matrix and returns :func:`neg_sum_x_ln_x`
    of the eigenvalues of numpy's ``eigh``; the PSD check reads the smallest
    of the eigenvalues the entropy is taken from, so one ``eigh`` does both.
    """
    eigenvalues = _validated(rho, "rho", lambda a: np.linalg.eigh(a)[0])[1]
    return neg_sum_x_ln_x(eigenvalues)


def shannon_entropy(p) -> float:
    """Shannon entropy -sum p ln p in nats, same conventions as vn_entropy."""
    v = as_probability_vector(p)
    return neg_sum_x_ln_x(v)
