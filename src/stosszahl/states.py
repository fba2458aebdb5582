"""Quantum state containers and the entropy functionals defined on them.

States are plain numpy arrays validated at the boundary: a state vector is a
unit-norm complex vector, a density matrix is a Hermitian, unit-trace,
positive-semidefinite complex matrix, and a probability vector is a
nonnegative real vector summing to one.

The convention 0 * ln 0 = 0 is applied in exactly one place,
:func:`neg_sum_x_ln_x`, and shared by the von Neumann and Shannon entropies
so the two can never disagree on a diagonal state.
"""

from __future__ import annotations

import numpy as np

from .linalg import require_hermitian

# Unit norm / unit trace acceptance tolerance.
NORM_TOL = 1e-10

# Density-matrix eigenvalues in [-PSD_TOL, 0) are roundoff and get clamped to
# zero before logarithms; anything more negative is a genuine PSD violation.
PSD_TOL = 1e-10

# Probability entries in [-PROB_NEG_TOL, 0) are clamped to zero.
PROB_NEG_TOL = 1e-12
PROB_SUM_TOL = 1e-10


def as_state_vector(psi, name: str = "state") -> np.ndarray:
    """Validate and return a normalized complex state vector."""
    v = np.asarray(psi, dtype=complex).ravel()
    if v.size < 1:
        raise ValueError(f"{name} must have dimension >= 1")
    norm_sq = float(np.vdot(v, v).real)
    if abs(norm_sq - 1.0) > NORM_TOL:
        raise ValueError(f"{name} is not normalized: |psi|^2 = {norm_sq!r}")
    return v.copy()


def as_density_matrix(rho, name: str = "rho") -> np.ndarray:
    """Validate Hermiticity, unit trace and positive semidefiniteness."""
    a = require_hermitian(rho, name)
    trace = float(np.trace(a).real)
    if abs(trace - 1.0) > NORM_TOL:
        raise ValueError(f"{name} trace is {trace!r}, expected 1")
    min_eig = float(np.linalg.eigvalsh(a)[0])
    if min_eig < -PSD_TOL:
        raise ValueError(
            f"{name} is not positive semidefinite: min eigenvalue {min_eig:.3e}"
        )
    return a


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
    """-sum x ln x with the 0 ln 0 = 0 convention, for nonnegative x.

    Summed in ascending order so the result depends only on the multiset of
    values; the Shannon entropy of p and the von Neumann entropy of diag(p)
    then agree exactly, not just to roundoff.
    """
    x = np.sort(values[values > 0.0])
    return float(-np.sum(x * np.log(x)))


def vn_entropy(rho) -> float:
    """von Neumann entropy -Tr(rho ln rho) in nats.

    Validates ``rho`` as a density matrix, then calls
    :func:`spectral_entropy`.
    """
    return spectral_entropy(as_density_matrix(rho))


def spectral_entropy(a: np.ndarray) -> float:
    """The entropy of :func:`vn_entropy`, without its validation.

    Computed from the eigenvalues of the Hermitian matrix ``a``, which is
    not checked; roundoff-negative eigenvalues are clamped to zero before
    taking logarithms.
    """
    eigenvalues, _eigenvectors = np.linalg.eigh(a)
    clamped = np.where(eigenvalues < 0.0, 0.0, eigenvalues)
    return neg_sum_x_ln_x(clamped)


def shannon_entropy(p) -> float:
    """Shannon entropy -sum p ln p in nats, same conventions as vn_entropy."""
    v = as_probability_vector(p)
    return neg_sum_x_ln_x(v)
