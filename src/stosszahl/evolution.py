"""Unitary (entropy-conserving) dynamics in natural units (hbar = 1).

The propagator U = exp(-iHt) is built by spectral decomposition of the
Hamiltonian: exact on Hermitian input, unitary by construction, and with no
series-truncation error. States evolve as U rho U^dag; observables evolve
with the opposite sign, U^dag O U, so that Tr(rho(t) O) = Tr(rho O(t)).

:class:`Propagator` validates and decomposes one Hamiltonian once and then
steps states without further checks; the functions below validate their
arguments on every call and then use it.
"""

from __future__ import annotations

import numpy as np

from .linalg import eig_hermitian, require_hermitian
from .states import as_density_matrix


class Propagator:
    """exp(-iHt) for one Hamiltonian, from a spectrum computed once.

    The constructor checks that the Hamiltonian is square, Hermitian and
    within the dimension cap, and eigendecomposes it. :meth:`unitary` and
    :meth:`evolve` then only form phases and multiply: they do not check
    their arguments, so a loop that steps one state many times pays the
    validation and the decomposition once.
    """

    def __init__(self, hamiltonian):
        spectrum = eig_hermitian(hamiltonian, name="hamiltonian")
        self.eigenvalues = spectrum.eigenvalues
        self.eigenvectors = spectrum.eigenvectors
        self._eigenvectors_dag = spectrum.eigenvectors.conj().T

    @property
    def shape(self) -> tuple[int, int]:
        return self.eigenvectors.shape

    def unitary(self, t: float) -> np.ndarray:
        """U(t) = V exp(-i Lambda t) V^dag."""
        phases = np.exp(-1j * self.eigenvalues * t)
        return (self.eigenvectors * phases) @ self._eigenvectors_dag

    def evolve(self, a: np.ndarray, t: float) -> np.ndarray:
        """U(t) a U(t)^dag for a complex matrix ``a`` of the Hamiltonian's shape.

        ``a`` is not validated; the result is re-symmetrized, which keeps
        the Hermiticity invariant tight against roundoff.
        """
        u = self.unitary(t)
        out = u @ a @ u.conj().T
        return (out + out.conj().T) / 2.0


def propagator(hamiltonian, t: float) -> np.ndarray:
    """Unitary exp(-iHt) via eigendecomposition of the Hamiltonian."""
    return Propagator(hamiltonian).unitary(t)


def evolve_unitary(rho, hamiltonian, t: float) -> np.ndarray:
    """Evolve a density matrix for time t under a Hamiltonian.

    Preserves the eigenvalue multiset of rho, hence trace, purity and
    von Neumann entropy. Negative t runs the reversible dynamics backwards.
    """
    a = as_density_matrix(rho)
    unitary = Propagator(hamiltonian)
    if unitary.shape != a.shape:
        raise ValueError(f"dimension mismatch: rho {a.shape} vs hamiltonian {unitary.shape}")
    return unitary.evolve(a, t)


def evolve_observable(observable, hamiltonian, t: float) -> np.ndarray:
    """Evolve an observable for time t (adjoint action, sign opposite to states)."""
    o = require_hermitian(observable, name="observable")
    unitary = Propagator(hamiltonian)
    if unitary.shape != o.shape:
        raise ValueError(
            f"dimension mismatch: observable {o.shape} vs hamiltonian {unitary.shape}"
        )
    u = unitary.unitary(t)
    out = u.conj().T @ o @ u
    return (out + out.conj().T) / 2.0
