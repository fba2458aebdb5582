"""Unitary (entropy-conserving) dynamics in natural units (hbar = 1).

The propagator U = exp(-iHt) is built by spectral decomposition of the
Hamiltonian (``numpy.linalg.eigh``, ascending eigenvalues and unitary
eigenvectors): exact on Hermitian input, unitary by construction, and with no
series-truncation error. States evolve as U rho U^dag; observables evolve
with the opposite sign, U^dag O U, so that Tr(rho(t) O) = Tr(rho O(t)).

:class:`Propagator` validates and decomposes one Hamiltonian once and then
steps states without further checks; the functions below validate their
arguments on every call and then use it. They keep the :class:`Propagator`
of the last Hamiltonian they were given and reuse it while the next one is
bit-equal, so a caller that passes one Hamiltonian many times pays its
validation and decomposition once.
"""

from __future__ import annotations

import numpy as np

from .states import as_density_matrix, require_hermitian


class Propagator:
    """exp(-iHt) for one Hamiltonian, from a spectrum computed once.

    The constructor checks that the Hamiltonian is square, finite, Hermitian
    and within the dimension cap, and eigendecomposes it. :meth:`unitary` and
    :meth:`evolve` then only form phases and multiply: they do not check
    their arguments, so a loop that steps one state many times pays the
    validation and the decomposition once.
    """

    def __init__(self, hamiltonian):
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(
            require_hermitian(hamiltonian, "hamiltonian")
        )
        self._eigenvectors_dag = self.eigenvectors.conj().T

    @property
    def shape(self) -> tuple[int, int]:
        return self.eigenvectors.shape

    def unitary(self, t) -> np.ndarray:
        """U(t) = V exp(-i Lambda t) V^dag; a ``(...,)`` array of times gives ``(..., d, d)``."""
        phases = np.exp(-1j * self.eigenvalues * np.asarray(t)[..., None])
        return (self.eigenvectors * phases[..., None, :]) @ self._eigenvectors_dag

    def evolve(self, a: np.ndarray, t) -> np.ndarray:
        """U(t) a U(t)^dag for complex matrices ``a`` of the Hamiltonian's shape.

        ``a`` is one ``(d, d)`` matrix or a ``(..., d, d)`` stack, and ``t``
        a scalar or one time per matrix; each matrix of a stack comes out
        bit-equal to its own 2-D call. ``a`` is not validated; the result is
        re-symmetrized, which keeps the Hermiticity invariant tight against
        roundoff.
        """
        u = self.unitary(t)
        return apply_unitary(u, u.conj().swapaxes(-1, -2), a)


def apply_unitary(u: np.ndarray, u_dagger: np.ndarray, a: np.ndarray) -> np.ndarray:
    """u a u^dag, re-symmetrized: :meth:`Propagator.evolve` with U formed by the caller.

    ``u_dagger`` is ``u.conj().swapaxes(-1, -2)``; a loop that steps by one
    time forms both once and gets the bits of ``evolve`` at every step.
    """
    out = u @ a @ u_dagger
    return (out + out.conj().swapaxes(-1, -2)) / 2.0


# (shape and bytes of the complex Hamiltonian, its Propagator) of the last
# Hamiltonian the functions below were given.
_last_propagator = (None, None)


def _propagator_of(hamiltonian) -> Propagator:
    """The Propagator of ``hamiltonian``, reused when it is bit-equal to the last one.

    A miss validates and decomposes it as ``Propagator`` does; a Hamiltonian
    that fails validation is never kept.
    """
    global _last_propagator
    h = np.asarray(hamiltonian, dtype=complex)
    key = (h.shape, h.tobytes())
    if _last_propagator[0] != key:
        _last_propagator = (key, Propagator(h))
    return _last_propagator[1]


def propagator(hamiltonian, t: float) -> np.ndarray:
    """Unitary exp(-iHt) via eigendecomposition of the Hamiltonian."""
    return _propagator_of(hamiltonian).unitary(t)


def evolve_unitary(rho, hamiltonian, t: float) -> np.ndarray:
    """Evolve a density matrix for time t under a Hamiltonian.

    Preserves the eigenvalue multiset of rho, hence trace, purity and
    von Neumann entropy. Negative t runs the reversible dynamics backwards.
    """
    a = as_density_matrix(rho)
    unitary = _propagator_of(hamiltonian)
    if unitary.shape != a.shape:
        raise ValueError(f"dimension mismatch: rho {a.shape} vs hamiltonian {unitary.shape}")
    return unitary.evolve(a, t)


def evolve_observable(observable, hamiltonian, t: float) -> np.ndarray:
    """Evolve an observable for time t (adjoint action, sign opposite to states)."""
    o = require_hermitian(observable, name="observable")
    unitary = _propagator_of(hamiltonian)
    if unitary.shape != o.shape:
        raise ValueError(
            f"dimension mismatch: observable {o.shape} vs hamiltonian {unitary.shape}"
        )
    u = unitary.unitary(t)
    return apply_unitary(u.conj().T, u, o)
