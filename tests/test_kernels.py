"""Property tests: each unchecked kernel against its validating public function.

The unitary-vs-collapse loop validates its state, Hamiltonian and basis once
and then steps through ``Propagator.evolve``, ``decohere`` and
``spectral_entropy``. On valid input these must be bit-equal to
``evolve_unitary``, ``process1`` and ``vn_entropy``, which in turn must keep
rejecting invalid input. Both must also stay bit-equal to the reference
expressions below, written out here as the package computed them before the
kernels were split off: the golden output digests depend on every last bit.
"""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stosszahl.evolution import Propagator, evolve_unitary, propagator
from stosszahl.measurement import decohere, process1
from stosszahl.states import spectral_entropy, vn_entropy

def reference_evolve(rho, h, t):
    eigenvalues, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * eigenvalues * t)) @ v.conj().T
    out = u @ rho @ u.conj().T
    return (out + out.conj().T) / 2.0


def reference_pinching(rho, basis):
    diagonal = np.einsum("ij,jk,ki->i", basis.conj().T, rho, basis).real
    diagonal = np.where(diagonal < 0.0, 0.0, diagonal)
    return (basis * diagonal) @ basis.conj().T


def reference_entropy(rho):
    eigenvalues = np.linalg.eigh(rho)[0]
    x = np.sort(eigenvalues[eigenvalues > 0.0])
    return float(-np.sum(x * np.log(x)))


dimensions = st.integers(min_value=1, max_value=8)
times = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


@st.composite
def complex_matrices(draw, d):
    entries = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
    real = draw(arrays(np.float64, (d, d), elements=entries))
    imag = draw(arrays(np.float64, (d, d), elements=entries))
    return real + 1j * imag


@st.composite
def hermitian_matrices(draw, d):
    a = draw(complex_matrices(d))
    return (a + a.conj().T) / 2.0


@st.composite
def density_matrices(draw, d):
    a = draw(complex_matrices(d))
    rho = a @ a.conj().T
    trace = np.trace(rho).real
    assume(trace > 1e-3)
    return rho / trace


@st.composite
def unitary_bases(draw, d):
    # the Householder Q factor is unitary even when the drawn matrix is singular
    q, _ = np.linalg.qr(draw(complex_matrices(d)))
    return q


@st.composite
def systems(draw):
    """One dimension's Hamiltonian, density matrix, measurement basis and time."""
    d = draw(dimensions)
    return (
        draw(hermitian_matrices(d)),
        draw(density_matrices(d)),
        draw(unitary_bases(d)),
        draw(times),
    )


# --- kernels are bit-equal to the validating functions ------------------------

@given(systems())
def test_propagator_equals_evolve_unitary(system):
    h, rho, _basis, t = system
    unitary = Propagator(h)
    expected = reference_evolve(rho, h, t)
    assert np.array_equal(unitary.evolve(rho, t), expected)
    assert np.array_equal(evolve_unitary(rho, h, t), expected)
    assert np.array_equal(unitary.unitary(t), propagator(h, t))


@given(systems())
def test_decohere_equals_process1(system):
    _h, rho, basis, _t = system
    expected = reference_pinching(rho, basis)
    assert np.array_equal(decohere(rho, basis), expected)
    assert np.array_equal(process1(rho, basis), expected)


@given(systems())
def test_spectral_entropy_equals_vn_entropy(system):
    h, rho, _basis, t = system
    for state in (rho, Propagator(h).evolve(rho, t)):
        expected = reference_entropy(state)
        assert spectral_entropy(state) == expected
        assert vn_entropy(state) == expected


# --- the validating functions still reject -----------------------------------

@given(systems(), st.floats(min_value=1e-6, max_value=1.0), st.data())
def test_process1_rejects_non_orthonormal_basis(system, excess, data):
    _h, rho, basis, _t = system
    column = data.draw(st.integers(min_value=0, max_value=basis.shape[0] - 1))
    bad = basis.copy()
    bad[:, column] *= 1.0 + excess
    with pytest.raises(ValueError, match="not orthonormal"):
        process1(rho, bad)


@given(systems(), st.floats(min_value=1e-6, max_value=1.0), st.data())
def test_evolve_unitary_rejects_non_hermitian_hamiltonian(system, excess, data):
    h, rho, _basis, t = system
    d = h.shape[0]
    i = data.draw(st.integers(min_value=0, max_value=d - 1))
    j = data.draw(st.integers(min_value=0, max_value=d - 1))
    bad = h.copy()
    bad[i, j] += excess if i != j else 1j * excess
    with pytest.raises(ValueError, match="hamiltonian is not Hermitian"):
        evolve_unitary(rho, bad, t)


@given(systems(), st.floats(min_value=1e-6, max_value=1.0), st.booleans())
def test_vn_entropy_rejects_wrong_trace(system, excess, above):
    _h, rho, _basis, _t = system
    scale = 1.0 + excess if above else 1.0 - excess / 2.0
    with pytest.raises(ValueError, match="trace"):
        vn_entropy(scale * rho)
    with pytest.raises(ValueError, match="trace"):
        process1(scale * rho, np.eye(rho.shape[0]))


@given(systems(), st.floats(min_value=1e-6, max_value=1.0))
def test_vn_entropy_rejects_negative_eigenvalue(system, depth):
    _h, rho, _basis, _t = system
    assume(rho.shape[0] >= 2)  # a unit-trace 1 x 1 state is always positive
    eigenvalues, v = np.linalg.eigh(rho)
    # move weight from the smallest eigenvalue to the largest: the trace stays
    # 1 and the smallest becomes -depth
    shift = eigenvalues[0] + depth
    eigenvalues[0] -= shift
    eigenvalues[-1] += shift
    bad = (v * eigenvalues) @ v.conj().T
    with pytest.raises(ValueError, match="not positive semidefinite"):
        vn_entropy(bad)
    with pytest.raises(ValueError, match="not positive semidefinite"):
        evolve_unitary(bad, np.eye(rho.shape[0]), 1.0)
