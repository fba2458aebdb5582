"""Property tests: each unchecked kernel against its validating public function.

The unitary-vs-collapse loop validates its state, Hamiltonian and basis once
and then steps through ``Propagator.evolve`` and ``decohere``; its per-member
reference in ``collapse_oracle`` also takes the unvalidated
``spectral_entropy``. On valid input these must be bit-equal to
``evolve_unitary``, ``process1`` and ``vn_entropy``, which in turn must keep
rejecting invalid input. Both must also stay bit-equal to the reference
expressions below and ``where_pinching`` in ``collapse_oracle``, written out
as the package computed them before the kernels were split off: the golden
output digests depend on every last bit.
The scenario's lockstep ensemble stacks states, so a stacked
``Propagator.evolve`` and the scenario's stacked qubit entropy must equal
the 2-D calls on each matrix of the stack, bit for bit (the entropy of a
stack also the concatenated entropies of its parts), and so must
``apply_unitary`` with a U formed once, which the scenario's unitary branch
steps with. ``decohere`` clamps negative roundoff in place; it must equal the
``np.where`` form bit for bit, signs of zero and NaNs included, for d = 1..64.
"""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from collapse_oracle import spectral_entropy, where_pinching
from stosszahl.evolution import Propagator, apply_unitary, evolve_unitary, propagator
from stosszahl.measurement import decohere, process1
from stosszahl.scenarios import _qubit_entropies
from stosszahl.states import vn_entropy

def reference_evolve(rho, h, t):
    eigenvalues, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * eigenvalues * t)) @ v.conj().T
    out = u @ rho @ u.conj().T
    return (out + out.conj().T) / 2.0


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
    expected = where_pinching(rho, basis)
    assert np.array_equal(decohere(rho, basis), expected)
    assert np.array_equal(process1(rho, basis), expected)


@given(systems())
def test_spectral_entropy_equals_vn_entropy(system):
    h, rho, _basis, t = system
    for state in (rho, Propagator(h).evolve(rho, t)):
        expected = reference_entropy(state)
        assert spectral_entropy(state) == expected
        assert vn_entropy(state) == expected


# --- stacked kernels are bit-equal to the 2-D calls ----------------------------

@st.composite
def stacks(draw):
    """A Hamiltonian of dimension 1..64, a stack of matrices of its shape, one time each."""
    d = draw(st.integers(min_value=1, max_value=64))
    n = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    stack = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    return (a + a.conj().T) / 2.0, stack, draw(st.lists(times, min_size=n, max_size=n))


@given(stacks())
def test_stacked_evolve_equals_the_2d_call(system):
    h, stack, ts = system
    unitary = Propagator(h)
    per_matrix = unitary.evolve(stack, np.array(ts))
    shared = unitary.evolve(stack, ts[0])
    one_state = unitary.evolve(stack[0], np.array(ts))
    for a, t, each, same, first in zip(stack, ts, per_matrix, shared, one_state):
        assert np.array_equal(each, unitary.evolve(a, t))
        assert np.array_equal(same, unitary.evolve(a, ts[0]))
        assert np.array_equal(first, unitary.evolve(stack[0], t))
    assert np.array_equal(unitary.unitary(np.array(ts)), [unitary.unitary(t) for t in ts])


@given(stacks())
def test_apply_unitary_equals_evolve(system):
    h, stack, ts = system
    unitary = Propagator(h)
    for t in (ts[0], np.array(ts)):
        # formed once, as the unitary branch of unitary-vs-collapse forms it
        u = unitary.unitary(t)
        u_dagger = u.conj().swapaxes(-1, -2)
        assert apply_unitary(u, u_dagger, stack).tobytes() == unitary.evolve(stack, t).tobytes()
    u = unitary.unitary(ts[0])
    u_dagger = u.conj().swapaxes(-1, -2)
    for a in stack:
        assert apply_unitary(u, u_dagger, a).tobytes() == unitary.evolve(a, ts[0]).tobytes()


@st.composite
def pinching_inputs(draw):
    """A basis of dimension 1..64 and a mixed, pinched or NaN-holding state."""
    d = draw(st.integers(min_value=1, max_value=64))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    basis = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    kind = draw(st.sampled_from(["mixed", "pinched", "nan"]))
    if kind == "pinched":
        # already diagonal in the basis, with zero weights: pinching it again
        # gives roundoff of either sign where the weights are zero
        weights = rng.random(d) * (rng.random(d) < 0.5)
        rho = (basis * (weights / max(weights.sum(), 1.0))) @ basis.conj().T
    elif kind == "nan":
        rho[rng.integers(d), rng.integers(d)] = np.nan
    return rho, basis


@given(pinching_inputs())
def test_decohere_equals_the_where_form(system):
    rho, basis = system
    assert decohere(rho, basis).tobytes() == where_pinching(rho, basis).tobytes()


@pytest.mark.parametrize("d", [2, 3, 8, 64])
def test_decohere_equals_the_where_form_on_negative_roundoff(d):
    # a basis state pinched in its own basis has d - 1 zero weights; pinching
    # it again reads them back with roundoff of either sign. Take the first
    # seeded basis whose roundoff has a negative entry.
    for seed in range(100):
        rng = np.random.default_rng(seed)
        basis = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
        pinched = decohere(np.outer(basis[:, 0], basis[:, 0].conj()), basis)
        diagonal = np.einsum("ij,jk,ki->i", basis.conj().T, pinched, basis).real
        if (diagonal < 0.0).any():
            break
    else:
        pytest.fail("no seeded basis gave negative roundoff")
    assert decohere(pinched, basis).tobytes() == where_pinching(pinched, basis).tobytes()


# A zero, a roundoff-negative and a subnormal eigenvalue, and equal ones.
EDGE_WEIGHTS = (0.0, -1e-17, 5e-324, 1e-300, 0.5, 1.0)


@st.composite
def qubit_states(draw):
    """Mixed, pure, and diagonal or rotated states with edge-case eigenvalues."""
    kind = draw(st.sampled_from(["mixed", "pure", "edge"]))
    if kind == "mixed":
        return draw(density_matrices(2))
    if kind == "pure":
        v = draw(complex_matrices(2))[:, 0]
        norm_sq = np.vdot(v, v).real
        assume(norm_sq > 1e-3)
        return np.outer(v, v.conj()) / norm_sq
    w = draw(st.sampled_from(EDGE_WEIGHTS))
    rho = np.diag([w, 1.0 - w]).astype(complex)
    if draw(st.booleans()):
        q = draw(unitary_bases(2))
        rho = (q * np.diag(rho)) @ q.conj().T
    return rho


@given(st.lists(qubit_states(), min_size=1, max_size=12))
def test_stacked_qubit_entropy_equals_spectral_entropy(states):
    got = _qubit_entropies(np.stack(states))
    expected = np.array([spectral_entropy(rho) for rho in states])
    assert got.shape == expected.shape
    # bit for bit, the sign of a zero included
    assert got.tobytes() == expected.tobytes()


@given(st.lists(qubit_states(), min_size=1, max_size=40), st.data())
def test_stacked_qubit_entropy_equals_its_calls_on_any_split(states, data):
    # the unitary branch takes all of its steps' entropies in one call
    stack = np.stack(states)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(states)), max_size=6)))
    parts = [_qubit_entropies(part) for part in np.split(stack, cuts)]
    assert _qubit_entropies(stack).tobytes() == np.concatenate(parts).tobytes()


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
