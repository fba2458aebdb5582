import math

import numpy as np
import pytest
import scipy.linalg

from stosszahl import evolution
from stosszahl.evolution import Propagator, evolve_observable, evolve_unitary, propagator
from stosszahl.states import MAX_DIMENSION, density_from_pure, purity, require_hermitian, vn_entropy

SQ2 = 1.0 / math.sqrt(2.0)


def random_hermitian(rng, d, scale=1.0):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (a + a.conj().T) / 2
    return scale * h / max(np.linalg.norm(h, 2), 1e-12)


def random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_propagator_matches_series_exponential():
    # independent route: scipy expm of -iHt
    rng = np.random.default_rng(3)
    for d in (2, 4, 7):
        h = random_hermitian(rng, d, scale=2.0)
        for t in (0.3, 1.7):
            u = propagator(h, t)
            assert np.max(np.abs(u - scipy.linalg.expm(-1j * h * t))) < 1e-10


def test_commuting_case_is_fixed_point():
    rho = np.diag([0.7, 0.3]).astype(complex)
    h = np.diag([1.0, -1.0])
    assert np.max(np.abs(evolve_unitary(rho, h, 2.3) - rho)) < 1e-12


def test_half_period_maps_plus_to_minus():
    # H = diag(1, -1), t = pi/2: relative phase pi turns |+> into |->
    rho = density_from_pure([SQ2, SQ2])
    minus = density_from_pure([SQ2, -SQ2])
    out = evolve_unitary(rho, np.diag([1.0, -1.0]), math.pi / 2)
    assert np.max(np.abs(out - minus)) < 1e-12


def test_unitary_invariants_preserved():
    rng = np.random.default_rng(17)
    for d in (2, 4, 8):
        for t in (0.1, 1.0, 10.0):
            rho = random_density(rng, d)
            h = random_hermitian(rng, d, scale=3.0)
            out = evolve_unitary(rho, h, t)
            assert np.max(np.abs(out - out.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(out)[0] > -1e-10
            assert abs(np.trace(out).real - 1.0) < 1e-10
            assert abs(purity(out) - purity(rho)) < 1e-10
            assert abs(vn_entropy(out) - vn_entropy(rho)) < 1e-8
            eig_in = np.sort(np.linalg.eigvalsh(rho))
            eig_out = np.sort(np.linalg.eigvalsh(out))
            assert np.max(np.abs(eig_in - eig_out)) < 1e-8


def test_time_reversibility():
    rng = np.random.default_rng(23)
    for d in (2, 5):
        rho = random_density(rng, d)
        h = random_hermitian(rng, d, scale=2.0)
        back = evolve_unitary(evolve_unitary(rho, h, 1.7), h, -1.7)
        assert np.max(np.abs(back - rho)) < 1e-8


def test_composition_of_evolutions():
    rng = np.random.default_rng(29)
    rho = random_density(rng, 4)
    h = random_hermitian(rng, 4, scale=2.0)
    once = evolve_unitary(rho, h, 0.9 + 1.4)
    twice = evolve_unitary(evolve_unitary(rho, h, 0.9), h, 1.4)
    assert np.max(np.abs(once - twice)) < 1e-8


def test_identity_observable_unchanged():
    rng = np.random.default_rng(31)
    h = random_hermitian(rng, 3, scale=2.0)
    out = evolve_observable(np.eye(3), h, 4.2)
    assert np.max(np.abs(out - np.eye(3))) < 1e-12


def test_commuting_observable_unchanged():
    h = np.diag([1.0, 2.0, 3.0])
    obs = np.diag([5.0, -1.0, 0.5])
    assert np.max(np.abs(evolve_observable(obs, h, 1.1) - obs)) < 1e-12


def test_state_observable_duality():
    # Tr(rho(t) O) == Tr(rho O(t)) for every rho
    rng = np.random.default_rng(37)
    for d in (2, 4):
        for _ in range(10):
            rho = random_density(rng, d)
            h = random_hermitian(rng, d, scale=2.0)
            obs = random_hermitian(rng, d, scale=1.5)
            t = float(rng.uniform(0.1, 3.0))
            lhs = np.trace(evolve_unitary(rho, h, t) @ obs)
            rhs = np.trace(rho @ evolve_observable(obs, h, t))
            assert abs(lhs - rhs) < 1e-8


def test_generator_by_finite_differences():
    # (rho(t+h) - rho(t-h)) / 2h = -i [H, rho(t)] + O(h^2)
    rng = np.random.default_rng(41)
    h_step = 1e-4
    for d in (2, 4, 8):
        rho = random_density(rng, d)
        h = random_hermitian(rng, d, scale=2.0)
        t = 0.7
        rho_t = evolve_unitary(rho, h, t)
        forward = evolve_unitary(rho, h, t + h_step)
        backward = evolve_unitary(rho, h, t - h_step)
        derivative = (forward - backward) / (2 * h_step)
        commutator = -1j * (h @ rho_t - rho_t @ h)
        assert np.max(np.abs(derivative - commutator)) < 1e-6


def test_dimension_mismatch_rejected():
    rho = np.diag([0.5, 0.5])
    with pytest.raises(ValueError, match="dimension mismatch"):
        evolve_unitary(rho, np.eye(3), 1.0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        evolve_observable(np.eye(2), np.eye(3), 1.0)


@pytest.fixture
def built(monkeypatch):
    """Start from an empty memo and record every Propagator the functions build."""
    hamiltonians = []

    class Counted(Propagator):
        def __init__(self, hamiltonian):
            hamiltonians.append(hamiltonian)
            super().__init__(hamiltonian)

    monkeypatch.setattr(evolution, "Propagator", Counted)
    monkeypatch.setattr(evolution, "_last_propagator", (None, None))
    return hamiltonians


def test_memo_hit_equals_a_fresh_propagator(built):
    rng = np.random.default_rng(21)
    for d in (1, 2, 7, 64):
        h = random_hermitian(rng, d, scale=3.0)
        rho = random_density(rng, d)
        fresh = Propagator(h)
        for t in (0.4, -1.3):
            expected = fresh.evolve(rho.astype(complex), t)
            assert np.array_equal(evolve_unitary(rho, h, t), expected)
            assert np.array_equal(evolve_unitary(rho, h.copy(), t), expected)
            assert np.array_equal(propagator(h, t), fresh.unitary(t))
            u = fresh.unitary(t)
            out = u.conj().T @ rho @ u
            assert np.array_equal(evolve_observable(rho, h, t), (out + out.conj().T) / 2.0)
        # the memo built one Propagator for all three functions and both times
        assert len(built) == 1
        built.clear()


def test_flipping_one_entry_misses_the_memo(built):
    rng = np.random.default_rng(22)
    h = random_hermitian(rng, 4)
    rho = random_density(rng, 4)
    evolve_unitary(rho, h, 1.0)
    flipped = h.copy()
    flipped[2, 2] = np.nextafter(flipped[2, 2].real, np.inf)
    assert np.array_equal(evolve_unitary(rho, flipped, 1.0), Propagator(flipped).evolve(rho, 1.0))
    evolve_unitary(rho, flipped, 1.0)
    assert len(built) == 2
    # the same bytes under another shape are another Hamiltonian
    with pytest.raises(ValueError, match="must be square"):
        propagator(flipped.ravel(), 1.0)
    assert len(built) == 3


def test_memo_keeps_rejecting_invalid_hamiltonians(built):
    h = np.array([[1.0, 0.3], [0.3, -1.0]])
    rho = np.diag([0.7, 0.3])
    evolve_unitary(rho, h, 0.5)
    with pytest.raises(ValueError, match="not Hermitian"):
        evolve_unitary(rho, np.array([[1.0, 0.3], [0.0, -1.0]]), 0.5)
    with pytest.raises(ValueError, match="not Hermitian"):
        propagator([[0.0, 1.0], [-1.0, 0.0]], 0.5)
    with pytest.raises(ValueError, match="exceeds the configured cap"):
        propagator(np.eye(65), 0.5)
    # the rejected Hamiltonians were never kept: h is still a hit
    evolve_unitary(rho, h, 0.5)
    assert len(built) == 4


# --- Propagator ---------------------------------------------------------------

# The eigendecomposition of a Hamiltonian is Propagator's: its constructor
# validates with require_hermitian and keeps numpy's eigh of the result.


def test_identity_eigenvalues():
    assert np.allclose(Propagator(np.eye(3)).eigenvalues, [1.0, 1.0, 1.0])


def test_diagonal_already_sorted_ascending():
    assert np.allclose(Propagator(np.diag([2.0, -1.0])).eigenvalues, [-1.0, 2.0])


def test_pauli_x_form_eigenvalues():
    # characteristic polynomial lambda^2 - 1 = 0
    propagator = Propagator(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(propagator.eigenvalues, [-1.0, 1.0], atol=1e-12)


def test_reconstruction_and_unitarity():
    rng = np.random.default_rng(42)
    for d in (1, 2, 5, 8, 16):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        a = (g + g.conj().T) / 2
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
