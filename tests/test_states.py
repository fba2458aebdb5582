import math

import numpy as np
import pytest

from stosszahl.evolution import Propagator, evolve_observable, evolve_unitary
from stosszahl.measurement import as_measurement_basis, process1
from stosszahl.states import (
    as_density_matrix,
    as_probability_vector,
    as_state_vector,
    density_from_pure,
    mix_states,
    purity,
    require_hermitian,
    shannon_entropy,
    vn_entropy,
)

SQ2 = 1.0 / math.sqrt(2.0)


def random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


# --- constructors -----------------------------------------------------------

def test_density_from_basis_state():
    assert np.array_equal(density_from_pure([1.0, 0.0]), [[1.0, 0.0], [0.0, 0.0]])


def test_density_from_plus_state():
    # outer product by hand: every entry 1/2
    rho = density_from_pure([SQ2, SQ2])
    assert np.allclose(rho, np.full((2, 2), 0.5), atol=1e-12)


def test_density_from_complex_state_conjugates():
    # (1/sqrt2, i/sqrt2) -> [[1/2, -i/2], [i/2, 1/2]]
    rho = density_from_pure([SQ2, 1j * SQ2])
    expected = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    assert np.allclose(rho, expected, atol=1e-12)


def test_unnormalized_state_rejected():
    with pytest.raises(ValueError, match="not normalized"):
        density_from_pure([1.0, 1.0])


def test_mix_single_state_equals_pure_projector():
    psi = [SQ2, 1j * SQ2]
    assert np.allclose(mix_states([psi], [1.0]), density_from_pure(psi), atol=1e-12)


def test_mix_orthogonal_states():
    rho = mix_states([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
    assert np.allclose(rho, np.diag([0.5, 0.5]), atol=1e-12)


def test_mix_non_orthogonal_states():
    # 1/2 |0><0| + 1/2 |+><+| = [[3/4, 1/4], [1/4, 1/4]]
    rho = mix_states([[1.0, 0.0], [SQ2, SQ2]], [0.5, 0.5])
    assert np.allclose(rho, [[0.75, 0.25], [0.25, 0.25]], atol=1e-12)


def test_mix_rejects_mismatched_dimensions():
    with pytest.raises(ValueError, match="mismatched dimensions"):
        mix_states([[1.0, 0.0], [1.0, 0.0, 0.0]], [0.5, 0.5])


def test_mix_rejects_length_mismatch():
    with pytest.raises(ValueError, match="probabilities"):
        mix_states([[1.0, 0.0]], [0.5, 0.5])


# --- validators ---------------------------------------------------------------

def test_density_validator_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        as_density_matrix(np.diag([0.6, 0.6]))


def test_density_validator_rejects_negative_eigenvalue():
    with pytest.raises(ValueError, match="positive semidefinite"):
        as_density_matrix(np.diag([1.5, -0.5]))


def test_probability_validator_clamps_roundoff():
    p = as_probability_vector([1.0 + 5e-13, -5e-13])
    assert p[1] == 0.0


def test_probability_validator_rejects_negative():
    with pytest.raises(ValueError, match="negative"):
        as_probability_vector([1.1, -0.1])


def test_probability_validator_rejects_bad_sum():
    with pytest.raises(ValueError, match="sums to"):
        as_probability_vector([0.5, 0.4])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_probability_validator_rejects_non_finite(bad):
    # every comparison with NaN is False, so NaN passed the sign and sum checks
    with pytest.raises(ValueError, match="non-finite"):
        as_probability_vector([1.0, bad])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_state_vector_validator_rejects_non_finite(bad):
    # |psi|^2 of a NaN entry is NaN, which passed the norm check; an infinite
    # one failed as "not normalized"
    with pytest.raises(ValueError, match="^state has a non-finite entry$"):
        as_state_vector([bad, 0.0])


def test_state_vector_accepts_sequences():
    v = as_state_vector((1.0, 0.0, 0.0))
    assert v.dtype == complex and v.shape == (3,)


# --- purity -------------------------------------------------------------------

def test_purity_pure_state():
    assert np.isclose(purity(density_from_pure([SQ2, SQ2])), 1.0, atol=1e-12)


def test_purity_maximally_mixed():
    assert np.isclose(purity(np.diag([0.5, 0.5])), 0.5, atol=1e-12)


def test_purity_unequal_mixture():
    # 9/16 + 1/16
    assert np.isclose(purity(np.diag([0.75, 0.25])), 0.625, atol=1e-12)


# --- entropies ------------------------------------------------------------------

def test_vn_entropy_pure_is_zero():
    rng = np.random.default_rng(1)
    for d in (2, 3, 5):
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        assert vn_entropy(density_from_pure(psi)) < 1e-12


def test_vn_entropy_maximally_mixed():
    assert np.isclose(vn_entropy(np.diag([0.5, 0.5])), math.log(2.0), atol=1e-12)


def test_vn_entropy_three_quarters():
    expected = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
    assert np.isclose(expected, 0.562335, atol=5e-7)  # frozen from direct evaluation
    assert np.isclose(vn_entropy(np.diag([0.75, 0.25])), expected, atol=1e-12)


def test_shannon_entropy_deterministic_case():
    assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0


def test_shannon_entropy_uniform():
    assert np.isclose(shannon_entropy([0.25] * 4), math.log(4.0), atol=1e-12)


def test_shannon_entropy_nine_tenths():
    expected = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
    assert np.isclose(expected, 0.325083, atol=5e-7)  # frozen from direct evaluation
    assert np.isclose(shannon_entropy([0.9, 0.1]), expected, atol=1e-12)


def test_shannon_equals_vn_on_diagonal_exactly():
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = rng.random(int(rng.integers(2, 9)))
        p /= p.sum()
        assert shannon_entropy(p) == vn_entropy(np.diag(p).astype(complex))


def test_vn_entropy_bounded_by_log_dimension():
    rng = np.random.default_rng(5)
    for d in (2, 4, 8):
        for _ in range(20):
            rho = random_density(rng, d)
            s = vn_entropy(rho)
            assert -1e-9 <= s <= math.log(d) + 1e-9


# --- matrix validators --------------------------------------------------------

def test_non_hermitian_rejected_with_diagnostic():
    # the message carries the measured max |A - A^dag| and the tolerance
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(
        ValueError,
        match=r"^hamiltonian is not Hermitian: max \|A - A\^dag\| = 1\.000e\+00 exceeds 1\.0e-10$",
    ):
        Propagator(bad)
    with pytest.raises(ValueError, match=r"max \|A - A\^dag\| = 2\.500e-01 exceeds"):
        require_hermitian(np.array([[0.0, 0.5], [0.25, 0.0]]))


def test_non_square_rejected():
    with pytest.raises(ValueError, match="square"):
        require_hermitian(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="hamiltonian must be square"):
        Propagator(np.zeros((2, 3)))


def with_entry(matrix, index, value):
    """A complex copy of ``matrix`` with ``value`` at ``index``."""
    out = np.array(matrix, dtype=complex)
    out[index] = value
    return out


QUBIT_H = np.array([[1.0, 0.0], [0.0, 0.0]])
MIXED = np.eye(2) / 2


# Each call puts the bad value in one entry of an otherwise valid argument;
# every tolerance comparison with NaN is false, so each passed, or failed
# with another message, before require_square checked finiteness.
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda v: require_hermitian(with_entry(QUBIT_H, (0, 1), v)), "matrix"),
        (lambda v: as_density_matrix(with_entry(MIXED, (0, 0), v)), "rho"),
        (lambda v: as_measurement_basis(with_entry(np.eye(2), (1, 1), v)), "basis"),
        (lambda v: Propagator(with_entry(QUBIT_H, (0, 1), v)), "hamiltonian"),
        (lambda v: evolve_unitary(MIXED, with_entry(QUBIT_H, (1, 1), v), 1.0), "hamiltonian"),
        (lambda v: evolve_unitary(with_entry(MIXED, (1, 0), v), QUBIT_H, 1.0), "rho"),
        (lambda v: evolve_observable(with_entry(QUBIT_H, (0, 0), v), QUBIT_H, 1.0), "observable"),
        (lambda v: process1(MIXED, with_entry(np.eye(2), (0, 1), v)), "basis"),
        (lambda v: vn_entropy(with_entry(MIXED, (0, 1), v)), "rho"),
    ],
    ids=[
        "require_hermitian", "as_density_matrix", "as_measurement_basis", "Propagator",
        "evolve_unitary-hamiltonian", "evolve_unitary-rho", "evolve_observable", "process1",
        "vn_entropy",
    ],
)
def test_non_finite_matrix_entries_are_rejected(call, name, value):
    with pytest.raises(ValueError, match=f"^{name} has a non-finite entry$"):
        call(value)
