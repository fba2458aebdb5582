import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import chisquare

from stosszahl.measurement import (
    ZERO_WEIGHT,
    CollapseOutcome,
    as_measurement_basis,
    born_weights,
    collapse_sample,
    decohere,
    inverse_cdf,
    measure,
    process1,
    sample_outcome_counts,
    sample_outcomes,
    spawn_generators,
)
from stosszahl.states import density_from_pure, purity, vn_entropy

SQ2 = 1.0 / math.sqrt(2.0)
COMPUTATIONAL = np.eye(2)
GOLDEN_SEED = 20260809
GOLDEN_FILE = Path(__file__).parent / "data" / "born_golden_seed20260809.txt"


def random_basis(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(a)
    return q


def random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


# --- born weights -------------------------------------------------------------

def test_basis_state_weight_is_one_hot():
    rng = np.random.default_rng(2)
    basis = random_basis(rng, 4)
    w = born_weights(basis[:, 0], basis)
    assert np.allclose(w, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_plus_state_weights_are_half_half():
    assert np.allclose(born_weights([SQ2, SQ2], COMPUTATIONAL), [0.5, 0.5], atol=1e-12)


def test_weights_are_squared_amplitudes():
    psi = [math.sqrt(1 / 3), math.sqrt(2 / 3)]
    assert np.allclose(born_weights(psi, COMPUTATIONAL), [1 / 3, 2 / 3], atol=1e-12)


def test_non_orthonormal_basis_rejected():
    with pytest.raises(ValueError, match="orthonormal"):
        born_weights([1.0, 0.0], np.array([[1.0, 1.0], [0.0, 0.0]]))


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="dimension mismatch"):
        born_weights([1.0, 0.0, 0.0], COMPUTATIONAL)


# --- process1 -------------------------------------------------------------------

def test_plus_state_decoheres_to_maximal_mixture():
    rho = density_from_pure([SQ2, SQ2])
    out = process1(rho, COMPUTATIONAL)
    assert np.allclose(out, np.diag([0.5, 0.5]), atol=1e-12)
    assert np.isclose(vn_entropy(out), math.log(2.0), atol=1e-12)


def test_diagonal_state_is_fixed_point():
    rho = np.diag([0.25, 0.75]).astype(complex)
    out = process1(rho, COMPUTATIONAL)
    assert np.max(np.abs(out - rho)) < 1e-12
    assert np.isclose(vn_entropy(out), vn_entropy(rho), atol=1e-12)


def test_basis_state_is_fixed_point_with_zero_entropy():
    rng = np.random.default_rng(3)
    basis = random_basis(rng, 3)
    rho = density_from_pure(basis[:, 2])
    out = process1(rho, basis)
    assert np.max(np.abs(out - rho)) < 1e-12
    assert vn_entropy(out) < 1e-12


def test_decohere_is_process1_without_validation():
    rng = np.random.default_rng(4)
    rho = random_density(rng, 3)
    basis = random_basis(rng, 3)
    assert np.array_equal(decohere(rho, basis), process1(rho, basis))
    # a trace-2 input is pinched, not rejected: the kernel checks nothing
    assert abs(np.trace(decohere(2.0 * rho, basis)).real - 2.0) < 1e-12
    with pytest.raises(ValueError, match="trace"):
        process1(2.0 * rho, basis)


def test_entropy_never_decreases_and_idempotent():
    rng = np.random.default_rng(5)
    for _ in range(200):
        d = int(rng.integers(2, 9))
        rho = random_density(rng, d)
        basis = random_basis(rng, d)
        once = process1(rho, basis)
        assert vn_entropy(once) >= vn_entropy(rho) - 1e-9
        twice = process1(once, basis)
        assert np.max(np.abs(twice - once)) < 1e-10


def test_process1_preserves_density_invariants():
    rng = np.random.default_rng(6)
    for _ in range(50):
        d = int(rng.integers(2, 7))
        rho = random_density(rng, d)
        basis = random_basis(rng, d)
        out = process1(rho, basis)
        assert abs(np.trace(out).real - 1.0) < 1e-12
        assert np.max(np.abs(out - out.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(out)[0] > -1e-12
        assert purity(out) <= purity(rho) + 1e-10


def test_diagonal_equals_born_weights_for_pure_states():
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        basis = random_basis(rng, d)
        out = process1(density_from_pure(psi), basis)
        pinched = np.real(np.diag(basis.conj().T @ out @ basis))
        assert np.max(np.abs(pinched - born_weights(psi, basis))) < 1e-12


def test_irreversibility_witness_plus_minus():
    # distinct pure inputs, identical mixed output
    plus = density_from_pure([SQ2, SQ2])
    minus = density_from_pure([SQ2, -SQ2])
    assert np.max(np.abs(plus - minus)) > 0.9
    out_plus = process1(plus, COMPUTATIONAL)
    out_minus = process1(minus, COMPUTATIONAL)
    assert np.max(np.abs(out_plus - out_minus)) < 1e-10
    assert np.max(np.abs(out_plus - np.diag([0.5, 0.5]))) < 1e-10


# --- collapse sampling -----------------------------------------------------------

def test_deterministic_weight_always_selected():
    rng = np.random.default_rng(0)
    assert all(collapse_sample([1.0, 0.0], rng) == 0 for _ in range(100))


def test_zero_weights_never_selected():
    rng = np.random.default_rng(1)
    draws = {collapse_sample([0.5, 0.0, 0.5], rng) for _ in range(2000)}
    assert draws == {0, 2}


def test_tiny_weights_treated_as_zero():
    rng = np.random.default_rng(2)
    weights = np.array([1e-16, 1.0 - 1e-16])
    draws = {collapse_sample(weights, rng) for _ in range(2000)}
    assert draws == {1}


def test_all_zero_weights_rejected():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        collapse_sample([0.0, 0.0], rng)


def test_half_half_frequency_within_three_sigma():
    # binomial oracle: sigma = 0.5 / sqrt(n)
    n = 100_000
    rng = np.random.default_rng(100)
    counts = sample_outcome_counts([0.5, 0.5], n, rng)
    sigma = 0.5 / math.sqrt(n)
    assert abs(counts[0] / n - 0.5) < 3 * sigma


def test_third_two_thirds_frequency_within_three_sigma():
    n = 100_000
    rng = np.random.default_rng(101)
    counts = sample_outcome_counts([1 / 3, 2 / 3], n, rng)
    sigma = math.sqrt((1 / 3) * (2 / 3) / n)
    assert abs(counts[0] / n - 1 / 3) < 3 * sigma
    assert abs(counts[1] / n - 2 / 3) < 3 * sigma


def test_chi_square_goodness_of_fit():
    n = 100_000
    weights = np.array([0.2, 0.3, 0.5])
    rng = np.random.default_rng(102)
    counts = sample_outcome_counts(weights, n, rng)
    _stat, p_value = chisquare(counts, weights * n)
    assert p_value >= 0.001


def test_sampling_is_deterministic_given_seed():
    a = [collapse_sample([0.3, 0.7], np.random.default_rng(55)) for _ in range(1)]
    seq1 = sample_outcomes([0.3, 0.7], 500, np.random.default_rng(55))
    seq2 = sample_outcomes([0.3, 0.7], 500, np.random.default_rng(55))
    assert np.array_equal(seq1, seq2)
    assert seq1[0] == a[0]


def test_vectorized_sampling_matches_single_draws():
    # dual route: Generator.random(n) must equal n single draws
    weights = [0.15, 0.25, 0.6]
    single = [collapse_sample(weights, np.random.default_rng(77)) for _ in [0]][0]
    rng1 = np.random.default_rng(77)
    rng2 = np.random.default_rng(77)
    vector = sample_outcomes(weights, 3000, rng1)
    loop = np.array([collapse_sample(weights, rng2) for _ in range(3000)])
    assert np.array_equal(vector, loop)
    assert vector[0] == single


@given(
    m=st.integers(min_value=1, max_value=300),
    kind=st.sampled_from(["uniform", "dense", "sparse"]),
    shape=st.sampled_from([(7,), (3, 5)]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_inverse_cdf_of_an_array_equals_its_scalar_calls(m, kind, shape, seed):
    # sample_outcomes and the gas kernel's uniform-coupling winners pass arrays
    # of uniforms, one or two dimensional; each pick must be the scalar one,
    # including the ZERO_WEIGHT clamp and the clip to the last index (u near 1)
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        weights = np.full(m, 1.0 / m)
    else:
        weights = rng.uniform(0.5, 1.5, size=m)
        if kind == "sparse":
            weights[rng.random(m) < 0.4] = 0.0
            weights[rng.random(m) < 0.1] = 1e-17
        weights[-1] = 1.0
        weights /= weights.sum()
    u = rng.random(shape)
    u.flat[0] = np.nextafter(1.0, 0.0)
    picks = inverse_cdf(weights, u)
    assert picks.shape == shape
    for pick, one in zip(picks.ravel().tolist(), u.ravel().tolist()):
        assert pick == inverse_cdf(weights, one)
    assert type(collapse_sample(weights, np.random.default_rng(seed))) is int


def searched_pick(weights, u):
    """The inverse-CDF index by searchsorted of the cumulative weights: the reference."""
    clamped = np.where(weights < ZERO_WEIGHT, 0.0, weights)
    total = float(np.add.reduce(clamped))
    return np.minimum(clamped.cumsum().searchsorted(u * total, side="right"), weights.size - 1)


def edge_uniforms(weights):
    """u at 0, at 1 - ulp, and just below, at and just above every c_k / total."""
    edges = weights.cumsum() / float(np.add.reduce(weights))
    u = np.concatenate((
        [0.0, np.nextafter(1.0, 0.0)], np.nextafter(edges, 0.0), edges, np.nextafter(edges, 1.0)
    ))
    return u[u < 1.0]


def test_equal_weight_inverse_cdf_equals_the_search_at_every_edge():
    # equal weights take floor(u * m) corrected against the cumulative sums,
    # not a search; the index must be the search's wherever a rank changes
    for m in range(1, 201):
        weights = np.full(m, 1.0 / m)
        u = edge_uniforms(weights)
        assert np.array_equal(inverse_cdf(weights, u), searched_pick(weights, u))


@given(
    m=st.integers(min_value=1, max_value=3999),
    weight=st.floats(min_value=1e-12, max_value=1e6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_equal_weight_inverse_cdf_equals_the_search(m, weight, seed):
    weights = np.full(m, weight)
    u = np.concatenate((edge_uniforms(weights), np.random.default_rng(seed).random(64)))
    picks = inverse_cdf(weights, u)
    assert np.array_equal(picks, searched_pick(weights, u))
    for one, pick in zip(u[:8].tolist(), picks[:8].tolist()):
        assert inverse_cdf(weights, one) == pick


def spawned_states(seed, start, stop):
    """PCG64 states of default_rng(child) for children start..stop - 1 of SeedSequence(seed)."""
    children = np.random.SeedSequence(seed).spawn(stop)[start:stop]
    return [np.random.default_rng(child).bit_generator.state for child in children]


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 99])
@pytest.mark.parametrize("start, stop", [(0, 3), (0, 256), (250, 262), (256, 300)])
def test_spawn_generators_equal_default_rng_of_the_spawned_children(seed, start, stop):
    # seeds of one to five 32-bit words, ranges from 0 and 256 and across 256
    generators = spawn_generators(seed, start, stop)
    assert [g.bit_generator.state for g in generators] == spawned_states(seed, start, stop)
    expected = np.random.default_rng(np.random.SeedSequence(seed).spawn(stop)[-1])
    assert generators[-1].random(5).tolist() == expected.random(5).tolist()


@given(
    seed=st.integers(min_value=0, max_value=2**200),
    start=st.integers(min_value=0, max_value=600),
    count=st.integers(min_value=0, max_value=40),
)
def test_spawn_generators_equal_the_spawned_children_for_drawn_seeds(seed, start, count):
    generators = spawn_generators(seed, start, start + count)
    assert [g.bit_generator.state for g in generators] == spawned_states(seed, start, start + count)


def test_spawn_generators_take_keys_below_2_to_the_32_and_reject_the_rest():
    # a key of 2**32 or more hashes as two words: it must be refused, never
    # hashed as one
    keys = (2**32 - 2, 2**32 - 1)
    expected = [
        np.random.default_rng(np.random.SeedSequence(9, spawn_key=(key,))).bit_generator.state
        for key in keys
    ]
    assert [g.bit_generator.state for g in spawn_generators(9, 2**32 - 2, 2**32)] == expected
    with pytest.raises(ValueError, match="spawn keys"):
        spawn_generators(9, 2**32 - 1, 2**32 + 1)
    with pytest.raises(ValueError, match="spawn keys"):
        spawn_generators(9, 5, 4)
    with pytest.raises(ValueError, match="non-negative"):
        spawn_generators(-1, 0, 1)
    assert spawn_generators(9, 7, 7) == []


def test_golden_outcome_sequence_byte_match():
    rng = np.random.default_rng(GOLDEN_SEED)
    outcomes = sample_outcomes([1 / 3, 2 / 3], 100_000, rng)
    text = "".join(str(int(k)) for k in outcomes)
    generated = "\n".join(text[i : i + 100] for i in range(0, len(text), 100)) + "\n"
    assert generated.encode() == GOLDEN_FILE.read_bytes()


# --- measure ----------------------------------------------------------------------

def test_measuring_basis_state_is_certain():
    rng = np.random.default_rng(8)
    basis = random_basis(rng, 3)
    outcome, post = measure(basis[:, 1], basis, rng)
    assert outcome.index == 1
    assert np.isclose(outcome.weight, 1.0, atol=1e-10)
    assert np.allclose(post, basis[:, 1], atol=1e-12)


def test_measure_reproducible_across_runs():
    seq1 = [measure([SQ2, SQ2], COMPUTATIONAL, np.random.default_rng(9))[0].index for _ in range(1)]
    rng1 = np.random.default_rng(9)
    rng2 = np.random.default_rng(9)
    run1 = [measure([SQ2, SQ2], COMPUTATIONAL, rng1)[0].index for _ in range(50)]
    run2 = [measure([SQ2, SQ2], COMPUTATIONAL, rng2)[0].index for _ in range(50)]
    assert run1 == run2
    assert run1[0] == seq1[0]


def test_repeated_measurement_fixed_outcome():
    rng = np.random.default_rng(10)
    basis = random_basis(rng, 4)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    outcome, post = measure(psi, basis, rng)
    for _ in range(10):
        again, post = measure(post, basis, rng)
        assert again.index == outcome.index


def test_measure_histogram_matches_born_weights():
    psi = [math.sqrt(1 / 3), math.sqrt(2 / 3)]
    n = 100_000
    counts = np.zeros(2, dtype=int)
    rng = np.random.default_rng(103)
    for _ in range(n):
        outcome, _post = measure(psi, COMPUTATIONAL, rng)
        counts[outcome.index] += 1
    sigma = math.sqrt((1 / 3) * (2 / 3) / n)
    assert abs(counts[0] / n - 1 / 3) < 3 * sigma


@given(
    d=st.integers(min_value=1, max_value=8),
    basis_seed=st.integers(min_value=0, max_value=2**32 - 1),
    entries=arrays(np.float64, 16, elements=st.floats(min_value=-4.0, max_value=4.0)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_measure_equals_born_weights_then_collapse_sample(d, basis_seed, entries, seed):
    # measure validates its state and basis once and draws through inverse_cdf;
    # the outcome, weight, post-state and uniforms used must stay those of the
    # two public steps
    psi = entries[:d] + 1j * entries[8 : 8 + d]
    norm = np.linalg.norm(psi)
    assume(norm > 1e-3)
    psi = psi / norm
    basis = random_basis(np.random.default_rng(basis_seed), d)
    rng = np.random.default_rng(seed)
    reference_rng = np.random.default_rng(seed)
    outcome, post = measure(psi, basis, rng)
    weights = born_weights(psi, basis)
    index = collapse_sample(weights, reference_rng)
    assert outcome.index == index
    assert outcome.weight == float(weights[index])
    assert np.array_equal(post, basis[:, index])
    assert np.array_equal(outcome.projector, np.outer(post, post.conj()))
    assert rng.random() == reference_rng.random()


def test_outcome_projector_and_weight():
    rng = np.random.default_rng(11)
    basis = random_basis(rng, 3)
    psi = basis @ np.array([0.6, 0.8, 0.0])
    outcome, _post = measure(psi, basis, rng)
    column = basis[:, outcome.index]
    assert np.allclose(outcome.projector, np.outer(column, column.conj()), atol=1e-12)
    assert np.isclose(outcome.weight, [0.36, 0.64, 0.0][outcome.index], atol=1e-10)


def test_collapse_outcome_rejects_zero_weight():
    with pytest.raises(ValueError, match="weight"):
        CollapseOutcome(index=0, projector=np.eye(1), weight=0.0)


def test_basis_validator_returns_copy():
    basis = np.eye(2)
    validated = as_measurement_basis(basis)
    validated[0, 0] = 5.0
    assert basis[0, 0] == 1.0
