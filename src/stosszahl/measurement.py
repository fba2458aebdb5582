"""The non-unitary measurement transition and Born-rule outcome sampling.

Two distinct steps are modeled:

1. ``process1``: the transition from a state to the mixture that is
   diagonal in the measuring basis. This kills all phase coherence, never
   decreases von Neumann entropy, and is irreversible (many inputs map to
   the same output). ``decohere`` is the same map without the validation,
   for loops that checked their state and basis once.
2. ``collapse_sample`` / ``measure``: the indeterministic selection of one
   actual outcome from the diagonal weights, a weighted symmetry breaking.

Randomness contract
-------------------
All sampling goes through an explicitly passed ``numpy.random.Generator``
(PCG64 via ``numpy.random.default_rng(seed)``). Each draw consumes exactly
one uniform double from ``Generator.random()`` and selects by inverse CDF
over ascending index order, so a given seed reproduces the same outcome
sequence bit-for-bit; a golden-sequence test pins this across platforms.
Weights below ``ZERO_WEIGHT`` are treated as exactly zero and can never be
selected. With equal weights :func:`inverse_cdf` corrects a ``floor(u * m)``
guess instead of searching. Ensemble members draw from the children of
``SeedSequence(seed).spawn``, built in one pass by :func:`spawn_generators`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import as_density_matrix, as_probability_vector, as_state_vector, require_square

# Orthonormality acceptance tolerance for measurement bases.
BASIS_TOL = 1e-10

# Weights below this are pure roundoff and are never selected.
ZERO_WEIGHT = 1e-15

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): its pool of
# four 32-bit words, xor shift, and hashmix, state-word and mix constants.
_POOL_SIZE, _XSHIFT, _MASK32 = 4, 16, 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def as_measurement_basis(basis, name: str = "basis") -> np.ndarray:
    """Validate a unitary matrix whose columns are the measurement states."""
    b = require_square(basis, name)
    gram_defect = float(np.max(np.abs(b.conj().T @ b - np.eye(b.shape[0]))))
    if gram_defect > BASIS_TOL:
        raise ValueError(
            f"{name} columns are not orthonormal: max |B^dag B - I| = {gram_defect:.3e}"
        )
    return b.copy()


def born_weights(psi, basis) -> np.ndarray:
    """Outcome probabilities |<X_k|psi>|^2 of a pure state in a basis."""
    return _born_weights(as_state_vector(psi), as_measurement_basis(basis))


def _born_weights(v: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`born_weights` of a validated state vector and basis."""
    if b.shape[0] != v.size:
        raise ValueError(f"dimension mismatch: state {v.size} vs basis {b.shape[0]}")
    amplitudes = b.conj().T @ v
    return as_probability_vector(np.abs(amplitudes) ** 2, name="born weights")


def process1(rho, basis) -> np.ndarray:
    """Non-unitary transition to the mixture diagonal in ``basis``.

    Returns sum_i <X_i|rho|X_i> |X_i><X_i|. For a pure input this is the
    pure-to-mixed measurement transition; for mixed input it is the standard
    pinching in the given basis, which reduces to the pure-state form on
    rank-1 input. Idempotent, trace preserving, and entropy non-decreasing.

    Validates ``rho`` as a density matrix and ``basis`` as orthonormal
    columns of the same dimension, then calls :func:`decohere`.
    """
    a = as_density_matrix(rho)
    b = as_measurement_basis(basis)
    if b.shape != a.shape:
        raise ValueError(f"dimension mismatch: rho {a.shape} vs basis {b.shape}")
    return decohere(a, b)


def decohere(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The pinching of :func:`process1`, without its validation.

    ``a`` must be a complex density matrix and ``b`` a complex unitary of
    the same shape, as :func:`as_density_matrix` and
    :func:`as_measurement_basis` return them; neither is checked. Loops that
    validated their state and basis once (the unitary-vs-collapse scenario)
    call this on every collapse. Diagonal weights that roundoff makes
    negative are clamped to zero.
    """
    b_dagger = b.conj().T
    diagonal = np.einsum("ij,jk,ki->i", b_dagger, a, b).real
    diagonal[diagonal < 0.0] = 0.0
    return (b * diagonal) @ b_dagger


@dataclass(frozen=True)
class CollapseOutcome:
    """One actualized measurement outcome.

    ``index`` is the selected basis element, ``projector`` the realized
    rank-1 density matrix |X_k><X_k|, and ``weight`` the Born probability
    the outcome had before selection.
    """

    index: int
    projector: np.ndarray
    weight: float

    def __post_init__(self):
        if not 0.0 < self.weight <= 1.0 + 1e-12:
            raise ValueError(f"outcome weight {self.weight!r} outside (0, 1]")


def collapse_sample(weights, rng: np.random.Generator) -> int:
    """Sample an outcome index from probability weights by inverse CDF.

    Consumes exactly one uniform from ``rng``. Entries below ``ZERO_WEIGHT``
    are treated as exactly zero; if every entry is zero the weights are
    degenerate and rejected.
    """
    return int(inverse_cdf(as_probability_vector(weights, name="weights"), rng.random()))


def inverse_cdf(weights: np.ndarray, u):
    """The inverse-CDF step of :func:`collapse_sample`, without its validation.

    Returns the index that a uniform ``u`` in [0, 1) selects, or for an
    array of uniforms the array of the indices each selects. ``weights``
    must be a float vector of nonnegative entries; they need not sum to one.
    :func:`sample_outcomes` and the uniform-coupling winners of the gas
    kernel (:func:`stosszahl.gas.run`) call it with arrays; a coupling table
    takes the same step along the rows of a batch of weight vectors.

    With m equal weights, a ``floor(u * m)`` guess corrected against the
    cumulative sums until none moves gives the search's index without it.
    """
    weights = np.where(weights < ZERO_WEIGHT, 0.0, weights)
    # ndarray methods and np.add.reduce skip the Python-level wrappers of
    # np.sum, np.cumsum and np.searchsorted; the arithmetic is the same.
    total = float(np.add.reduce(weights))
    if total <= 0.0:
        raise ValueError("degenerate weights: all entries are zero")
    m, x = weights.size, u * total
    if weights.min() < weights.max():
        return np.minimum(weights.cumsum().searchsorted(x, side="right"), m - 1)
    # A count r is right when bounded[r] <= x < bounded[r + 1]. The sums never
    # decrease, so no guess steps both ways; u < 1 keeps the first one <= m.
    bounded = np.concatenate(([-np.inf], weights.cumsum(), [np.inf]))
    rank = (np.asarray(u) * m).astype(np.intp)
    while True:
        down, up = bounded.take(rank) > x, bounded[1:].take(rank) <= x
        if not (down.any() or up.any()):
            return np.minimum(rank, m - 1)
        rank = rank - down + up


def sample_outcomes(weights, n_draws: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized outcome sequence of ``n_draws`` collapse samples.

    Consumes exactly ``n_draws`` uniforms and is bit-identical to
    ``n_draws`` successive :func:`collapse_sample` calls, because
    ``Generator.random(n)`` yields the same doubles as n single draws.
    """
    w = as_probability_vector(weights, name="weights")
    if n_draws < 1:
        raise ValueError(f"n_draws must be >= 1, got {n_draws}")
    return inverse_cdf(w, rng.random(n_draws))


def sample_outcome_counts(weights, n_draws: int, rng: np.random.Generator) -> np.ndarray:
    """Outcome histogram of ``n_draws`` collapse samples (see sample_outcomes)."""
    indices = sample_outcomes(weights, n_draws, rng)
    return np.bincount(indices, minlength=np.asarray(weights).size)


def measure(psi, basis, rng: np.random.Generator) -> tuple[CollapseOutcome, np.ndarray]:
    """Full two-step measurement of a pure state.

    Samples an outcome with Born-rule weights and returns it together with
    the post-measurement state |X_k>. Measuring the post-state again in the
    same basis returns the same outcome with probability 1. The state and
    basis are validated once; the draw is :func:`collapse_sample`'s, one
    uniform through :func:`inverse_cdf`.
    """
    v = as_state_vector(psi)
    b = as_measurement_basis(basis)
    weights = _born_weights(v, b)
    index = int(inverse_cdf(weights, rng.random()))
    post_state = b[:, index].copy()
    outcome = CollapseOutcome(
        index=index,
        projector=np.outer(post_state, post_state.conj()),
        weight=float(weights[index]),
    )
    return outcome, post_state


def _hash(value, const: int, mult: int):
    """SeedSequence's hashmix (``_MULT_A``) or state-word hash (``_MULT_B``) of uint32s.

    Returns the hashed words and the next constant, modulo 2**32.
    """
    next_const = const * mult & _MASK32
    value = (value ^ const) * next_const & _MASK32
    return value ^ value >> _XSHIFT, next_const


def spawn_generators(seed: int, start: int, stop: int) -> list:
    """``[default_rng(c) for c in SeedSequence(seed).spawn(stop)[start:stop]]``, in one pass.

    Same PCG64 states: a child's entropy is its parent's, zero-padded to the
    pool, then its spawn key, so each child mixes its key into the parent's
    pool; all children's keys and state words are hashed as uint32 arrays, and
    reach ``PCG64`` through numpy's ``ISeedSequence``. Keys of 2**32 or more
    would hash as two words and are rejected. Imports ``numpy.random``.
    """
    from numpy.random import PCG64, Generator, SeedSequence
    from numpy.random.bit_generator import ISeedSequence

    class ChildState(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if (n_words, dtype) != (4, np.uint64):  # all that PCG64 asks for
                raise ValueError(f"holds 4 uint64 state words, not {n_words} of {dtype}")
            return self.words

    if not 0 <= start <= stop <= 2**32:
        raise ValueError(f"spawn keys {start}..{stop - 1} must lie in 0..2**32 - 1")
    parent = SeedSequence(seed)  # rejects a seed that is not an integer >= 0
    # The parent's pool took 4 ** 2 hashmix steps (4 words in, then 12 pair mixes)
    # and 4 more per seed word past the pool; the constant advances once per step.
    n_words = max(1, (int(seed).bit_length() + 31) // 32)
    steps = _POOL_SIZE**2 + _POOL_SIZE * max(0, n_words - _POOL_SIZE)
    const = _INIT_A * pow(_MULT_A, steps, 2**32) & _MASK32
    count = stop - start
    pool = [np.full(count, word, dtype=np.uint32) for word in parent.pool.tolist()]
    keys = np.arange(start, stop, dtype=np.uint32)
    for dst in range(_POOL_SIZE):  # SeedSequence's mix of each pool word with hashmix(key)
        hashed, const = _hash(keys, const, _MULT_A)
        mixed = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed) & _MASK32
        pool[dst] = mixed ^ mixed >> _XSHIFT
    const, state = _INIT_B, np.empty((count, 2 * _POOL_SIZE), dtype=np.uint32)
    for i in range(2 * _POOL_SIZE):
        state[:, i], const = _hash(pool[i % _POOL_SIZE], const, _MULT_B)
    # generate_state reads the words as little-endian uint64 pairs.
    seeds = state.astype("<u4").view("<u8").astype(np.uint64)
    return [Generator(PCG64(ChildState(row))) for row in seeds]
