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
selected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import require_square
from .states import as_density_matrix, as_probability_vector, as_state_vector

# Orthonormality acceptance tolerance for measurement bases.
BASIS_TOL = 1e-10

# Weights below this are pure roundoff and are never selected.
ZERO_WEIGHT = 1e-15


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
    diagonal = np.einsum("ij,jk,ki->i", b.conj().T, a, b).real
    diagonal = np.where(diagonal < 0.0, 0.0, diagonal)
    return (b * diagonal) @ b.conj().T


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
    return inverse_cdf(as_probability_vector(weights, name="weights"), rng.random())


def inverse_cdf(weights: np.ndarray, u: float) -> int:
    """The inverse-CDF step of :func:`collapse_sample`, without its validation.

    Returns the index that the uniform ``u`` in [0, 1) selects. ``weights``
    must be a float vector of nonnegative entries; they need not sum to one.
    The gas kernel (:func:`stosszahl.gas.run`) takes the same step along the
    rows of a batch of weight vectors.
    """
    weights = np.where(weights < ZERO_WEIGHT, 0.0, weights)
    # ndarray methods and np.add.reduce skip the Python-level wrappers of
    # np.sum, np.cumsum and np.searchsorted; the arithmetic is the same.
    total = float(np.add.reduce(weights))
    if total <= 0.0:
        raise ValueError("degenerate weights: all entries are zero")
    cumulative = weights.cumsum()
    index = int(cumulative.searchsorted(u * total, side="right"))
    return min(index, weights.size - 1)


def sample_outcomes(weights, n_draws: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized outcome sequence of ``n_draws`` collapse samples.

    Consumes exactly ``n_draws`` uniforms and is bit-identical to
    ``n_draws`` successive :func:`collapse_sample` calls, because
    ``Generator.random(n)`` yields the same doubles as n single draws.
    """
    w = as_probability_vector(weights, name="weights")
    w = np.where(w < ZERO_WEIGHT, 0.0, w)
    total = float(w.sum())
    if total <= 0.0:
        raise ValueError("degenerate weights: all entries are zero")
    if n_draws < 1:
        raise ValueError(f"n_draws must be >= 1, got {n_draws}")
    cumulative = np.cumsum(w)
    u = rng.random(n_draws) * total
    return np.minimum(np.searchsorted(cumulative, u, side="right"), w.size - 1)


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
    index = inverse_cdf(weights, rng.random())
    post_state = b[:, index].copy()
    outcome = CollapseOutcome(
        index=index,
        projector=np.outer(post_state, post_state.conj()),
        weight=float(weights[index]),
    )
    return outcome, post_state
