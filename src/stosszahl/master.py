"""Classical master equations: build, validate, solve, and diagnose relaxation.

Index convention (fixed, and worth stating loudly because the transposed
convention is equally common): ``rates[i][j]`` is the transition rate FROM
state j TO state i. The generator built from it acts on column probability
vectors, d p / d t = M p, so every column of M sums to zero and probability
is conserved exactly.

Two monotonicity statements are offered as diagnostics, because they have
different ranges of validity: relative entropy to the equilibrium
distribution is non-increasing for every generator with a unique
equilibrium, while the Shannon entropy itself is guaranteed non-decreasing
only for symmetric (doubly stochastic) generators.

:func:`evolve_probabilities` takes one time or a 1-D grid of times, validated
once; it holds the module's only loop over :func:`_propagate`, so no caller
steps through scalar calls.

scipy is imported on first use, not with the module: :func:`expm` imports
``scipy.linalg.expm`` on its first call and :func:`equilibrium` imports
``null_space`` when it runs, so a process that solves no master equation
never loads ``scipy.linalg``. :func:`expm` stays a module-level function
that :func:`_propagate` looks up by name on every call, because the
benchmark's ``master.expm`` span wraps that attribute.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .csvio import read_csv, write_csv
from .states import as_probability_vector, neg_sum_x_ln_x

# Structural acceptance tolerances for a master operator.
COLUMN_SUM_TOL = 1e-10
OFF_DIAGONAL_TOL = 1e-12

# Null-space residual accepted for an equilibrium distribution.
EQUILIBRIUM_RESIDUAL_TOL = 1e-10


def as_rate_matrix(rates, name: str = "rates") -> np.ndarray:
    """Validate a matrix of finite nonnegative transition rates with zero diagonal."""
    r = np.asarray(rates, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError(f"{name} must be square, got shape {r.shape}")
    if not np.isfinite(r).all():
        raise ValueError(f"{name} has a non-finite entry")
    if np.any(np.diag(r) != 0.0):
        raise ValueError(f"{name} diagonal must be zero (rates are between distinct states)")
    if np.min(r) < 0.0:
        i, j = np.unravel_index(np.argmin(r), r.shape)
        raise ValueError(f"{name}[{i}][{j}] = {r[i, j]!r} is negative")
    return r.copy()


def build_master_operator(rates) -> np.ndarray:
    """Generator M with M[i][j] = rates[i][j] for i != j and zero column sums.

    Each diagonal entry is the negative of the sum of the off-diagonal
    entries in its column, so the construction conserves probability exactly.
    """
    r = as_rate_matrix(rates)
    m = r.copy()
    np.fill_diagonal(m, -r.sum(axis=0))
    return m


@dataclass(frozen=True)
class MasterValidation:
    """Structural report for a candidate master operator."""

    passed: bool
    max_column_residual: float
    worst_column: int
    min_off_diagonal: float
    worst_off_diagonal: tuple[int, int]
    messages: tuple[str, ...] = field(default=())


def validate_master(matrix) -> MasterValidation:
    """Report column-sum residuals and negative off-diagonal entries.

    Passes iff every column sums to zero within ``COLUMN_SUM_TOL`` times its
    scale max(1, max |entry|), as the roundoff of its largest entries does,
    and no off-diagonal entry is below ``-OFF_DIAGONAL_TOL``. The report
    names the column worst relative to its scale and the |sum| of it.

    A matrix with a non-finite entry fails on that alone, before any sum:
    every comparison with NaN is false. Its residual and smallest
    off-diagonal entry are then NaN, and the worst column and entry name
    the first non-finite entry in row-major order.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"master operator must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        i, j = np.argwhere(~np.isfinite(m))[0].tolist()
        return MasterValidation(
            passed=False,
            max_column_residual=np.nan,
            worst_column=j,
            min_off_diagonal=np.nan,
            worst_off_diagonal=(i, j),
            messages=("master operator has a non-finite entry",),
        )
    column_sums = m.sum(axis=0)
    scales = np.maximum(1.0, np.abs(m).max(axis=0))
    worst_column = int(np.argmax(np.abs(column_sums) / scales))
    max_residual = float(np.abs(column_sums[worst_column]))

    off = m.copy()
    np.fill_diagonal(off, np.inf)
    worst_entry = np.unravel_index(np.argmin(off), off.shape)
    min_off_diagonal = float(off[worst_entry]) if m.shape[0] > 1 else 0.0

    messages = []
    if max_residual > COLUMN_SUM_TOL * scales[worst_column]:
        messages.append(
            f"column {worst_column} sums to {column_sums[worst_column]:.3e}"
        )
    if min_off_diagonal < -OFF_DIAGONAL_TOL:
        i, j = worst_entry
        messages.append(f"off-diagonal [{i}][{j}] = {min_off_diagonal:.3e} is negative")
    return MasterValidation(
        passed=not messages,
        max_column_residual=max_residual,
        worst_column=worst_column,
        min_off_diagonal=min_off_diagonal,
        worst_off_diagonal=(int(worst_entry[0]), int(worst_entry[1])),
        messages=tuple(messages),
    )


def _require_master(matrix) -> np.ndarray:
    report = validate_master(matrix)
    if not report.passed:
        raise ValueError("invalid master operator: " + "; ".join(report.messages))
    return np.asarray(matrix, dtype=float)


def evolve_probabilities(matrix, p0, t) -> np.ndarray:
    """p(t) = exp(M t) p0 by scaling-and-squaring matrix exponential.

    ``t`` is one time, giving shape ``(n,)``, or a 1-D grid giving one row
    per time, each bit-equal to its own scalar call. Every time must be
    finite, and is validated before any exponential; the generator is
    irreversible, so negative times are rejected rather than run backwards.
    """
    m = _require_master(matrix)
    p = as_probability_vector(p0, name="p0")
    if p.size != m.shape[0]:
        raise ValueError(f"dimension mismatch: p0 {p.size} vs generator {m.shape[0]}")
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError(f"t must be one time or a 1-D grid of times, got shape {times.shape}")
    for s in times.flat:
        if not np.isfinite(s):
            raise ValueError(f"t = {float(s)!r} is not a finite time")
        if s < 0.0:
            raise ValueError(f"t = {float(s)!r}: the master equation is not run backwards")
    out = np.empty(times.shape + p.shape)
    for i, s in np.ndenumerate(times):
        out[i] = _propagate(m, p, float(s))
    return out


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by ``scipy.linalg.expm``, imported on the first call."""
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(a)


def _propagate(m: np.ndarray, p: np.ndarray, t: float) -> np.ndarray:
    """exp(M t) p for a validated generator, initial vector and time.

    Keeps the checks on the result, which roundoff can break: positivity
    (entries in [-1e-10, 0) are clamped to zero) and unit sum.
    """
    out = expm(m * t) @ p
    # Positivity is exact in theory; [-1e-10, 0) is solver roundoff.
    if np.min(out) < -1e-10:
        raise ValueError(f"positivity violated: p(t) entry {np.min(out):.3e}")
    return as_probability_vector(np.where(out < 0.0, 0.0, out), name="p(t)")


def two_state_closed_form(rate_to_1: float, rate_to_2: float, p0, t) -> np.ndarray:
    """Analytic two-state solution at one time, or one row per time of a grid.

    ``rate_to_1`` is the 2 -> 1 rate and ``rate_to_2`` the 1 -> 2 rate (the
    same convention as ``rates[i][j]``). The occupation of state 1 relaxes as
    p1(t) = p1_eq + (p1(0) - p1_eq) exp(-(rate_to_1 + rate_to_2) t) with
    p1_eq = rate_to_1 / (rate_to_1 + rate_to_2); with both rates equal to 1
    this is the symmetric exp(-2t) relaxation toward (1/2, 1/2).
    """
    if rate_to_1 < 0.0 or rate_to_2 < 0.0:
        raise ValueError("rates must be nonnegative")
    total = rate_to_1 + rate_to_2
    if total == 0.0:
        raise ValueError("at least one rate must be positive")
    p = as_probability_vector(p0, name="p0")
    if p.size != 2:
        raise ValueError(f"p0 must have 2 entries, got {p.size}")
    p1_eq = rate_to_1 / total
    p1 = p1_eq + (p[0] - p1_eq) * np.exp(-total * np.asarray(t, dtype=float))
    return np.stack([p1, 1.0 - p1], axis=-1)


def equilibrium(matrix) -> np.ndarray:
    """Unique stationary distribution of a master operator via its null space.

    Generators whose null space is not one-dimensional (reducible chains)
    are rejected with the measured multiplicity rather than averaged.
    """
    from scipy.linalg import null_space

    m = _require_master(matrix)
    kernel = null_space(m)
    multiplicity = kernel.shape[1]
    if multiplicity != 1:
        raise ValueError(
            f"stationary distribution is not unique: null space has dimension {multiplicity}"
        )
    v = kernel[:, 0]
    total = v.sum()
    if abs(total) < 1e-12:
        raise ValueError("null-space vector has zero sum; cannot normalize")
    p_eq = as_probability_vector(v / total, name="equilibrium")
    residual = float(np.max(np.abs(m @ p_eq)))
    if residual > EQUILIBRIUM_RESIDUAL_TOL:
        raise ValueError(f"equilibrium residual {residual:.3e} exceeds tolerance")
    return p_eq


def relative_entropy(p, q) -> float:
    """Kullback-Leibler divergence D(p || q) in nats.

    Requires q to carry weight wherever p does; zero iff p equals q.
    """
    pv = as_probability_vector(p, name="p")
    qv = as_probability_vector(q, name="q")
    if pv.size != qv.size:
        raise ValueError(f"dimension mismatch: p {pv.size} vs q {qv.size}")
    return _divergence(pv, qv)


def _divergence(pv: np.ndarray, qv: np.ndarray) -> float:
    """D(pv || qv) for probability vectors of one size, without validating them."""
    support = pv > 0.0
    if np.any(qv[support] <= 0.0):
        k = int(np.argmax(support & (qv <= 0.0)))
        raise ValueError(f"support violation: p[{k}] > 0 but q[{k}] = 0")
    return float(np.sum(pv[support] * np.log(pv[support] / qv[support])))


def entropy_series(matrix, p0, times) -> list[tuple[float, float, float]]:
    """Sampled (t, Shannon entropy, relative entropy to equilibrium) records.

    Along any time grid the relative-entropy column is non-increasing for
    every valid generator with a unique equilibrium; the Shannon column is
    non-decreasing when the generator is symmetric. The points come from one
    grid call of :func:`evolve_probabilities`.
    """
    p_eq = equilibrium(matrix)
    rows = evolve_probabilities(matrix, p0, times)
    return [(float(t), neg_sum_x_ln_x(p_t), _divergence(p_t, p_eq)) for t, p_t in zip(times, rows)]


def rate_matrix_from_csv(path) -> tuple[list[str], np.ndarray]:
    """Read state labels and a rate matrix from CSV.

    The first row holds the state labels; data row i, column j is the rate
    from state j to state i, matching ``rates[i][j]``. The gas coupling table
    is read here too, but :class:`stosszahl.gas.GasConfig` indexes it
    ``[emitter, absorber]``, so there row i is the emitter.
    """
    rows = read_csv(path)
    if not rows:
        raise ValueError(f"{path}: empty rate-matrix file")
    labels = [label.strip() for label in rows[0]]
    n = len(labels)
    if len(rows) != n + 1:
        raise ValueError(f"{path}: expected {n} data rows for {n} labels, got {len(rows) - 1}")
    values = []
    for row in rows[1:]:
        if len(row) != n:
            raise ValueError(f"{path}: ragged row of length {len(row)}, expected {n}")
        values.append([float(entry) for entry in row])
    return labels, as_rate_matrix(np.array(values), name=str(path))


def entropy_series_to_csv(path, series) -> None:
    """Write (t, S, D) diagnostic records with 17-significant-digit floats."""
    write_csv(path, ["t", "shannon_entropy", "relative_entropy_to_equilibrium"], series)
