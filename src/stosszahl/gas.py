"""Event-driven gas of two-level molecules exchanging single energy quanta.

Each transfer is a discrete transaction: an excited molecule (the emitter)
fires after an exponential waiting time, every ground-state molecule at that
instant forms the confirmation set, and exactly one of them wins the quantum
with its normalized coupling weight. The emitter drops to ground, the winner
rises to excited, and the ledger records the pair with its emission and
absorption timestamps. Emission strictly precedes absorption in every event,
total quanta are conserved exactly, and a run is bit-reproducible from its
seed.

Ledger: :func:`run` returns the events as a :class:`Ledger`, one numpy column
per field (``t_e, t_a, emitter, absorber, winner_weight,
confirmation_set_size``) and one row per event. The audit, the rate
estimator and the CSV writer read these columns. Indexing or iterating a
ledger yields :class:`TransactionEvent` objects for callers that walk events.

Horizon: a run records every event whose absorption time t_a is at or before
t_max and stops at the first event whose t_a would pass it. Every recorded
transaction therefore completes inside the window, and the dwell in the last
state ends at t_max.

Randomness contract: every recorded event consumes exactly three uniforms
from the generator, in order: (1) the exponential waiting time by inverse
CDF, (2) the uniform emitter pick among excited molecules, and (3) the winner
selection over the confirmation set in ascending id order, by the inverse-CDF
step :func:`stosszahl.measurement.inverse_cdf` that
:func:`stosszahl.measurement.collapse_sample` also uses. The event that would
cross the horizon consumes only its waiting-time uniform, so a run that
records m events consumes 3m + 1 uniforms. If no event can form (no excited
molecule, or no ground molecule to confirm) nothing is consumed.

Block stepping: :func:`run` draws its uniforms in blocks and computes the
waiting times (with ``math.log1p``, not ``np.log1p``, whose vectorized loops
may round differently), the emission and absorption times, the horizon, the
emitter picks and the uniform-coupling winners for a whole block at once.
It reproduces the per-event reference :func:`next_event` /
:func:`apply_event` bit for bit and leaves the generator where scalar draws
would.

Coarse graining: the macro-observable is k, the number of excited molecules
in the left half (ids below N/2). Its Boltzmann entropy is the log
multiplicity ln[C(N/2, k) * C(N/2, n - k)] of the macrostate, computed with
log-gamma. With the default layout (molecules 0..n0-1 excited) a half-filled
gas starts in the unique k = n0 macrostate and relaxes toward the maximum
of the multiplicity curve.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .csvio import fmt, read_csv, write_csv
from .measurement import ZERO_WEIGHT, collapse_sample, inverse_cdf, inverse_cdf_unclamped
from .states import shannon_entropy


class TransactionError(RuntimeError):
    """A transaction violated its preconditions; the conservation audit failed."""


class ZeroCouplingError(ValueError):
    """An emitter's coupling weights to its confirmation set sum to zero."""


@dataclass(frozen=True, eq=False)
class GasConfig:
    """Parameters of one gas realization.

    ``delay`` is the emission-to-absorption propagation delay and must be
    strictly positive so the event ordering invariant t_emit < t_absorb is
    sharp; it defaults to 1e-6 / decay_rate. ``coupling`` is None for uniform
    weights over the confirmation set, or an (N, N) table of nonnegative
    per-pair weights indexed [emitter, absorber].
    """

    n_molecules: int
    n_excited: int
    decay_rate: float
    t_max: float
    seed: int
    delay: float | None = None
    coupling: np.ndarray | None = None

    def __post_init__(self):
        if self.n_molecules < 1:
            raise ValueError(f"n_molecules must be >= 1, got {self.n_molecules}")
        if not 0 <= self.n_excited <= self.n_molecules:
            raise ValueError(
                f"n_excited must be in [0, {self.n_molecules}], got {self.n_excited}"
            )
        if not self.decay_rate > 0.0:
            raise ValueError(f"decay_rate must be positive, got {self.decay_rate}")
        if not self.t_max > 0.0:
            raise ValueError(f"t_max must be positive, got {self.t_max}")
        if self.delay is None:
            object.__setattr__(self, "delay", 1e-6 / self.decay_rate)
        if not self.delay > 0.0:
            raise ValueError(
                f"delay must be strictly positive to keep emission before absorption, got {self.delay}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
        if self.coupling is not None:
            table = np.asarray(self.coupling, dtype=float)
            n = self.n_molecules
            if table.shape != (n, n):
                raise ValueError(
                    f"coupling table must have shape ({n}, {n}), got {table.shape}"
                )
            if not np.all(np.isfinite(table)):
                raise ValueError("coupling weights must be finite")
            if np.min(table) < 0.0:
                raise ValueError("coupling weights must be nonnegative")
            object.__setattr__(self, "coupling", table)


@dataclass(eq=False)
class GasState:
    """Levels (0 ground, 1 excited) per molecule, plus the current time."""

    levels: np.ndarray
    time: float

    @property
    def quanta(self) -> int:
        """Number of excited molecules, recomputed from the levels."""
        return int(np.count_nonzero(self.levels))


@dataclass(frozen=True)
class TransactionEvent:
    """One audited quantum transfer from an emitter to a winning absorber."""

    emitter: int
    absorber: int
    t_emit: float
    t_absorb: float
    winner_weight: float
    confirmation_size: int

    def __post_init__(self):
        if self.emitter == self.absorber:
            raise ValueError(f"emitter and absorber coincide: {self.emitter}")
        if not self.t_emit < self.t_absorb:
            raise ValueError(
                f"emission must strictly precede absorption: t_emit={self.t_emit!r}, "
                f"t_absorb={self.t_absorb!r}"
            )
        if not 0.0 < self.winner_weight <= 1.0:
            raise ValueError(f"winner weight {self.winner_weight!r} outside (0, 1]")
        if self.confirmation_size < 1:
            raise ValueError("confirmation set was empty; no transaction can form")


@dataclass(eq=False)
class Trajectory:
    """Coarse-grained record of one run, sampled at t = 0 and every absorption.

    ``n_excited`` is the number of quanta, which every event conserves.
    """

    times: np.ndarray
    left_counts: np.ndarray
    macro_entropies: np.ndarray
    n_excited: int

    def left_counts_at(self, query_times) -> np.ndarray:
        """Step-function lookup of k at arbitrary times >= 0."""
        q = np.asarray(query_times, dtype=float)
        idx = np.searchsorted(self.times, q, side="right") - 1
        if np.any(idx < 0):
            raise ValueError("query times must be >= the trajectory start")
        return self.left_counts[idx]


@dataclass(eq=False)
class Ledger:
    """Struct-of-arrays event ledger: one numpy column per field, one row per event.

    Columns follow the CSV schema without its index: ``t_e`` and ``t_a``
    (float), ``emitter`` and ``absorber`` (int64), ``winner_weight`` (float)
    and ``confirmation_set_size`` (int64). ``len``, integer indexing and
    iteration give the events as :class:`TransactionEvent` objects.
    """

    t_e: np.ndarray
    t_a: np.ndarray
    emitter: np.ndarray
    absorber: np.ndarray
    winner_weight: np.ndarray
    confirmation_set_size: np.ndarray

    def __len__(self) -> int:
        return self.t_e.shape[0]

    def __getitem__(self, index: int) -> TransactionEvent:
        return TransactionEvent(
            emitter=int(self.emitter[index]),
            absorber=int(self.absorber[index]),
            t_emit=float(self.t_e[index]),
            t_absorb=float(self.t_a[index]),
            winner_weight=float(self.winner_weight[index]),
            confirmation_size=int(self.confirmation_set_size[index]),
        )

    def __iter__(self):
        columns = (
            self.emitter, self.absorber, self.t_e, self.t_a,
            self.winner_weight, self.confirmation_set_size,
        )
        for fields in zip(*(column.tolist() for column in columns)):
            yield TransactionEvent(*fields)


def _indexed_ledger(rows) -> tuple:
    """(event indices, Ledger) of a Ledger, TransactionEvents or raw CSV rows.

    Raw rows are tuples in ``LEDGER_COLUMNS`` order and keep their own
    event_index; a Ledger or events are indexed by position.
    """
    if isinstance(rows, Ledger):
        return range(len(rows)), rows
    normalized = [
        (index, row.t_emit, row.t_absorb, row.emitter, row.absorber,
         row.winner_weight, row.confirmation_size)
        if isinstance(row, TransactionEvent) else tuple(row)
        for index, row in enumerate(rows)
    ]
    columns = list(zip(*normalized)) or [()] * len(LEDGER_COLUMNS)
    ledger = Ledger(
        t_e=np.array(columns[1], dtype=float),
        t_a=np.array(columns[2], dtype=float),
        emitter=np.array(columns[3], dtype=np.int64),
        absorber=np.array(columns[4], dtype=np.int64),
        winner_weight=np.array(columns[5], dtype=float),
        confirmation_set_size=np.array(columns[6], dtype=np.int64),
    )
    return columns[0], ledger


def init_gas(config: GasConfig) -> GasState:
    """Deterministic initial layout: molecules 0..n_excited-1 excited, t = 0."""
    levels = np.zeros(config.n_molecules, dtype=np.int8)
    levels[: config.n_excited] = 1
    return GasState(levels=levels, time=0.0)


def left_half_count(state: GasState) -> int:
    """Number of excited molecules with id < N/2."""
    n = state.levels.shape[0]
    return int(np.count_nonzero(state.levels[: (n + 1) // 2]))


def macrostate_entropy(k: int, config: GasConfig) -> float:
    """Boltzmann entropy ln[C(N/2, k) * C(N/2, n - k)] of the k macrostate.

    Requires an even molecule count; k counts excited molecules in the left
    half and n - k must fit in the right half.
    """
    n_mol = config.n_molecules
    n = config.n_excited
    if n_mol % 2 != 0:
        raise ValueError(f"macrostate entropy needs an even molecule count, got {n_mol}")
    half = n_mol // 2
    if not 0 <= k <= min(n, half):
        raise ValueError(f"k = {k} outside [0, {min(n, half)}]")
    if n - k > half:
        raise ValueError(f"k = {k} leaves {n - k} quanta for {half} right-half slots")
    return _log_binomial(half, k) + _log_binomial(half, n - k)


def _log_binomial(m: int, k: int) -> float:
    return math.lgamma(m + 1) - math.lgamma(k + 1) - math.lgamma(m - k + 1)


@functools.lru_cache(maxsize=16)
def _entropy_table(n_molecules: int, n_excited: int) -> tuple[int, np.ndarray]:
    """(k_lo, read-only macrostate entropies for k = k_lo .. min(n, N/2)), N even.

    Every member of an ensemble shares one table; the values are those of
    :func:`macrostate_entropy` on the physical k window.
    """
    half = n_molecules // 2
    k_lo = max(0, n_excited - half)
    table = np.array(
        [
            _log_binomial(half, k) + _log_binomial(half, n_excited - k)
            for k in range(k_lo, min(n_excited, half) + 1)
        ]
    )
    table.flags.writeable = False
    return k_lo, table


def next_event(state: GasState, config: GasConfig, rng: np.random.Generator) -> TransactionEvent | None:
    """Draw the next transaction, or None if no emitter/absorber pair can form.

    The total emission rate is (number of excited) * decay_rate; by the
    competing-clocks equivalence for i.i.d. exponential decay the emitter is
    uniform among excited molecules. The confirmation set is every
    ground-state molecule at the emission instant, and the winner is sampled
    over the normalized coupling weights.

    With :func:`apply_event` this is the per-event reference that the kernel
    in :func:`run` must reproduce bit for bit; it is not used by ``run``.
    """
    levels = state.levels
    excited = np.flatnonzero(levels)
    ground = np.flatnonzero(levels == 0)
    if excited.size == 0 or ground.size == 0:
        return None

    total_rate = excited.size * config.decay_rate
    waiting = -math.log1p(-rng.random()) / total_rate
    t_emit = state.time + waiting

    pick = int(rng.random() * excited.size)
    emitter = int(excited[min(pick, excited.size - 1)])

    if config.coupling is None:
        weights = np.full(ground.size, 1.0 / ground.size)
    else:
        raw = config.coupling[emitter, ground]
        total = float(raw.sum())
        if total <= 0.0:
            raise ZeroCouplingError(
                f"coupling weights from emitter {emitter} to the confirmation set are all zero"
            )
        weights = raw / total
    winner = collapse_sample(weights, rng)

    return TransactionEvent(
        emitter=emitter,
        absorber=int(ground[winner]),
        t_emit=t_emit,
        t_absorb=t_emit + config.delay,
        winner_weight=float(weights[winner]),
        confirmation_size=int(ground.size),
    )


def apply_event(state: GasState, event: TransactionEvent) -> GasState:
    """Transfer the quantum: emitter to ground, absorber to excited.

    Preconditions are hard: applying an event whose emitter is not excited or
    whose absorber is not ground would break conservation, so it raises
    :class:`TransactionError` instead of proceeding.
    """
    levels = state.levels
    n = levels.shape[0]
    if not (0 <= event.emitter < n and 0 <= event.absorber < n):
        raise TransactionError(
            f"event references molecules ({event.emitter}, {event.absorber}) outside 0..{n - 1}"
        )
    if levels[event.emitter] != 1:
        raise TransactionError(f"emitter {event.emitter} is not excited")
    if levels[event.absorber] != 0:
        raise TransactionError(f"absorber {event.absorber} is not in the ground state")
    new_levels = levels.copy()
    new_levels[event.emitter] = 0
    new_levels[event.absorber] = 1
    return GasState(levels=new_levels, time=event.t_absorb)


# Uniforms the gas kernel draws at a time: 256 (wait, pick, winner) triples.
_UNIFORM_BLOCK = 768
_TRIPLES = _UNIFORM_BLOCK // 3


def _clamp_is_identity(table: np.ndarray) -> bool:
    """True when no normalized winner weight can fall in (0, ZERO_WEIGHT).

    A normalized weight is a positive entry over a partial row sum, so it is
    at least the smallest positive entry over the largest row sum; with a
    factor 2 on each side for rounding, the ``ZERO_WEIGHT`` clamp of
    :func:`~stosszahl.measurement.inverse_cdf` then changes no weight and
    :func:`~stosszahl.measurement.inverse_cdf_unclamped` picks the same
    winner. Negative zeros are excluded because the clamp turns them into
    +0.0.
    """
    if np.signbit(table).any():
        return False
    positive = table[table > 0.0]
    return positive.size == 0 or positive.min() / (2.0 * table.sum(axis=1).max()) > 2.0 * ZERO_WEIGHT


def run(config: GasConfig, rng: np.random.Generator | None = None) -> tuple[Trajectory, Ledger]:
    """Run one trajectory up to the horizon t_max (or while no event can form).

    Returns the coarse-grained trajectory and the complete event ledger.
    Deterministic given (config, seed); pass an explicit generator to drive
    ensemble members from spawned seed sequences instead.

    The kernel is Gillespie's direct method. Quanta are conserved, so the
    total emission rate n * decay_rate and the confirmation-set size N - n
    are constants of the run. Sorted excited/ground id lists reproduce the
    ascending id order of :func:`next_event`.

    Block stepping: uniforms are drawn 768 at a time (``Generator.random(k)``
    fills the same doubles as k scalar draws) and each block is read as 256
    (wait, pick, winner) triples, so everything that does not depend on the
    state is computed for the whole block at once:

    - waiting times ``-log1p(-u) / (n * decay_rate)``, with ``math.log1p``:
      ``np.log1p`` may differ from it in the last bit (its SIMD loops do on
      AVX-512 machines), and the scalar reference uses ``math.log1p``;
    - emission and absorption times from one ``np.cumsum`` over
      ``[t, w1, delay, w2, delay, ...]``, a sequential sum, so it repeats the
      scalar recurrence ``t_emit = t + w; t = t_emit + delay`` exactly;
    - the horizon, the first absorption after t_max;
    - emitter ranks ``min(int(u * n), n - 1)`` and, for uniform coupling,
      winner ranks by ``searchsorted`` on the cumulative weights that
      :func:`collapse_sample` builds for ``np.full(N - n, 1 / (N - n))``.

    What is left per event is the list update (two pops and two insorts)
    and, for a coupling table, the weighted winner: the table row gathered
    over the ground molecules, normalized, and resolved by the inverse-CDF
    step :func:`~stosszahl.measurement.inverse_cdf`, or by
    :func:`~stosszahl.measurement.inverse_cdf_unclamped` when
    :func:`_clamp_is_identity` shows, once per run, that the ``ZERO_WEIGHT``
    clamp cannot change a weight of this table (the clamp costs two numpy
    calls per event, a comparison and a ``np.where``).

    The generator is rewound on return and advanced by exactly the uniforms
    consumed (3 per event, 1 for the event that crosses the horizon, 2 for
    an event inside the horizon whose confirmation set has zero total
    weight), also when that error ends the run. So the kernel consumes the
    random stream and produces the ledger bit-identically to composing
    :func:`next_event` and :func:`apply_event` (covered by equivalence and
    property tests). The trajectory is derived from the ledger columns.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    n = config.n_molecules
    n_quanta = config.n_excited
    m = n - n_quanta
    coupling = config.coupling
    emit_times: list[np.ndarray] = []
    emitters: list[int] = []
    absorbers: list[int] = []
    weights: list[float] = []

    if n_quanta and m:
        log1p = math.log1p
        insort = bisect.insort
        total_rate = n_quanta * config.decay_rate
        t_max = config.t_max
        last_excited = n_quanta - 1
        last_ground = m - 1
        excited = list(range(n_quanta))
        ground = list(range(n_quanta, n))
        if coupling is None:
            uniform = np.full(m, 1.0 / m)
            cumulative = np.cumsum(uniform)
            total = float(uniform.sum())
        else:
            ground_mask = np.zeros(n, dtype=bool)
            ground_mask[n_quanta:] = True
            add_reduce = np.add.reduce
            pick_winner = inverse_cdf_unclamped if _clamp_is_identity(coupling) else inverse_cdf
        # chain = [t, w1, delay, w2, delay, ...]; its cumsum interleaves t_e and t_a.
        chain = np.empty(2 * _TRIPLES + 1)
        waits = chain[1::2]
        chain[2::2] = config.delay

        # The finally clause rewinds the generator and redraws exactly the
        # uniforms consumed, so it ends where scalar draws would have left it,
        # also when a ZeroCouplingError ends the run.
        bit_generator = rng.bit_generator
        start_state = bit_generator.state
        consumed = 0
        t = 0.0
        try:
            while True:
                u = rng.random(_UNIFORM_BLOCK)
                chain[0] = t
                waits[:] = [-log1p(-x) for x in u[0::3].tolist()]
                waits /= total_rate
                times = chain.cumsum()
                # Events whose absorption is at or before t_max; the next one is the horizon.
                n_block = int(times[2::2].searchsorted(t_max, side="right"))
                picks = np.minimum((u[1 : 3 * n_block : 3] * n_quanta).astype(np.int64), last_excited)
                if coupling is None:
                    winners = np.minimum(
                        cumulative.searchsorted(u[2 : 3 * n_block : 3] * total, side="right"),
                        last_ground,
                    )
                    for pick, winner in zip(picks.tolist(), winners.tolist()):
                        emitter = excited.pop(pick)
                        absorber = ground.pop(winner)
                        insort(ground, emitter)
                        insort(excited, absorber)
                        emitters.append(emitter)
                        absorbers.append(absorber)
                else:
                    for j, (pick, u_win) in enumerate(
                        zip(picks.tolist(), u[2 : 3 * n_block : 3].tolist())
                    ):
                        emitter = excited.pop(pick)
                        raw = coupling[emitter][ground_mask]
                        raw_total = add_reduce(raw)
                        if raw_total <= 0.0:
                            consumed += 3 * j + 2
                            raise ZeroCouplingError(
                                f"coupling weights from emitter {emitter} to the confirmation set "
                                "are all zero"
                            )
                        normalized = raw / raw_total
                        winner = pick_winner(normalized, u_win)
                        weights.append(float(normalized[winner]))
                        absorber = ground.pop(winner)
                        ground_mask[emitter] = True
                        ground_mask[absorber] = False
                        insort(ground, emitter)
                        insort(excited, absorber)
                        emitters.append(emitter)
                        absorbers.append(absorber)
                emit_times.append(times[1 : 2 * n_block : 2])
                if n_block < _TRIPLES:
                    consumed += 3 * n_block + 1
                    break
                consumed += _UNIFORM_BLOCK
                t = times[-1]
        finally:
            bit_generator.state = start_state
            for _ in range(consumed // _UNIFORM_BLOCK):
                rng.random(_UNIFORM_BLOCK)
            rng.random(consumed % _UNIFORM_BLOCK)

    n_events = len(emitters)
    if coupling is None and n_events:
        weights = np.full(n_events, 1.0 / m)
    t_e = np.concatenate(emit_times) if emit_times else np.empty(0)
    ledger = Ledger(
        t_e=t_e,
        t_a=t_e + config.delay,
        emitter=np.array(emitters, dtype=np.int64),
        absorber=np.array(absorbers, dtype=np.int64),
        winner_weight=np.array(weights, dtype=float),
        confirmation_set_size=np.full(n_events, m, dtype=np.int64),
    )
    return _trajectory(config, ledger), ledger


def _left_counts(config: GasConfig, ledger: Ledger) -> np.ndarray:
    """k at t = 0 and after every event, from the emitter and absorber columns."""
    half = (config.n_molecules + 1) // 2
    steps = (ledger.absorber < half).astype(np.int64) - (ledger.emitter < half)
    return min(config.n_excited, half) + np.concatenate(([0], np.cumsum(steps)))


def _macro_entropies(config: GasConfig, left_counts: np.ndarray) -> np.ndarray:
    """Macrostate entropy of each k in ``left_counts``; NaN for an odd molecule count."""
    if config.n_molecules % 2:
        return np.full(left_counts.shape, math.nan)
    k_lo, table = _entropy_table(config.n_molecules, config.n_excited)
    return table[left_counts - k_lo]


def _trajectory(config: GasConfig, ledger: Ledger) -> Trajectory:
    """Trajectory sampled at t = 0 and at every absorption of the ledger."""
    left = _left_counts(config, ledger)
    return Trajectory(
        times=np.concatenate(([0.0], ledger.t_a)),
        left_counts=left,
        macro_entropies=_macro_entropies(config, left),
        n_excited=config.n_excited,
    )


def iter_ensemble(config: GasConfig, n_members: int):
    """Yield (trajectory, ledger) for n_members independent runs.

    Member generators come from spawning ``numpy.random.SeedSequence(seed)``,
    so the whole ensemble is reproducible from the single config seed and
    members are statistically independent.
    """
    if n_members < 1:
        raise ValueError(f"n_members must be >= 1, got {n_members}")
    for child in np.random.SeedSequence(config.seed).spawn(n_members):
        yield run(config, rng=np.random.default_rng(child))


@dataclass(eq=False)
class EnsembleSeries:
    """Ensemble statistics of k on a fixed sample-time grid.

    ``left_counts`` has one row per member; ``k_entropy`` is the Shannon
    entropy of the empirical k distribution across members at each time and
    ``mean_macro_entropy`` the ensemble mean of the macrostate entropy.
    """

    times: np.ndarray
    left_counts: np.ndarray
    k_entropy: np.ndarray
    mean_macro_entropy: np.ndarray
    mean_left_count: np.ndarray


def summarize_ensemble(config: GasConfig, times: np.ndarray, counts: np.ndarray) -> EnsembleSeries:
    """Build an :class:`EnsembleSeries` from sampled per-member k values."""
    n_seeds = counts.shape[0]
    max_k = (config.n_molecules + 1) // 2
    k_entropy = np.empty(times.size)
    mean_macro = np.empty(times.size)
    for col in range(times.size):
        histogram = np.bincount(counts[:, col], minlength=max_k + 1)
        k_entropy[col] = shannon_entropy(histogram / n_seeds)
        mean_macro[col] = float(np.mean(_macro_entropies(config, counts[:, col])))
    return EnsembleSeries(
        times=times,
        left_counts=counts,
        k_entropy=k_entropy,
        mean_macro_entropy=mean_macro,
        mean_left_count=counts.mean(axis=0),
    )


@dataclass(eq=False)
class EmpiricalRates:
    """Transition counts and dwell times for a labeled partition of gas states.

    ``rates[i][j]`` estimates the j -> i rate as observed transitions divided
    by the dwell time in label j; it is built on first access, so tallies
    that are only pooled never build a rate matrix. Labels with zero dwell
    time are flagged in ``zero_dwell_labels`` and their columns left at
    zero, never fabricated.
    """

    transition_counts: np.ndarray
    dwell_times: np.ndarray

    @property
    def n_labels(self) -> int:
        return self.dwell_times.shape[0]

    @property
    def zero_dwell_labels(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(~(self.dwell_times > 0.0)))

    @functools.cached_property
    def rates(self) -> np.ndarray:
        visited = self.dwell_times > 0.0
        rates = np.zeros_like(self.transition_counts)
        rates[:, visited] = self.transition_counts[:, visited] / self.dwell_times[visited]
        np.fill_diagonal(rates, 0.0)
        return rates


def empirical_rates(config: GasConfig, events) -> EmpiricalRates:
    """Estimate transition rates between k labels from one ledger.

    ``events`` is a :class:`Ledger` or a sequence of events, assumed to pass
    :func:`audit_ledger`. Each state is labeled by its left-half excited
    count k in 0..ceil(N/2), taken from the ledger columns, and the dwell in
    the last state ends at t_max.
    """
    ledger = _indexed_ledger(events)[1]
    if not len(ledger):
        raise ValueError("cannot estimate rates from an empty ledger")
    t_total = config.t_max
    last = float(ledger.t_a[-1])
    if t_total < last:
        raise ValueError(
            f"t_total = {t_total!r} is earlier than the last absorption {last!r}"
        )
    n_labels = (config.n_molecules + 1) // 2 + 1
    labels = _left_counts(config, ledger)
    if labels.min() < 0 or labels.max() >= n_labels:
        raise ValueError(f"state labels must lie in 0..{n_labels - 1}")

    before, after = labels[:-1], labels[1:]
    # bincount adds the weights of each label in event order, as a replay would.
    dwell = np.bincount(before, weights=np.diff(ledger.t_a, prepend=0.0), minlength=n_labels)
    dwell[labels[-1]] += t_total - last
    moved = after != before
    counts = np.bincount(
        after[moved] * n_labels + before[moved], minlength=n_labels * n_labels
    ).reshape(n_labels, n_labels).astype(float)
    return EmpiricalRates(counts, dwell)


def combine_empirical_rates(parts) -> EmpiricalRates:
    """Pool transition counts and dwell times across ledgers."""
    parts = list(parts)
    if not parts:
        raise ValueError("nothing to combine")
    return EmpiricalRates(
        sum(p.transition_counts for p in parts), sum(p.dwell_times for p in parts)
    )


# --- ledger and trajectory files -------------------------------------------

LEDGER_COLUMNS = (
    "event_index",
    "t_e",
    "t_a",
    "emitter",
    "absorber",
    "winner_weight",
    "confirmation_set_size",
)

TRAJECTORY_COLUMNS = ("t", "n", "k", "S_macro")

_INT64 = np.iinfo(np.int64)


def write_ledger_csv(path, events, header_comment: str | None = None) -> None:
    """Write a :class:`Ledger` (or a sequence of events) with 17-digit floats."""
    ledger = _indexed_ledger(events)[1]
    columns = (
        ledger.t_e, ledger.t_a, ledger.emitter, ledger.absorber,
        ledger.winner_weight, ledger.confirmation_set_size,
    )
    write_csv(
        path,
        LEDGER_COLUMNS,
        (
            (index, fmt(t_e), fmt(t_a), emitter, absorber, fmt(weight), size)
            for index, (t_e, t_a, emitter, absorber, weight, size) in enumerate(
                zip(*(column.tolist() for column in columns))
            )
        ),
        header_comment,
    )


def read_ledger_raw(path) -> list[tuple]:
    """Read ledger rows without enforcing event invariants (for auditing)."""
    lines = read_csv(path)
    if not lines or tuple(h.strip() for h in lines[0]) != LEDGER_COLUMNS:
        raise ValueError(f"{path}: missing or wrong ledger header")
    rows = []
    for row in lines[1:]:
        if len(row) != len(LEDGER_COLUMNS):
            raise ValueError(f"{path}: ragged ledger row {row!r}")
        parsed = (
            int(row[0]),
            float(row[1]),
            float(row[2]),
            int(row[3]),
            int(row[4]),
            float(row[5]),
            int(row[6]),
        )
        # The audit holds these fields in int64 columns.
        if not all(_INT64.min <= parsed[i] <= _INT64.max for i in (3, 4, 6)):
            raise ValueError(f"{path}: integer outside the int64 range in row {row!r}")
        rows.append(parsed)
    return rows


def write_trajectory_csv(path, trajectory: Trajectory, header_comment: str | None = None) -> None:
    """Write a :class:`Trajectory` with 17-digit floats; ``n`` is the conserved quanta count."""
    n = trajectory.n_excited
    write_csv(
        path,
        TRAJECTORY_COLUMNS,
        (
            [fmt(t), n, int(k), fmt(s)]
            for t, k, s in zip(trajectory.times, trajectory.left_counts, trajectory.macro_entropies)
        ),
        header_comment,
    )


# --- ledger audit -----------------------------------------------------------

@dataclass(frozen=True)
class LedgerAudit:
    """Outcome of replaying a ledger against the transaction invariants."""

    passed: bool
    n_events: int
    violations: tuple[str, ...]
    inferred_initial_excited: tuple[int, ...]


def audit_ledger(rows, n_molecules: int | None = None, initial_excited=None) -> LedgerAudit:
    """Check ledger invariants: ordering, weights, and the precondition chain.

    ``rows`` may be a :class:`Ledger`, :class:`TransactionEvent` objects, or
    raw tuples from :func:`read_ledger_raw` (whose event_index names the
    event in messages); all are checked as columns. The precondition chain
    (each emitter excited, each absorber ground at its event) is equivalent
    to per-molecule role alternation, so it can be audited without the
    initial state; the initial level of every participating molecule is
    inferred from its first role and checked against ``initial_excited``
    when that is supplied. With both ``initial_excited`` and ``n_molecules``
    every confirmation set must hold exactly the N - n ground molecules.
    Conservation holds exactly whenever the chain is consistent, since every
    event moves exactly one quantum.
    """
    index, ledger = _indexed_ledger(rows)
    t_e, t_a = ledger.t_e, ledger.t_a
    emitter, absorber = ledger.emitter, ledger.absorber
    weight, size = ledger.winner_weight, ledger.confirmation_set_size
    n_events = len(ledger)
    # Largest earlier emission time; fmax skips NaN as the running max() does.
    previous_emit = np.fmax.accumulate(np.concatenate(([-math.inf], t_e)))[:-1]

    # Interleave each event's (emitter, emit) and (absorber, absorb) appearances;
    # a stable sort by molecule keeps each molecule's roles in ledger order.
    molecules = np.column_stack((emitter, absorber)).ravel()
    absorbs = np.zeros(2 * n_events, dtype=bool)
    absorbs[1::2] = True
    order = np.argsort(molecules, kind="stable")
    by_molecule = molecules[order]
    roles = absorbs[order]
    same_molecule = by_molecule[1:] == by_molecule[:-1]
    repeated = np.zeros(2 * n_events, dtype=bool)
    repeated[order[1:]] = same_molecule & (roles[1:] == roles[:-1])
    repeated = repeated.reshape(n_events, 2)
    first = np.ones(by_molecule.size, dtype=bool)
    first[1:] = ~same_molecule
    first_molecules = by_molecule[first]
    first_absorbs = roles[first]

    id_limit = math.inf if n_molecules is None else n_molecules
    declared = None if initial_excited is None else {int(m) for m in initial_excited}
    if declared is not None and n_molecules is not None:
        expected_size = n_molecules - len(declared)
        size_mismatch = size != expected_size
    else:
        size_mismatch = np.zeros(n_events, dtype=bool)

    # Per-event checks, in the order their messages appear within one event.
    checks = (
        (~(t_e < t_a), lambda i: (
            f"t_e {t_e[i].item()!r} not strictly before t_a {t_a[i].item()!r}"
        )),
        (t_e < previous_emit, lambda i: (
            f"emission time decreased ({t_e[i].item()!r} after {previous_emit[i].item()!r})"
        )),
        (emitter == absorber, lambda i: f"emitter equals absorber ({emitter[i]})"),
        (~((0.0 < weight) & (weight <= 1.0)), lambda i: (
            f"winner weight {weight[i].item()!r} outside (0, 1]"
        )),
        (size < 1, lambda i: f"confirmation set size {size[i]} < 1"),
        (size_mismatch, lambda i: (
            f"confirmation set size {size[i]} != {expected_size} ground molecules"
        )),
        ((emitter < 0) | (emitter >= id_limit), lambda i: f"molecule id {emitter[i]} out of range"),
        ((absorber < 0) | (absorber >= id_limit), lambda i: f"molecule id {absorber[i]} out of range"),
        (repeated[:, 0], lambda i: f"molecule {emitter[i]} would emit while ground"),
        (repeated[:, 1], lambda i: f"molecule {absorber[i]} would absorb while excited"),
    )
    flagged = sorted(
        (i, rank)
        for rank, (flags, _message) in enumerate(checks)
        if flags.any()
        for i in np.flatnonzero(flags).tolist()
    )
    violations = [f"event {index[i]}: {checks[rank][1](i)}" for i, rank in flagged]

    inferred = tuple(first_molecules[~first_absorbs].tolist())
    if declared is not None:
        for mol, absorbs_first in zip(first_molecules.tolist(), first_absorbs.tolist()):
            if absorbs_first and mol in declared:
                violations.append(f"molecule {mol} absorbs first but was initially excited")
            elif not absorbs_first and mol not in declared:
                violations.append(f"molecule {mol} emits first but was not initially excited")

    return LedgerAudit(
        passed=not violations,
        n_events=n_events,
        violations=tuple(violations),
        inferred_initial_excited=inferred,
    )
