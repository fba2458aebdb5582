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

Randomness contract: every member of an ensemble draws from its own
generator, and every recorded event consumes exactly three uniforms from
it, in order: (1) the exponential waiting time by inverse CDF, (2) the
uniform emitter pick among excited molecules, and (3) the winner selection
over the confirmation set in ascending id order, by the inverse-CDF step of
:func:`stosszahl.measurement.inverse_cdf`, which
:func:`stosszahl.measurement.collapse_sample` also uses. The event that would
cross the horizon consumes only its waiting-time uniform, so a run that
records m events consumes 3m + 1 uniforms. If no event can form (no excited
molecule, or no ground molecule to confirm) nothing is consumed. A member's
ledger and its generator's final position do not depend on which other
members it was run with.

Block stepping: :func:`run` steps a batch of members in lockstep. Each
member draws its uniforms in blocks from its own generator; the waiting
times (with ``math.log1p``, not ``np.log1p``, whose vectorized loops may
round differently), the emission and absorption times, the horizon, the
emitter picks and the uniform-coupling winners are computed for a whole
block of every member at once, and with a coupling table the weighted
winners of event j of every member are resolved as one (members, N - n)
array. The result equals composing scalar draws event by event, one member
at a time, bit for bit, and leaves every generator where those draws would.

Batches: :func:`iter_ensemble` yields one batch per call of :func:`run`,
its ledger holding the members' events member after member, with the
member row bounds. :func:`audit_ledger`, :func:`empirical_rates` and
:func:`batch_left_counts` take such a ledger with its bounds and treat
every member as if alone; their results equal the calls on each member's
rows, bit for bit.

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
# perfbench/spans.py counts calls to ``collapse_sample`` looked up in this module.
from .measurement import ZERO_WEIGHT, collapse_sample  # noqa: F401
from .states import shannon_entropy


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
    iteration give the events as :class:`TransactionEvent` objects; a slice
    gives a Ledger of copies of those rows.
    """

    t_e: np.ndarray
    t_a: np.ndarray
    emitter: np.ndarray
    absorber: np.ndarray
    winner_weight: np.ndarray
    confirmation_set_size: np.ndarray

    def __len__(self) -> int:
        return self.t_e.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Ledger(
                *(column[index].copy() for column in (
                    self.t_e, self.t_a, self.emitter, self.absorber,
                    self.winner_weight, self.confirmation_set_size,
                ))
            )
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
    event_index; a Ledger or events are indexed by position, and their
    indices are None.
    """
    if isinstance(rows, Ledger):
        return None, rows
    normalized = []
    positional = True
    for index, row in enumerate(rows):
        if isinstance(row, TransactionEvent):
            normalized.append((
                index, row.t_emit, row.t_absorb, row.emitter, row.absorber,
                row.winner_weight, row.confirmation_size,
            ))
        else:
            normalized.append(tuple(row))
            positional = False
    columns = list(zip(*normalized)) or [()] * len(LEDGER_COLUMNS)
    ledger = Ledger(
        t_e=np.array(columns[1], dtype=float),
        t_a=np.array(columns[2], dtype=float),
        emitter=np.array(columns[3], dtype=np.int64),
        absorber=np.array(columns[4], dtype=np.int64),
        winner_weight=np.array(columns[5], dtype=float),
        confirmation_set_size=np.array(columns[6], dtype=np.int64),
    )
    return (None if positional else columns[0]), ledger


def _member_rows(bounds, n_events: int) -> tuple[np.ndarray, np.ndarray]:
    """(bounds, member of each row) for member row bounds, or one member if None.

    Member i of a batch ledger owns rows ``bounds[i]:bounds[i + 1]``.
    """
    if bounds is None:
        bounds = np.array([0, n_events])
    else:
        bounds = np.asarray(bounds, dtype=np.int64)
        if (
            bounds.ndim != 1 or bounds.size < 2 or bounds[0] != 0
            or bounds[-1] != n_events or np.any(bounds[1:] < bounds[:-1])
        ):
            raise ValueError(
                f"member bounds must rise from 0 to the {n_events} ledger rows"
            )
    return bounds, np.repeat(np.arange(bounds.size - 1), np.diff(bounds))


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


# Uniforms the gas kernel draws at a time: 256 (wait, pick, winner) triples.
_UNIFORM_BLOCK = 768
_TRIPLES = _UNIFORM_BLOCK // 3
# Ensemble members that :func:`iter_ensemble` steps together in one call of run.
_MEMBERS_PER_RUN = 64


def run(config: GasConfig, rng=None):
    """Run one trajectory, or a batch of them, up to the horizon t_max.

    With one generator (or None, for ``default_rng(config.seed)``) this
    returns the coarse-grained trajectory and the complete event ledger of
    one run. With a list or tuple of generators it runs one member per
    generator and returns the list of their trajectories and one
    :class:`Ledger` holding their events member after member; member i owns
    ``trajectories[i].times.size - 1`` consecutive rows. Each member's
    ledger and its generator's final position are those of a lone run on
    that generator; the audit, the rate estimator and
    :func:`batch_left_counts` read the batch ledger whole, given the member
    row bounds. If members meet a confirmation set of zero total weight,
    every member still runs to its end and the :class:`ZeroCouplingError`
    of the lowest such member is raised.

    The kernel is Gillespie's direct method. Quanta are conserved, so the
    total emission rate n * decay_rate and the confirmation-set size N - n
    are constants of the run, and the members of a batch step in lockstep.
    Each member draws 768 uniforms at a time from its own generator
    (``Generator.random(k)`` fills the same doubles as k scalar draws), read
    as 256 (wait, pick, winner) triples. For every member's block at once:

    - waiting times ``-log1p(-u) / (n * decay_rate)``, with ``math.log1p``:
      ``np.log1p`` may differ from it in the last bit (its SIMD loops do on
      AVX-512 machines);
    - emission and absorption times from a row-wise ``cumsum`` over
      ``[t, w1, delay, w2, delay, ...]``, a sequential sum, so it repeats the
      scalar recurrence ``t_emit = t + w; t = t_emit + delay`` exactly;
    - the horizon, the first absorption after t_max;
    - emitter ranks ``min(int(u * n), n - 1)`` among the excited molecules
      in ascending id order and, for uniform coupling, winner ranks by
      ``searchsorted`` on the cumulative weights of
      ``np.full(N - n, 1 / (N - n))``.

    With uniform coupling each event is then a list update (two pops and
    two insorts). With a coupling table every member keeps its excited and
    ground ids as sorted rows of two arrays, and event j of every member
    that has one is resolved together: the confirmation-set weights are
    gathered into one (members, N - n) array and normalized by their row
    sums, and the winner is taken as :func:`~stosszahl.measurement.inverse_cdf`
    takes it, row by row: the ``ZERO_WEIGHT`` clamp, then the count of
    cumulative weights at or below ``u * total`` clipped to N - n - 1, which
    is ``searchsorted(side="right")`` on a nondecreasing row. Row-wise
    ``np.add.reduce`` and ``cumsum`` of a C-contiguous array repeat the
    one-dimensional ones bit for bit.

    Each generator is rewound on return and advanced by exactly the
    uniforms its member consumed (3 per event, 1 for the event that crosses
    the horizon, 2 for an event inside the horizon whose confirmation set
    has zero total weight), also when that error ends the run. The ledger
    therefore equals the per-event composition of scalar draws bit for bit
    (covered by equivalence and property tests). Trajectories are derived
    from the ledger columns.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    batch = isinstance(rng, (list, tuple))
    blocks = _step_members(config, list(rng) if batch else [rng])
    n_events = [sum(len(block[0]) for block in member) for member in blocks]
    total = sum(n_events)
    m = config.n_molecules - config.n_excited
    t_e = _column(blocks, 0, float)
    ledger = Ledger(
        t_e=t_e,
        t_a=t_e + config.delay,
        emitter=_column(blocks, 1, np.int64),
        absorber=_column(blocks, 2, np.int64),
        winner_weight=(
            np.full(total, 1.0 / m) if config.coupling is None and total
            else _column(blocks, 3, float)
        ),
        confirmation_set_size=np.full(total, m, dtype=np.int64),
    )
    trajectories = []
    stop = 0
    for count in n_events:
        rows = slice(stop, stop + count)
        stop += count
        trajectories.append(
            _trajectory(config, ledger.t_a[rows], ledger.emitter[rows], ledger.absorber[rows])
        )
    return (trajectories, ledger) if batch else (trajectories[0], ledger)


def _column(blocks, field: int, dtype) -> np.ndarray:
    """One ledger column, the members' blocks concatenated in member order."""
    parts = [block[field] for member in blocks for block in member]
    return np.concatenate(parts, dtype=dtype) if parts else np.empty(0, dtype=dtype)


def _step_members(config: GasConfig, rngs: list) -> list[list[tuple]]:
    """Per member, the (t_e, emitters, absorbers[, weights]) of each block it stepped.

    Weights are recorded only for a coupling table. See :func:`run`.
    """
    n = config.n_molecules
    n_quanta = config.n_excited
    m = n - n_quanta
    blocks: list[list[tuple]] = [[] for _ in rngs]
    if not (n_quanta and m and rngs):
        return blocks
    coupling = config.coupling
    log1p = math.log1p
    insort = bisect.insort
    add_reduce = np.add.reduce
    total_rate = n_quanta * config.decay_rate
    t_max = config.t_max
    if coupling is None:
        id_lists = [(list(range(n_quanta)), list(range(n_quanta, n))) for _ in rngs]
        uniform = np.full(m, 1.0 / m)
        cumulative = np.cumsum(uniform)
        uniform_total = float(uniform.sum())
    else:
        flat_coupling = coupling.ravel()
        excited = np.tile(np.arange(n_quanta), (len(rngs), 1))
        ground = np.tile(np.arange(n_quanta, n), (len(rngs), 1))
    # Members still stepping; row i of excited, ground and t belongs to active[i].
    active = np.arange(len(rngs))
    t = np.zeros(len(rngs))
    # member -> message of its zero-coupling error
    failures: dict[int, str] = {}

    # The finally clause rewinds each generator and redraws exactly the
    # uniforms its member consumed, so it ends where scalar draws would have
    # left it, also when a ZeroCouplingError ends the run.
    starts = [rng.bit_generator.state for rng in rngs]
    consumed = [0] * len(rngs)
    try:
        while active.size:
            rows = active.size
            # chain = [t, w1, delay, w2, delay, ...]; its cumsum interleaves t_e and t_a.
            chain = np.empty((rows, 2 * _TRIPLES + 1))
            chain[:, 0] = t
            chain[:, 2::2] = config.delay
            pick_u = np.empty((rows, _TRIPLES))
            win_u = np.empty((rows, _TRIPLES))
            for row, member in enumerate(active.tolist()):
                u = rngs[member].random(_UNIFORM_BLOCK)
                chain[row, 1::2] = [-log1p(-x) for x in u[0::3].tolist()]
                pick_u[row] = u[1::3]
                win_u[row] = u[2::3]
            chain[:, 1::2] /= total_rate
            times = chain.cumsum(axis=1, out=chain)
            picks = np.minimum((pick_u * n_quanta).astype(np.int64), n_quanta - 1)
            # Events whose absorption is at or before t_max; the next one is the horizon.
            counts = np.count_nonzero(times[:, 2::2] <= t_max, axis=1)
            # Members step in order of descending event count, so the members
            # with an event j are a prefix; order maps that order to block rows.
            order = np.argsort(-counts, kind="stable")
            active, counts = active[order], counts[order]
            width = int(counts[0])
            emitted = np.empty((rows, width), dtype=np.int64)
            absorbed = np.empty((rows, width), dtype=np.int64)
            weights = None
            if coupling is None:
                winners = np.minimum(
                    cumulative.searchsorted(win_u * uniform_total, side="right"), m - 1
                )
                for row, (member, count) in enumerate(zip(active.tolist(), counts.tolist())):
                    excited_ids, ground_ids = id_lists[member]
                    emitters, absorbers = [], []
                    for pick, winner in zip(
                        picks[order[row], :count].tolist(), winners[order[row], :count].tolist()
                    ):
                        emitter = excited_ids.pop(pick)
                        absorber = ground_ids.pop(winner)
                        insort(ground_ids, emitter)
                        insort(excited_ids, absorber)
                        emitters.append(emitter)
                        absorbers.append(absorber)
                    emitted[row, :count] = emitters
                    absorbed[row, :count] = absorbers
            else:
                excited, ground = excited[order], ground[order]
                weights = np.empty((rows, width))
                index = np.arange(rows)
                live = rows
                for j in range(width):
                    while counts[live - 1] <= j:
                        live -= 1
                    r = index[:live]
                    x = excited[:live]
                    g = ground[:live]
                    pick = picks[order[:live], j]
                    e = x[r, pick]
                    raw = flat_coupling.take((e * n)[:, None] + g)
                    raw_total = add_reduce(raw, axis=1)
                    if raw_total.min() <= 0.0:
                        zero = raw_total <= 0.0
                        for row in np.flatnonzero(zero).tolist():
                            member = int(active[row])
                            if member not in failures:
                                consumed[member] += 3 * j + 2
                                failures[member] = (
                                    f"coupling weights from emitter {e[row]} to the "
                                    "confirmation set are all zero"
                                )
                        # A failed member steps on harmlessly; its events are dropped.
                        raw_total[zero] = 1.0
                    raw /= raw_total[:, None]
                    clamped = np.where(raw < ZERO_WEIGHT, 0.0, raw)
                    thresholds = win_u[order[:live], j] * add_reduce(clamped, axis=1)
                    winner = np.count_nonzero(
                        clamped.cumsum(axis=1) <= thresholds[:, None], axis=1
                    )
                    np.minimum(winner, m - 1, out=winner)
                    absorber = g[r, winner]
                    weights[:live, j] = raw[r, winner]
                    emitted[:live, j] = e
                    absorbed[:live, j] = absorber
                    x[r, pick] = absorber
                    x.sort(axis=1, kind="stable")
                    g[r, winner] = e
                    g.sort(axis=1, kind="stable")
            carry_on = counts == _TRIPLES
            for row, (member, count) in enumerate(zip(active.tolist(), counts.tolist())):
                if member in failures:
                    carry_on[row] = False
                    continue
                if count:
                    block = (
                        times[order[row], 1 : 2 * count : 2].copy(),
                        emitted[row, :count].copy(),
                        absorbed[row, :count].copy(),
                    )
                    if weights is not None:
                        block += (weights[row, :count].copy(),)
                    blocks[member].append(block)
                consumed[member] += _UNIFORM_BLOCK if count == _TRIPLES else 3 * count + 1
            active, t = active[carry_on], times[order[carry_on], -1]
            if coupling is not None:
                excited, ground = excited[carry_on], ground[carry_on]
        if failures:
            raise ZeroCouplingError(failures[min(failures)])
    finally:
        for rng, start, count in zip(rngs, starts, consumed):
            rng.bit_generator.state = start
            for _ in range(count // _UNIFORM_BLOCK):
                rng.random(_UNIFORM_BLOCK)
            rng.random(count % _UNIFORM_BLOCK)
    return blocks


def _left_counts(
    config: GasConfig, emitter: np.ndarray, absorber: np.ndarray, bounds=None
) -> np.ndarray:
    """k at t = 0, then k after each row, from the emitter and absorber columns.

    With member row bounds (see :func:`_member_rows`) entry r + 1 is k after
    row r within its member: each member starts again from the initial k.
    """
    half = (config.n_molecules + 1) // 2
    steps = (absorber < half).astype(np.int64) - (emitter < half)
    climb = np.concatenate(([0], np.cumsum(steps)))
    if bounds is not None:
        climb[1:] -= np.repeat(climb[bounds[:-1]], np.diff(bounds))
    return min(config.n_excited, half) + climb


def _macro_entropies(config: GasConfig, left_counts: np.ndarray) -> np.ndarray:
    """Macrostate entropy of each k in ``left_counts``; NaN for an odd molecule count."""
    if config.n_molecules % 2:
        return np.full(left_counts.shape, math.nan)
    k_lo, table = _entropy_table(config.n_molecules, config.n_excited)
    return table[left_counts - k_lo]


def _trajectory(config: GasConfig, t_a, emitter, absorber) -> Trajectory:
    """Trajectory sampled at t = 0 and at every absorption, from the ledger columns."""
    left = _left_counts(config, emitter, absorber)
    return Trajectory(
        times=np.concatenate(([0.0], t_a)),
        left_counts=left,
        macro_entropies=_macro_entropies(config, left),
        n_excited=config.n_excited,
    )


def iter_ensemble(config: GasConfig, n_members: int):
    """Yield (trajectories, ledger, bounds) for n_members independent runs.

    Member generators come from spawning ``numpy.random.SeedSequence(seed)``,
    so the whole ensemble is reproducible from the single config seed and
    members are statistically independent. Members are stepped in batches
    of up to ``_MEMBERS_PER_RUN``, one call of :func:`run` per batch, and
    each batch is yielded as run returns it, in member order, with its
    member row bounds: the batch's member i owns ledger rows
    ``bounds[i]:bounds[i + 1]``. :func:`audit_ledger`,
    :func:`empirical_rates` and :func:`batch_left_counts` take a batch
    ledger with its bounds; ``ledger[bounds[i]:bounds[i + 1]]`` copies one
    member's ledger out.
    """
    if n_members < 1:
        raise ValueError(f"n_members must be >= 1, got {n_members}")
    children = np.random.SeedSequence(config.seed).spawn(n_members)
    for first in range(0, n_members, _MEMBERS_PER_RUN):
        rngs = [np.random.default_rng(child) for child in children[first : first + _MEMBERS_PER_RUN]]
        trajectories, ledger = run(config, rngs)
        bounds = np.cumsum([0] + [trajectory.times.size - 1 for trajectory in trajectories])
        yield trajectories, ledger, bounds
        # Free this batch before the next one is stepped.
        del trajectories, ledger


def batch_left_counts(config: GasConfig, ledger: Ledger, bounds, query_times) -> np.ndarray:
    """k of every member of a batch ledger at each query time, one row per member.

    Row i equals ``trajectories[i].left_counts_at(query_times)`` for the
    trajectories :func:`run` returned with the ledger. Query times are one
    dimensional and nonnegative. Each row's absorption time is located once
    among the sorted queries, and one ``bincount`` over (member, first query
    at or after it) counts every member's absorptions up to every query.
    """
    q = np.asarray(query_times, dtype=float)
    if np.any(q < 0.0):
        raise ValueError("query times must be >= the trajectory start")
    bounds, member = _member_rows(bounds, len(ledger))
    labels = _left_counts(config, ledger.emitter, ledger.absorber, bounds)
    order = np.argsort(q, kind="stable")
    width = q.size + 1
    arrivals = np.bincount(
        member * width + q[order].searchsorted(ledger.t_a), minlength=(bounds.size - 1) * width
    )
    # past[i, j]: absorptions of member i at or before the j-th smallest query.
    past = arrivals.reshape(-1, width).cumsum(axis=1)[:, :-1]
    counts = np.empty(past.shape, dtype=labels.dtype)
    counts[:, order] = labels[np.where(past > 0, bounds[:-1, None] + past, 0)]
    return counts


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


def empirical_rates(config: GasConfig, events, bounds=None):
    """Estimate transition rates between k labels from one ledger, or per member of a batch.

    ``events`` is a :class:`Ledger` or a sequence of events, assumed to pass
    :func:`audit_ledger`. Each state is labeled by its left-half excited
    count k in 0..ceil(N/2), taken from the ledger columns, and the dwell in
    the last state ends at t_max.

    With member row bounds (as :func:`iter_ensemble` yields them) this
    returns one :class:`EmpiricalRates` per member, None for a member
    without events, each equal bit for bit to the estimate from that
    member's rows alone. Every member's dwell times come from one
    ``bincount`` over ``member * n_labels + label``, which adds each
    member's dwell weights in event order, and its transition counts from
    another; pool members by adding their tallies one member at a time.
    """
    ledger = _indexed_ledger(events)[1]
    batch = bounds is not None
    if not (batch or len(ledger)):
        raise ValueError("cannot estimate rates from an empty ledger")
    bounds, member = _member_rows(bounds, len(ledger))
    sizes = np.diff(bounds)
    n_members = sizes.size
    if not len(ledger):
        return [None] * n_members
    t_total = config.t_max
    firsts = bounds[:-1][sizes > 0]
    lasts = bounds[1:][sizes > 0] - 1
    last = ledger.t_a[lasts]
    early = np.flatnonzero(t_total < last)
    if early.size:
        raise ValueError(
            f"t_total = {t_total!r} is earlier than the last absorption {last[early[0]].item()!r}"
        )
    n_labels = (config.n_molecules + 1) // 2 + 1
    labels = _left_counts(config, ledger.emitter, ledger.absorber, bounds)
    if labels.min() < 0 or labels.max() >= n_labels:
        raise ValueError(f"state labels must lie in 0..{n_labels - 1}")

    after = labels[1:]
    before = labels[:-1].copy()
    before[firsts] = labels[0]
    spans = np.diff(ledger.t_a, prepend=0.0)
    spans[firsts] = ledger.t_a[firsts]
    # bincount adds the weights of each label in event order, as a replay would.
    dwell = np.bincount(
        member * n_labels + before, weights=spans, minlength=n_members * n_labels
    ).reshape(n_members, n_labels)
    dwell[np.flatnonzero(sizes), after[lasts]] += t_total - last
    moved = after != before
    transitions = ((member * n_labels + after) * n_labels + before)[moved]
    # Unit weights count straight into floats, exactly (casting a counted array costs more);
    # bincount of no transitions returns int64 whatever the weights, hence the no-copy astype.
    counts = np.bincount(
        transitions, weights=np.ones(transitions.size), minlength=n_members * n_labels * n_labels
    ).astype(float, copy=False).reshape(n_members, n_labels, n_labels)
    if not batch:
        return EmpiricalRates(counts[0], dwell[0])
    return [
        EmpiricalRates(counts[i], dwell[i]) if size else None
        for i, size in enumerate(sizes.tolist())
    ]


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

def _chain_keys(molecules: np.ndarray, member: np.ndarray, n_members: int) -> np.ndarray:
    """Keys in (member, molecule) order of interleaved emitter and absorber ids.

    ``molecules`` holds each row's emitter and absorber, row after row, and
    ``member`` the member of each row. The keys take the narrowest unsigned
    type, so that numpy's stable sort takes its radix path on keys of 16
    bits or less. Ids too far apart to pack beside the member index in an
    int64 are replaced by their ranks first.
    """
    if not molecules.size:
        return molecules
    lo = int(molecules.min())
    span = int(molecules.max()) - lo + 1
    if n_members * span > _INT64.max:
        molecules = np.unique(molecules, return_inverse=True)[1]
        lo, span = 0, int(molecules.max()) + 1
    keys = member[:, None] * span + (molecules - lo).reshape(-1, 2)
    return keys.ravel().astype(np.min_scalar_type(n_members * span - 1))


@dataclass(frozen=True)
class LedgerAudit:
    """Outcome of replaying a ledger against the transaction invariants.

    For a batch ledger ``inferred_initial_excited`` holds one tuple per
    member.
    """

    passed: bool
    n_events: int
    violations: tuple[str, ...]
    inferred_initial_excited: tuple


def audit_ledger(
    rows, n_molecules: int | None = None, initial_excited=None, bounds=None
) -> LedgerAudit:
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

    With member row bounds (as :func:`iter_ensemble` yields them) every
    member of a batch ledger is audited as if alone, from the same initial
    state: role chains are keyed by (member, molecule), the emission order
    restarts at each member, and each member's messages are those of its
    lone audit, in member order, prefixed ``member <m> `` with m the
    member's position in the batch (so ``member 2 event 5: ...``).
    """
    index, ledger = _indexed_ledger(rows)
    t_e, t_a = ledger.t_e, ledger.t_a
    emitter, absorber = ledger.emitter, ledger.absorber
    weight, size = ledger.winner_weight, ledger.confirmation_set_size
    n_events = len(ledger)
    batch = bounds is not None
    bounds, member = _member_rows(bounds, n_events)
    n_members = bounds.size - 1
    position = np.arange(n_events) - bounds[member]
    # Largest earlier emission time in the same member, from a running max
    # over a -inf-led row per member; fmax skips NaN as the running max() does.
    width = int(np.diff(bounds).max()) + 1
    slots = member * width + position + 1
    emissions = np.full(n_members * width, -math.inf)
    emissions[slots] = t_e
    running = np.fmax.accumulate(emissions.reshape(n_members, width), axis=1)
    previous_emit = running.ravel()[slots - 1]

    # Interleave each event's (emitter, emit) and (absorber, absorb) appearances,
    # absorptions in the odd slots; a stable sort by (member, molecule) keeps
    # each role chain in ledger order.
    molecules = np.column_stack((emitter, absorber)).ravel()
    keys = _chain_keys(molecules, member, n_members)
    order = np.argsort(keys, kind="stable")
    by_chain = keys[order]
    roles = (order & 1).astype(bool)
    same_chain = by_chain[1:] == by_chain[:-1]
    repeated = np.zeros(2 * n_events, dtype=bool)
    repeated[order[1:]] = same_chain & (roles[1:] == roles[:-1])
    repeated = repeated.reshape(n_events, 2)
    first = np.ones(keys.size, dtype=bool)
    first[1:] = ~same_chain
    first_slots = order[first]
    first_molecules = molecules[first_slots]
    first_owners = member[first_slots >> 1]
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
    # (member, message) pairs: each member's event messages, then its molecule messages.
    found = [
        (member[i], f"event {position[i] if index is None else index[i]}: {checks[rank][1](i)}")
        for i, rank in flagged
    ]
    if declared is not None:
        # Ids beyond int64 can match no molecule of a ledger.
        ids = np.array([m for m in declared if _INT64.min <= m <= _INT64.max], dtype=np.int64)
        wrong = first_absorbs == np.isin(first_molecules, ids)
        for slot in np.flatnonzero(wrong).tolist():
            mol = first_molecules[slot]
            found.append((first_owners[slot], (
                f"molecule {mol} absorbs first but was initially excited" if first_absorbs[slot]
                else f"molecule {mol} emits first but was not initially excited"
            )))
    if batch:
        found.sort(key=lambda pair: pair[0])
        violations = tuple(f"member {m} {message}" for m, message in found)
    else:
        violations = tuple(message for _m, message in found)

    emits_first = ~first_absorbs
    inferred = first_molecules[emits_first].tolist()
    if batch:
        starts = first_owners[emits_first].searchsorted(np.arange(n_members)).tolist()
        inferred = tuple(
            tuple(inferred[a:b]) for a, b in zip(starts, starts[1:] + [len(inferred)])
        )
    else:
        inferred = tuple(inferred)
    return LedgerAudit(
        passed=not violations,
        n_events=n_events,
        violations=violations,
        inferred_initial_excited=inferred,
    )
