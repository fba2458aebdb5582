"""Event-driven gas of two-level molecules exchanging single energy quanta.

Each transfer is a discrete transaction: an excited molecule (the emitter)
fires after an exponential waiting time, every ground-state molecule at that
instant forms the confirmation set, and exactly one of them wins the quantum
with its normalized coupling weight. The emitter drops to ground, the winner
rises to excited, and the ledger records the pair with its emission and
absorption timestamps. Emission strictly precedes absorption in every event,
total quanta are conserved exactly, and a member is bit-reproducible from
its generator, an ensemble from its config seed.

Ledger: :func:`run` steps one member per generator it is given and returns
``(bounds, ledger)``: the events as a :class:`Ledger`, one numpy column per
field (``t_e, t_a, emitter, absorber, winner_weight,
confirmation_set_size``) and one row per event, members one after another,
and the member row bounds. The columns are the only record
of the events: the audit, the rate estimator, the k lookup and the CSV
writers read them, and a slice copies one member's rows out. In a ledger
from :func:`run`, ``confirmation_set_size`` (N - n at every event) and, with
uniform coupling, ``winner_weight`` (1 / (N - n)) are read-only zero-stride
views of their one value; every other column, and every column of a slice or
of :func:`read_ledger`, is materialized.

Ledger files: :func:`write_ledger_csv` numbers the rows in an ``event_index``
column and :func:`read_ledger` reads them back into a Ledger, so the audit
takes one format from a run or a file. :func:`audit_ledger_file`, behind
``stosszahl audit`` and the ``ledger-audit`` scenario, audits a file against
the initial layout of :func:`run`, with n taken from its confirmation set size.

Horizon: a run records every event whose absorption time t_a is at or before
t_max and stops at the first event whose t_a would pass it. Every recorded
transaction therefore completes inside the window, and the dwell in the last
state ends at t_max.

Randomness contract: :func:`run` steps the generators it is given and no
other. Member i of an ensemble draws from child i of ``SeedSequence(seed)``
(see :func:`iter_ensemble`, the one reader of the config seed), and event j
of a member uses uniforms 3j, 3j + 1 and 3j + 2 of its stream, in order:
(1) the exponential waiting time by inverse CDF, (2)
the uniform emitter pick among excited molecules, and (3) the winner
selection over the confirmation set in ascending id order, by the
inverse-CDF step of :func:`stosszahl.measurement.inverse_cdf`, which
:func:`stosszahl.measurement.collapse_sample` also uses. That stream order
defines the ledger, so a member's ledger does not depend on which other
members it was run with. :func:`run` consumes its generators: where it
leaves them is not part of the contract.

Block stepping: :func:`run` steps a batch of members in lockstep, along one
path for uniform coupling and for a coupling table. Each member draws its
uniforms from its own generator in blocks sized to its expected event count,
straight into its row of the batch's block array. The waiting times (with
``math.log1p``, not ``np.log1p``, whose vectorized loops may round
differently), the emission and absorption times, the horizon,
the emitter picks and the uniform-coupling winner ranks are computed for a
whole block of every member at once. Event j of every member is then resolved
together on the sorted excited and ground ids of all members, read and written
at flat indices; only a coupling table computes its winner ranks there, from
one (members, N - n) weight array. Each block array is dropped once it is
used, so a batch holds each transaction about once at a time.
The result equals composing scalar draws event by event, one member at a
time, bit for bit.

Batches: :func:`iter_ensemble` yields one ``(bounds, ledger)`` batch per
call of :func:`run`, its ledger holding the members' events member after
member. :func:`audit_ledger` and :func:`batch_left_counts` take such a
ledger with its bounds and treat every member as if alone, bit for bit;
:func:`empirical_rates` always takes the bounds and adds the batch to one
pooled tally, equal bit for bit to adding the members' one-member tallies in
member order.

Coarse graining: the macro-observable is k, the number of excited molecules
in the left half (ids below N/2). Its Boltzmann entropy is the log
multiplicity ln[C(N/2, k) * C(N/2, n - k)] of the macrostate, computed with
log-gamma. With the default layout (molecules 0..n0-1 excited) a half-filled
gas starts in the unique k = n0 macrostate and relaxes toward the maximum
of the multiplicity curve.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .csvio import read_csv, write_csv
# perfbench/spans.py counts calls to ``collapse_sample`` looked up in this module.
from .measurement import ZERO_WEIGHT, collapse_sample, inverse_cdf, spawn_generators  # noqa: F401
from .states import neg_sum_x_ln_x


# A waiting time is up to 37 / (n_excited * decay_rate): at 5e-324 it overflowed to inf.
MIN_DECAY_RATE = 1e-300


class ZeroCouplingError(ValueError):
    """An emitter's coupling weights to its confirmation set sum to zero."""


@dataclass(frozen=True, eq=False)
class GasConfig:
    """Parameters of one gas realization.

    ``delay`` is the emission-to-absorption propagation delay and must be
    above half the float spacing at t_max, so the event ordering invariant
    t_emit < t_absorb holds in floats; it defaults to 1e-6 / decay_rate.
    ``coupling`` is None for uniform weights over the confirmation set, or an
    (N, N) table of nonnegative per-pair weights indexed [emitter, absorber],
    each row with a finite sum.
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
        if not self.decay_rate >= MIN_DECAY_RATE:
            raise ValueError(f"decay_rate must be >= {MIN_DECAY_RATE}, got {self.decay_rate}")
        if not self.t_max > 0.0:
            raise ValueError(f"t_max must be positive, got {self.t_max}")
        if self.delay is None:
            object.__setattr__(self, "delay", 1e-6 / self.decay_rate)
        if not self.delay > 0.0:
            raise ValueError(
                f"delay must be strictly positive to keep emission before absorption, got {self.delay}"
            )
        # Every recorded t_e is below t_max, so its float spacing is at most ulp(t_max).
        if not self.delay > math.ulp(self.t_max) / 2:
            raise ValueError(
                f"delay {self.delay!r} must exceed half the float spacing {math.ulp(self.t_max)!r} "
                f"at t_max = {self.t_max!r}, or t_e + delay rounds back to t_e"
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
            # A finite row sum makes each weight, and each confirmation set's total, finite.
            with np.errstate(over="ignore", invalid="ignore"):
                row_sums = table.sum(axis=1)
            if not np.all(np.isfinite(row_sums)):
                raise ValueError("coupling weights and each emitter's sum of them must be finite")
            if np.min(table) < 0.0:
                raise ValueError("coupling weights must be nonnegative")
            object.__setattr__(self, "coupling", table)


@dataclass(eq=False)
class Ledger:
    """Struct-of-arrays event ledger: one numpy column per field, one row per event.

    Columns follow the CSV schema without its index: ``t_e`` and ``t_a``
    (float), ``emitter`` and ``absorber`` (int64), ``winner_weight`` (float)
    and ``confirmation_set_size`` (int64). A slice gives a Ledger of copies
    of those rows; a ledger is not indexed by event. :func:`run` gives
    ``confirmation_set_size``, and with uniform coupling ``winner_weight``,
    as read-only zero-stride views of their constant value (copy one to edit
    it); a slice and :func:`read_ledger` materialize every column.
    """

    t_e: np.ndarray
    t_a: np.ndarray
    emitter: np.ndarray
    absorber: np.ndarray
    winner_weight: np.ndarray
    confirmation_set_size: np.ndarray

    def __len__(self) -> int:
        return self.t_e.shape[0]

    def __getitem__(self, rows: slice) -> Ledger:
        if not isinstance(rows, slice):
            raise TypeError(f"a Ledger takes a slice of rows, not {type(rows).__name__}")
        return Ledger(*(column[rows].copy() for column in vars(self).values()))


def _member_rows(bounds, n_events: int) -> tuple[np.ndarray, np.ndarray]:
    """(bounds, member of each row) for member row bounds.

    Member i of a batch ledger owns rows ``bounds[i]:bounds[i + 1]``.
    """
    bounds = np.asarray(bounds, dtype=np.int64)
    if (
        bounds.ndim != 1 or bounds.size < 2 or bounds[0] != 0
        or bounds[-1] != n_events or np.any(bounds[1:] < bounds[:-1])
    ):
        raise ValueError(f"member bounds must rise from 0 to the {n_events} ledger rows")
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
    k_lo, table = _entropy_table(n_mol, n)
    return float(table[k - k_lo])


def _log_binomial(m: int, k: int) -> float:
    return math.lgamma(m + 1) - math.lgamma(k + 1) - math.lgamma(m - k + 1)


@functools.lru_cache(maxsize=16)
def _entropy_table(n_molecules: int, n_excited: int) -> tuple[int, np.ndarray]:
    """(k_lo, read-only macrostate entropies for k = k_lo .. min(n, N/2)), N even.

    Every member of an ensemble shares one table, and
    :func:`macrostate_entropy` reads its values from it.
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


# Ensemble members that :func:`iter_ensemble` steps together in one call of run.
_MEMBERS_PER_RUN = 256


def run(config: GasConfig, rngs):
    """Run a batch of members, one per generator of ``rngs``, up to the horizon t_max.

    ``rngs`` is a sequence of generators, one member each; ``config.seed``
    is not read here (it is the ensemble root of :func:`iter_ensemble`).
    This returns ``(bounds, ledger)``: one :class:`Ledger` holding the
    members' events member after member, member i owning rows
    ``bounds[i]:bounds[i + 1]``, so one generator gives ``bounds == [0,
    len(ledger)]``. Each member's rows are those of a run on its generator
    alone; the audit, :func:`batch_left_counts` and the pooled rate tally
    read the batch ledger whole, given the bounds. If members meet a
    confirmation set of zero total weight, every member still runs to its
    end and the :class:`ZeroCouplingError` of the lowest such member is
    raised.

    The kernel is Gillespie's direct method. Quanta are conserved, so the
    total emission rate n * decay_rate and the confirmation-set size N - n
    are constants of the run, and the members of a batch step in lockstep.
    Each member draws a block of (wait, pick, winner) triples (:func:`_block_triples`)
    into its row of one array (``Generator.random(out=row)`` fills the same
    doubles as k scalar draws). For every member's block at once:

    - waiting times ``log1p(-u) / -(n * decay_rate)``, by one ``math.log1p``
      pass in the batch's order: ``np.log1p`` may differ from it in the last bit;
    - emission and absorption times from a row-wise ``cumsum`` over
      ``[t, w1, delay, w2, delay, ...]``, a sequential sum, so it repeats the
      scalar recurrence ``t_emit = t + w; t = t_emit + delay`` exactly;
    - the horizon, the first absorption after t_max;
    - emitter ranks ``min(int(u * n), n - 1)`` among the excited molecules
      in ascending id order and, for uniform coupling, winner ranks by
      :func:`~stosszahl.measurement.inverse_cdf` of
      ``np.full(N - n, 1 / (N - n))``, equal weights it ranks without a search.

    Every member keeps its excited and ground ids as sorted int32 rows of two
    C-contiguous arrays, and event j of every member that has one is
    resolved together: the emitter is taken at its rank, the winner at its
    rank among the ground ids, each by a flat ``take``, and the two ids swap
    rows by flat ``put``, each row sorted again (its ids are distinct, so
    every sort kind gives the same row). With a coupling
    table the winner rank depends on the state: the
    confirmation-set weights are gathered into one (members, N - n) array
    and normalized by their row sums, and the winner is taken as
    :func:`~stosszahl.measurement.inverse_cdf` takes it, row by row: the
    ``ZERO_WEIGHT`` clamp (skipped when no weight is below it), then the
    count of cumulative weights at or below ``u * total`` clipped to
    N - n - 1, which is ``searchsorted(side="right")`` on a nondecreasing
    row. Row-wise ``np.add.reduce`` and ``cumsum`` of a C-contiguous array
    repeat the one-dimensional ones bit for bit.

    The ledger equals the per-event composition of scalar draws bit for bit
    (covered by equivalence and property tests). The generators are
    consumed: each is left wherever its member's last block left it.
    """
    blocks = _step_members(config, rngs)
    bounds = np.cumsum([0] + [sum(len(block[0]) for block in member) for member in blocks])
    t_e = _column(blocks, 0, float)
    m = config.n_molecules - config.n_excited
    ledger = Ledger(
        t_e=t_e,
        t_a=t_e + config.delay,
        emitter=_column(blocks, 1, np.int64),
        absorber=_column(blocks, 2, np.int64),
        # A uniform winner weight is 1 / (N - n) at every event; N = n has none.
        winner_weight=(
            np.broadcast_to(1.0 / max(m, 1), t_e.shape) if config.coupling is None
            else _column(blocks, 3, float)
        ),
        confirmation_set_size=np.broadcast_to(np.int64(m), t_e.shape),
    )
    return bounds, ledger


def _column(blocks, field: int, dtype) -> np.ndarray:
    """One ledger column, the members' blocks concatenated in member order."""
    parts = [block[field] for member in blocks for block in member]
    return np.concatenate(parts, dtype=dtype) if parts else np.empty(0, dtype=dtype)


def _block_triples(config: GasConfig) -> int:
    """The (wait, pick, winner) triples each member draws at a time, at most 256.

    Room for lam + 4 sqrt(lam) events plus the horizon's triple, where lam =
    n * decay_rate * t_max is a member's mean event count: most need one block.
    """
    lam = config.n_excited * config.decay_rate * config.t_max
    return math.ceil(min(lam + 4.0 * math.sqrt(lam), 255.0)) + 1


def _step_members(config: GasConfig, rngs: list) -> list[list[tuple]]:
    """Per member, the (t_e, int32 emitters and absorbers[, table weights]) of each block it stepped.

    See :func:`run`.
    """
    n = config.n_molecules
    n_quanta = config.n_excited
    m = n - n_quanta
    blocks: list[list[tuple]] = [[] for _ in rngs]
    if not (n_quanta and m and rngs):
        return blocks
    coupling = config.coupling
    log1p = math.log1p
    add_reduce = np.add.reduce
    total_rate = n_quanta * config.decay_rate
    t_max = config.t_max
    if coupling is None:
        uniform = np.full(m, 1.0 / m)
    else:
        flat_coupling = coupling.ravel()
    # Members still stepping; row i of excited, ground and t belongs to active[i].
    active = np.arange(len(rngs))
    excited = np.tile(np.arange(n_quanta, dtype=np.int32), (len(rngs), 1))
    ground = np.tile(np.arange(n_quanta, n, dtype=np.int32), (len(rngs), 1))
    t = np.zeros(len(rngs))
    # member -> message of its zero-coupling error
    failures: dict[int, str] = {}

    triples = _block_triples(config)
    while active.size:
        rows = active.size
        u = np.empty((rows, 3 * triples))
        for row, member in enumerate(active.tolist()):
            rngs[member].random(out=u[row])
        # times = cumsum of [t, w1, delay, w2, delay, ...]: it interleaves t_e and t_a.
        times = np.empty((rows, 2 * triples + 1))
        times[:, 0] = t
        times[:, 2::2] = config.delay
        # One math.log1p pass over the batch; iterating a memoryview builds no list.
        neg_u = -u[:, 0::3]
        waits = np.fromiter(map(log1p, memoryview(neg_u.ravel())), float, neg_u.size)
        # Equal to -log1p(-u) / rate bit for bit: division is sign-symmetric.
        times[:, 1::2] = waits.reshape(neg_u.shape) / -total_rate
        # Both are dropped before the stepping below, where a batch peaks.
        del neg_u, waits
        times.cumsum(axis=1, out=times)
        # Events whose absorption is at or before t_max; the next one is the horizon.
        counts = np.count_nonzero(times[:, 2::2] <= t_max, axis=1)
        # Members step in order of descending event count, so the members
        # with an event j are a prefix of the rows.
        order = np.argsort(-counts, kind="stable")
        width = int(counts[order[0]])
        # Ranks become flat indices into the C-contiguous id rows: row * row length + rank.
        ground_rows = np.arange(0, rows * m, m)
        picks = np.minimum((u[order, 1 : 3 * width : 3] * n_quanta).astype(np.int64), n_quanta - 1)
        picks += np.arange(0, rows * n_quanta, n_quanta)[:, None]
        win_u = u[order, 2 : 3 * width : 3]
        del u
        active, counts, times = active[order], counts[order], times[order]
        excited, ground = excited[order], ground[order]
        emitted = np.empty((rows, width), dtype=np.int32)
        absorbed = np.empty((rows, width), dtype=np.int32)
        if coupling is None:
            winners = inverse_cdf(uniform, win_u)
            winners += ground_rows[:, None]
        else:
            weights = np.empty((rows, width))
        live = rows
        for j in range(width):
            while counts[live - 1] <= j:
                live -= 1
            x = excited[:live]
            g = ground[:live]
            at_pick = picks[:live, j]
            e = x.take(at_pick)
            if coupling is None:
                at_winner = winners[:live, j]
            else:
                raw = flat_coupling.take((e * n)[:, None] + g)
                raw_total = add_reduce(raw, axis=1)
                if raw_total.min() <= 0.0:
                    zero = raw_total <= 0.0
                    for row in np.flatnonzero(zero).tolist():
                        failures.setdefault(int(active[row]), (
                            f"coupling weights from emitter {e[row]} to the "
                            "confirmation set are all zero"
                        ))
                    # A failed member steps on harmlessly; its events are dropped.
                    raw_total[zero] = 1.0
                raw /= raw_total[:, None]
                clamped = raw if raw.min() >= ZERO_WEIGHT else np.where(raw < ZERO_WEIGHT, 0.0, raw)
                thresholds = win_u[:live, j] * add_reduce(clamped, axis=1)
                winner = (clamped.cumsum(axis=1) <= thresholds[:, None]).sum(axis=1)
                np.minimum(winner, m - 1, out=winner)
                # raw has the (live, N - n) layout of g, so one flat index serves both.
                at_winner = ground_rows[:live] + winner
                weights[:live, j] = raw.take(at_winner)
            absorber = g.take(at_winner)
            emitted[:live, j] = e
            absorbed[:live, j] = absorber
            x.put(at_pick, absorber)
            x.sort(axis=1)
            g.put(at_winner, e)
            g.sort(axis=1)
        carry_on = counts == triples
        columns = (times[:, 1::2], emitted, absorbed) + (() if coupling is None else (weights,))
        for row, (member, count) in enumerate(zip(active.tolist(), counts.tolist())):
            if member in failures:
                carry_on[row] = False
            elif count:
                blocks[member].append(tuple(column[row, :count].copy() for column in columns))
        active, t = active[carry_on], times[carry_on, -1]
        excited, ground = excited[carry_on], ground[carry_on]
    if failures:
        raise ZeroCouplingError(failures[min(failures)])
    return blocks


def _left_counts(config: GasConfig, emitter: np.ndarray, absorber: np.ndarray, bounds) -> np.ndarray:
    """k at t = 0, then k after each row, from the emitter and absorber columns.

    Given the member row bounds (see :func:`_member_rows`), entry r + 1 is k
    after row r within its member: each member starts again from the initial k.
    """
    half = (config.n_molecules + 1) // 2
    steps = (absorber < half).astype(np.int64) - (emitter < half)
    climb = np.concatenate(([0], np.cumsum(steps)))
    climb[1:] -= np.repeat(climb[bounds[:-1]], np.diff(bounds))
    return min(config.n_excited, half) + climb


def _macro_entropies(config: GasConfig, left_counts: np.ndarray) -> np.ndarray:
    """Macrostate entropy of each k in ``left_counts``; NaN for an odd molecule count."""
    if config.n_molecules % 2:
        return np.full(left_counts.shape, math.nan)
    k_lo, table = _entropy_table(config.n_molecules, config.n_excited)
    return table[left_counts - k_lo]


def iter_ensemble(config: GasConfig, n_members: int):
    """Yield (bounds, ledger) for n_members independent runs, one batch at a time.

    Member generators come from spawning ``numpy.random.SeedSequence(seed)``,
    a batch at a time by :func:`~stosszahl.measurement.spawn_generators`,
    so the whole ensemble is reproducible from the single config seed and
    members are statistically independent. Members are stepped in batches
    of up to ``_MEMBERS_PER_RUN``, one call of :func:`run` per batch, and
    each batch is yielded as run returns it, in member order: the batch's
    member i owns ledger rows ``bounds[i]:bounds[i + 1]``.
    :func:`audit_ledger` and :func:`batch_left_counts` take a batch ledger
    with its bounds, and ``pooled = empirical_rates(config, ledger, bounds,
    pooled)``, from None, pools the rate tallies, the same bits at any batch
    width; ``ledger[bounds[i]:bounds[i + 1]]`` copies one member out.
    """
    if n_members < 1:
        raise ValueError(f"n_members must be >= 1, got {n_members}")
    for first in range(0, n_members, _MEMBERS_PER_RUN):
        rngs = spawn_generators(config.seed, first, min(first + _MEMBERS_PER_RUN, n_members))
        yield run(config, rngs)


def batch_left_counts(config: GasConfig, ledger: Ledger, bounds, query_times) -> np.ndarray:
    """k of every member of a batch ledger at each query time, one row per member.

    Row i holds, at each query time, member i's k after its last absorption
    at or before that time (its initial k before its first). Query times are
    one dimensional and nonnegative. Each row's absorption time is located once
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

    ``k_entropy`` is the Shannon entropy of the empirical k distribution
    across members at each time and ``mean_macro_entropy`` the ensemble mean
    of the macrostate entropy.
    """

    k_entropy: np.ndarray
    mean_macro_entropy: np.ndarray
    mean_left_count: np.ndarray


def summarize_ensemble(config: GasConfig, counts: np.ndarray) -> EnsembleSeries:
    """Build an :class:`EnsembleSeries` from k sampled per member (rows) and time (columns)."""
    n_seeds, n_times = counts.shape
    max_k = (config.n_molecules + 1) // 2
    k_entropy = np.empty(n_times)
    mean_macro = np.empty(n_times)
    for col in range(n_times):
        histogram = np.bincount(counts[:, col], minlength=max_k + 1)
        k_entropy[col] = neg_sum_x_ln_x(histogram / n_seeds)
        mean_macro[col] = float(np.mean(_macro_entropies(config, counts[:, col])))
    return EnsembleSeries(
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


def empirical_rates(config: GasConfig, ledger: Ledger, bounds, pooled=None):
    """Pool the transition counts and dwell times of a batch ledger's members into a tally.

    ``ledger`` is assumed to pass :func:`audit_ledger`. Each state is
    labeled by its left-half excited count k in 0..ceil(N/2), taken from the
    ledger columns, and the dwell in each member's last state ends at t_max.

    ``bounds`` are the member row bounds (as :func:`run` and
    :func:`iter_ensemble` give them; ``[0, len(ledger)]`` for one member).
    This returns a new :class:`EmpiricalRates`, ``pooled`` (None for zero)
    plus every member's tallies, equal bit for bit to adding each member's
    one-member tally in member order. A member without events adds a dwell
    of t_max in the initial label, where it sat for the whole run. The
    transition counts, integers, come from one ``bincount``. The dwell rows
    come from a ``bincount`` over ``member * n_labels + label``, in event
    order, and a ``cumsum`` adds them to ``pooled`` in member order.
    """
    bounds, member = _member_rows(bounds, len(ledger))
    sizes = np.diff(bounds)
    n_members = sizes.size
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
    # bincount adds the weights of each label in event order, as a replay
    # would; over no rows it returns int64 whatever its weights.
    dwell = np.bincount(
        member * n_labels + before, weights=spans, minlength=n_members * n_labels
    ).reshape(n_members, n_labels).astype(float, copy=False)
    dwell[np.flatnonzero(sizes), after[lasts]] += t_total - last
    dwell[sizes == 0, labels[0]] = t_total
    moved = after != before
    counts = np.bincount(
        (after * n_labels + before)[moved], minlength=n_labels * n_labels
    ).reshape(n_labels, n_labels)
    if pooled is None:
        pooled = EmpiricalRates(np.zeros((n_labels, n_labels)), np.zeros(n_labels))
    return EmpiricalRates(
        pooled.transition_counts + counts,
        np.vstack((pooled.dwell_times, dwell)).cumsum(axis=0)[-1],
    )


# --- ledger and trajectory files -------------------------------------------

# An event_index column numbers the rows; the Ledger's fields follow, in order.
LEDGER_COLUMNS = ("event_index", *(column.name for column in fields(Ledger)))

TRAJECTORY_COLUMNS = ("t", "n", "k", "S_macro")

_INT64 = np.iinfo(np.int64)


def write_ledger_csv(path, ledger: Ledger) -> None:
    """Write a :class:`Ledger` with 17-digit floats, its rows numbered from 0."""
    columns = (column.tolist() for column in vars(ledger).values())
    write_csv(path, LEDGER_COLUMNS, zip(range(len(ledger)), *columns))


def read_ledger(path) -> Ledger:
    """Read a ledger CSV into a :class:`Ledger`, checking its format but not its events.

    Raises ValueError for a wrong header, a row without one field per
    column, an integer outside the int64 range of its column, and an
    ``event_index`` that does not number the rows 0, 1, 2, ...: the audit
    names every event by its row. A header without rows gives an empty
    Ledger. The event invariants are :func:`audit_ledger`'s to check.
    """
    lines = read_csv(path)
    if not lines or tuple(h.strip() for h in lines[0]) != LEDGER_COLUMNS:
        raise ValueError(f"{path}: missing or wrong ledger header")
    kinds = (int, float, float, int, int, float, int)
    events = []
    for number, row in enumerate(lines[1:]):
        if len(row) != len(LEDGER_COLUMNS):
            raise ValueError(f"{path}: ragged ledger row {row!r}")
        index, *event = (kind(field) for kind, field in zip(kinds, row))
        if index != number:
            raise ValueError(
                f"{path}: row {number} has event_index {index}; "
                "event_index must number the rows from 0"
            )
        # The Ledger holds these fields in int64 columns.
        if not all(_INT64.min <= event[i] <= _INT64.max for i in (2, 3, 5)):
            raise ValueError(f"{path}: integer outside the int64 range in row {row!r}")
        events.append(event)
    columns = list(zip(*events)) or [()] * (len(kinds) - 1)
    return Ledger(*(
        np.array(column, dtype=np.int64 if kind is int else float)
        for column, kind in zip(columns, kinds[1:])
    ))


def write_trajectory_csv(path, config: GasConfig, ledger: Ledger) -> None:
    """Write one member's k trajectory, at t = 0 and at every absorption, with 17-digit floats.

    ``n`` is the conserved quanta count and ``S_macro`` the macrostate
    entropy of k (NaN for an odd molecule count).
    """
    left = _left_counts(config, ledger.emitter, ledger.absorber, [0, len(ledger)])
    quanta, entropies = [config.n_excited] * left.size, _macro_entropies(config, left).tolist()
    write_csv(path, TRAJECTORY_COLUMNS, zip([0.0] + ledger.t_a.tolist(), quanta, left.tolist(), entropies))


# --- ledger audit -----------------------------------------------------------

def _previous_emissions(t_e: np.ndarray, bounds: np.ndarray, member: np.ndarray) -> np.ndarray:
    """The largest earlier emission time of each row's member, -inf at its first row.

    A running max over a -inf-led row per member; fmax skips NaN as the
    running max() does.
    """
    n_members = bounds.size - 1
    width = int(np.diff(bounds).max()) + 1
    # Row r of member i sits at i * width + 1 + (r - bounds[i]) of the padded rows.
    slots = (np.arange(n_members) * width + 1 - bounds[:-1])[member]
    slots += np.arange(t_e.size)
    running = np.full((n_members, width), -math.inf)
    running.ravel()[slots] = t_e
    np.fmax.accumulate(running, axis=1, out=running)
    return running.take(slots - 1)


def _role_chains(emitter, absorber, member: np.ndarray, n_members: int, n_excited: int | None):
    """(repeated, wrong firsts) of the role chains keyed by (member, molecule).

    Each event's (emitter, emit) and (absorber, absorb) appearances are
    interleaved, absorptions in the odd slots, and a stable sort by
    (member, molecule) keeps each chain in ledger order. ``repeated[r]``
    flags row r's emitter and absorber when they repeat their chain's last
    role. Given ``n_excited``, the wrong firsts are the (member, molecule,
    absorbs first) of each chain whose first role does not match molecules
    0..n_excited - 1 excited, in (member, molecule) order.
    """
    keys = _chain_keys(emitter, absorber, member, n_members)
    order = np.argsort(keys, kind="stable")
    first = np.ones(order.size, dtype=bool)  # sorted slot s starts its chain
    first[1:] = keys.take(order[1:]) != keys.take(order[:-1])
    del keys
    # The odd slots are absorptions; the buffered cast makes no int64 temporary.
    roles = np.bitwise_and(order, 1, out=np.empty(order.size, dtype=bool), casting="unsafe")
    repeated = np.zeros((emitter.size, 2), dtype=bool)
    repeated.ravel()[order[1:]] = ~first[1:] & (roles[1:] == roles[:-1])
    if n_excited is None:
        return repeated, []
    absorbs = roles[first]
    rows = order[first]
    del order
    rows >>= 1
    molecules = np.where(absorbs, absorber[rows], emitter[rows])
    wrong = absorbs == ((0 <= molecules) & (molecules < n_excited))
    rows = rows[wrong]
    return repeated, list(zip(member[rows].tolist(), molecules[wrong].tolist(), absorbs[wrong].tolist()))


def _chain_keys(emitter, absorber, member: np.ndarray, n_members: int) -> np.ndarray:
    """Keys in (member, molecule) order of interleaved emitter and absorber ids.

    The keys take the narrowest unsigned type, so that numpy's stable sort
    takes its radix path on keys of 16 bits or less. Ids too far apart to
    pack beside the member index in an int64 are replaced by their ranks
    first.
    """
    if not emitter.size:
        return np.empty(0, dtype=np.uint8)
    lo = min(int(emitter.min()), int(absorber.min()))
    span = max(int(emitter.max()), int(absorber.max())) - lo + 1
    if n_members * span > _INT64.max:
        ranks = np.unique(np.column_stack((emitter, absorber)), return_inverse=True)[1]
        emitter, absorber = ranks.reshape(-1, 2).T
        lo, span = 0, int(ranks.max()) + 1
    keys = np.empty((emitter.size, 2), dtype=np.min_scalar_type(n_members * span - 1))
    np.subtract(emitter, lo, out=keys[:, 0], casting="unsafe")
    np.subtract(absorber, lo, out=keys[:, 1], casting="unsafe")
    keys += (member * span).astype(keys.dtype)[:, None]
    return keys.ravel()


@dataclass(frozen=True)
class LedgerAudit:
    """Outcome of replaying a ledger against the transaction invariants."""

    passed: bool
    n_events: int
    violations: tuple[str, ...]


def audit_ledger(
    ledger: Ledger, n_molecules: int | None = None, n_excited: int | None = None, bounds=None
) -> LedgerAudit:
    """Check ledger invariants: ordering, weights, and the precondition chain.

    Messages name each event by its row, counted from 0. The precondition
    chain (each emitter excited, each absorber ground at its event) is
    equivalent to per-molecule role alternation, so it can be audited
    without the initial state. Given ``n_excited``, the initial layout is
    the one :func:`run` starts from, molecules 0..n_excited - 1 excited:
    every participating molecule's first role must match it (emit if it
    started excited, absorb if not), and with ``n_molecules`` too every
    confirmation set must hold exactly the N - n ground molecules.
    Conservation holds exactly whenever the chain is consistent, since every
    event moves exactly one quantum.

    With member row bounds (as :func:`iter_ensemble` yields them) every
    member of a batch ledger is audited as if alone, from the same initial
    state: role chains are keyed by (member, molecule), the emission order
    and the event rows restart at each member, and each member's messages
    are those of its lone audit, in member order, prefixed ``member <m> ``
    with m the member's position in the batch (so ``member 2 event 5: ...``).
    Each check's flags are computed, and reduced to the flagged rows, one
    check at a time.
    """
    t_e, t_a = ledger.t_e, ledger.t_a
    emitter, absorber = ledger.emitter, ledger.absorber
    weight, size = ledger.winner_weight, ledger.confirmation_set_size
    n_events = len(ledger)
    batch = bounds is not None
    bounds, member = _member_rows(bounds if batch else [0, n_events], n_events)
    previous_emit = _previous_emissions(t_e, bounds, member)
    repeated, wrong_firsts = _role_chains(emitter, absorber, member, bounds.size - 1, n_excited)
    id_limit = math.inf if n_molecules is None else n_molecules
    expected_size = None if n_excited is None or n_molecules is None else n_molecules - n_excited

    # Per-event checks, in the order their messages appear within one event:
    # (flags of the rows that fail, message of row i).
    checks = (
        (lambda: ~(t_e < t_a), lambda i: f"t_e {t_e[i].item()!r} not strictly before t_a {t_a[i].item()!r}"),
        (lambda: t_e < previous_emit, lambda i: (
            f"emission time decreased ({t_e[i].item()!r} after {previous_emit[i].item()!r})"
        )),
        (lambda: emitter == absorber, lambda i: f"emitter equals absorber ({emitter[i]})"),
        (lambda: ~((0.0 < weight) & (weight <= 1.0)),
         lambda i: f"winner weight {weight[i].item()!r} outside (0, 1]"),
        (lambda: size < 1, lambda i: f"confirmation set size {size[i]} < 1"),
        (lambda: () if expected_size is None else size != expected_size,
         lambda i: f"confirmation set size {size[i]} != {expected_size} ground molecules"),
        (lambda: (emitter < 0) | (emitter >= id_limit), lambda i: f"molecule id {emitter[i]} out of range"),
        (lambda: (absorber < 0) | (absorber >= id_limit),
         lambda i: f"molecule id {absorber[i]} out of range"),
        (lambda: repeated[:, 0], lambda i: f"molecule {emitter[i]} would emit while ground"),
        (lambda: repeated[:, 1], lambda i: f"molecule {absorber[i]} would absorb while excited"),
    )
    flagged = sorted(
        (i, rank) for rank, (flags, _message) in enumerate(checks) for i in np.flatnonzero(flags()).tolist()
    )
    # (member, message) pairs: each member's event messages, then its molecule messages.
    found = [(member[i], f"event {i - bounds[member[i]]}: {checks[rank][1](i)}") for i, rank in flagged]
    for owner, mol, absorbs in wrong_firsts:
        found.append((owner, (
            f"molecule {mol} absorbs first but was initially excited" if absorbs
            else f"molecule {mol} emits first but was not initially excited"
        )))
    if batch:
        found.sort(key=lambda pair: pair[0])
        violations = tuple(f"member {m} {message}" for m, message in found)
    else:
        violations = tuple(message for _m, message in found)
    return LedgerAudit(passed=not violations, n_events=n_events, violations=violations)


def audit_ledger_file(path, n_molecules: int | None = None) -> LedgerAudit:
    """Audit the ledger CSV at ``path`` (:func:`read_ledger`, then :func:`audit_ledger`).

    The file does not record the initial layout, so given ``n_molecules``
    the audit takes the one :func:`run` starts from, with n = N minus the
    confirmation set size that most rows give (the smaller on a tie), so an
    edit of one row is blamed on that row: every row must then give the same
    size, and every molecule's first role must match molecules 0..n - 1
    excited. Raises ValueError for a molecule count below 1, which puts
    every id out of range, for a ledger without events, whose audit would
    compare nothing, and for every file :func:`read_ledger` rejects.
    """
    if n_molecules is not None and n_molecules < 1:
        raise ValueError(f"n_molecules must be >= 1, got {n_molecules}")
    ledger = read_ledger(path)
    if not len(ledger):
        raise ValueError(f"{path}: the ledger holds no events to audit")
    # np.unique, not bincount: the column is outside input and may hold any int64.
    sizes, counts = np.unique(ledger.confirmation_set_size, return_counts=True)
    n_excited = None if n_molecules is None else n_molecules - int(sizes[np.argmax(counts)])
    return audit_ledger(ledger, n_molecules, n_excited)
