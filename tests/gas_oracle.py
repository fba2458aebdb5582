"""Per-event reference of the gas kernel, for tests only.

``next_event`` draws one transaction from a :class:`GasState` with scalar
draws and ``apply_event`` applies it; composed until the horizon
(``stepwise``) they define what :func:`stosszahl.gas.run` must produce bit
for bit, one member at a time or in a batch; ``seeded_run`` runs one member
on ``default_rng(config.seed)``, the stream the reference is usually given.
The reference keeps its own per-event record, :class:`Event`, whose fields
are named after the ledger columns, and ``column_bytes`` compares the two
field by field. Nothing in ``src/`` calls these.
"""

import copy
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from stosszahl.gas import GasConfig, Ledger, ZeroCouplingError, run
from stosszahl.measurement import collapse_sample


class TransactionError(RuntimeError):
    """A transaction violated its preconditions; the conservation audit failed."""


class Event(NamedTuple):
    """One transaction, with the fields of a ledger row in ledger column order."""

    t_e: float
    t_a: float
    emitter: int
    absorber: int
    winner_weight: float
    confirmation_set_size: int


def seeded_run(config: GasConfig):
    """:func:`stosszahl.gas.run` of one member on ``default_rng(config.seed)``."""
    return run(config, [np.random.default_rng(config.seed)])


def ledger_events(ledger: Ledger) -> list[Event]:
    """The rows of a ledger as events."""
    return [Event(*row) for row in zip(*(getattr(ledger, f).tolist() for f in Event._fields))]


def ledger_of(events) -> Ledger:
    """The Ledger whose rows are ``events``, six-field tuples in ledger column order."""
    columns = list(zip(*events)) or [()] * len(Event._fields)
    dtypes = (float, float, np.int64, np.int64, float, np.int64)
    return Ledger(*(np.array(column, dtype=dtype) for column, dtype in zip(columns, dtypes)))


def column_bytes(record) -> list[bytes]:
    """Each field of a Ledger, or of a list of events, as float64 bytes.

    Bytes tell -0.0 from 0.0 and compare NaN with NaN, so equal lists mean
    equal records bit for bit.
    """
    if isinstance(record, Ledger):
        columns = [getattr(record, field) for field in Event._fields]
    else:
        columns = np.array(record, dtype=float).reshape(-1, len(Event._fields)).T
    return [np.asarray(column, dtype=float).tobytes() for column in columns]


@dataclass(eq=False)
class GasState:
    """Levels (0 ground, 1 excited) per molecule, plus the current time."""

    levels: np.ndarray
    time: float

    @property
    def quanta(self) -> int:
        """Number of excited molecules, recomputed from the levels."""
        return int(np.count_nonzero(self.levels))


def init_gas(config: GasConfig) -> GasState:
    """Deterministic initial layout: molecules 0..n_excited-1 excited, t = 0."""
    levels = np.zeros(config.n_molecules, dtype=np.int8)
    levels[: config.n_excited] = 1
    return GasState(levels=levels, time=0.0)


def left_half_count(state: GasState) -> int:
    """Number of excited molecules with id < N/2."""
    n = state.levels.shape[0]
    return int(np.count_nonzero(state.levels[: (n + 1) // 2]))


def next_event(state: GasState, config: GasConfig, rng: np.random.Generator) -> Event | None:
    """Draw the next transaction, or None if no emitter/absorber pair can form.

    The total emission rate is (number of excited) * decay_rate; by the
    competing-clocks equivalence for i.i.d. exponential decay the emitter is
    uniform among excited molecules. The confirmation set is every
    ground-state molecule at the emission instant, and the winner is sampled
    over the normalized coupling weights.
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

    return Event(
        t_e=t_emit,
        t_a=t_emit + config.delay,
        emitter=emitter,
        absorber=int(ground[winner]),
        winner_weight=float(weights[winner]),
        confirmation_set_size=int(ground.size),
    )


def apply_event(state: GasState, event: Event) -> GasState:
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
    return GasState(levels=new_levels, time=event.t_a)


def stepwise(config: GasConfig, rng) -> list[Event]:
    """Events of the next_event/apply_event composition up to the horizon.

    The event that would cross the horizon is never resolved, so a
    zero-weight confirmation set is an error only for an event that absorbs
    inside the window: its waiting time is redrawn from a copy of the
    generator taken before the event.
    """
    state = init_gas(config)
    events = []
    while True:
        before = copy.deepcopy(rng)
        try:
            event = next_event(state, config, rng)
        except ZeroCouplingError:
            waiting = -math.log1p(-before.random()) / (state.quanta * config.decay_rate)
            if state.time + waiting + config.delay > config.t_max:
                return events
            raise
        if event is None or event.t_a > config.t_max:
            return events
        state = apply_event(state, event)
        events.append(event)
