"""Per-event reference of the gas kernel, for tests only.

``next_event`` draws one transaction from a :class:`GasState` with scalar
draws and ``apply_event`` applies it; composed until the horizon they define
what :func:`stosszahl.gas.run` must produce bit for bit, one member at a time
or in a batch. Nothing in ``src/`` calls them.
"""

import math
from dataclasses import dataclass

import numpy as np

from stosszahl.gas import GasConfig, TransactionEvent, ZeroCouplingError
from stosszahl.measurement import collapse_sample


class TransactionError(RuntimeError):
    """A transaction violated its preconditions; the conservation audit failed."""


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


def next_event(state: GasState, config: GasConfig, rng: np.random.Generator) -> TransactionEvent | None:
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
