"""Property tests of the gas event kernel.

``gas.run`` steps the gas in blocks of (wait, pick, winner) triples; the
per-event composition of ``next_event`` and ``apply_event`` is its reference.
Over random gases, coupling tables (uniform, dense, sparse with tiny
weights, so the ``ZERO_WEIGHT`` clamp matters, and dense with one emitter's
row zeroed, so runs end in the zero-coupling error) and horizons, the kernel must
produce the same ledger bit for bit, raise the same zero-coupling error, and
leave the generator at the same position. Every ledger it produces must pass
the audit, and every single-field edit of one row to a value the invariants
exclude must fail it.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stosszahl.gas import (
    GasConfig,
    ZeroCouplingError,
    _clamp_is_identity,
    apply_event,
    audit_ledger,
    init_gas,
    next_event,
    run,
)

LEDGER_FIELDS = ("t_e", "t_a", "emitter", "absorber", "winner_weight", "confirmation_set_size")
TRIPLES_PER_BLOCK = 256


def make_table(kind, n, seed):
    """None, or an (n, n) coupling table of the given kind with a zero diagonal."""
    if kind == "uniform":
        return None
    rng = np.random.default_rng(seed)
    table = rng.uniform(0.5, 1.5, size=(n, n))
    if kind == "sparse":
        table[rng.random((n, n)) < 0.4] = 0.0
        table[rng.random((n, n)) < 0.1] = 1e-17
    if kind == "zero-row":
        table[rng.integers(n)] = 0.0
    np.fill_diagonal(table, 0.0)
    return table


@st.composite
def gas_configs(draw):
    n_molecules = draw(st.integers(2, 60))
    n_excited = draw(st.integers(0, n_molecules))
    decay_rate = draw(st.floats(0.2, 4.0))
    return GasConfig(
        n_molecules=n_molecules,
        n_excited=n_excited,
        decay_rate=decay_rate,
        # at most ~2000 events, enough for several blocks
        t_max=draw(st.floats(0.01, 2000.0 / (max(n_excited, 1) * decay_rate))),
        seed=draw(st.integers(0, 2**32 - 1)),
        delay=draw(st.sampled_from([1e-12, 1e-6, 0.05, 0.7])),
        coupling=make_table(
            draw(st.sampled_from(["uniform", "dense", "sparse", "zero-row"])),
            n_molecules,
            draw(st.integers(0, 2**32 - 1)),
        ),
    )


def stepwise(config, rng):
    """Events of the next_event/apply_event composition up to the horizon.

    The event that would cross the horizon draws only its waiting time, so
    the generator is set back and that one uniform redrawn. Such an event is
    never resolved, so a zero-weight confirmation set is an error only for
    an event that absorbs inside the window.
    """
    state = init_gas(config)
    events = []
    while True:
        before = rng.bit_generator.state
        try:
            event = next_event(state, config, rng)
        except ZeroCouplingError:
            rng.bit_generator.state = before
            waiting = -math.log1p(-rng.random()) / (state.quanta * config.decay_rate)
            if state.time + waiting + config.delay > config.t_max:
                return events
            rng.random()
            raise
        if event is None:
            return events
        if event.t_absorb > config.t_max:
            rng.bit_generator.state = before
            rng.random()
            return events
        state = apply_event(state, event)
        events.append(event)


def outcome(step, config):
    """(events or error message, generator state) of one run from the config seed."""
    rng = np.random.default_rng(config.seed)
    try:
        result = list(step(config, rng))
    except ZeroCouplingError as exc:
        result = str(exc)
    return result, rng.bit_generator.state


def kernel_events(config, rng):
    _trajectory, ledger = run(config, rng)
    return ledger


def column_bytes(events):
    """The ledger columns as bytes, so that -0.0 and 0.0 differ too."""
    columns = [
        [e.t_emit for e in events], [e.t_absorb for e in events],
        [e.emitter for e in events], [e.absorber for e in events],
        [e.winner_weight for e in events], [e.confirmation_size for e in events],
    ]
    return [np.array(column, dtype=float).tobytes() for column in columns]


@settings(max_examples=60)
@given(gas_configs())
def test_kernel_equals_the_stepwise_composition(config):
    fast, fast_state = outcome(kernel_events, config)
    slow, slow_state = outcome(stepwise, config)
    assert fast_state == slow_state
    if isinstance(slow, str):
        assert fast == slow
    else:
        assert column_bytes(fast) == column_bytes(slow)


@pytest.mark.parametrize("kind", ["uniform", "dense", "sparse"])
def test_kernel_equals_the_composition_across_blocks_and_at_a_block_edge(kind):
    # t_max at the absorption of event 255 puts the horizon on the first
    # triple of the second block; the long run crosses several blocks
    long_config = GasConfig(
        n_molecules=40, n_excited=20, decay_rate=1.0, t_max=60.0, seed=17,
        delay=1e-6, coupling=make_table(kind, 40, 3),
    )
    _trajectory, ledger = run(long_config)
    assert len(ledger) > 3 * TRIPLES_PER_BLOCK
    edge = dataclasses.replace(long_config, t_max=float(ledger.t_a[TRIPLES_PER_BLOCK - 1]))
    for config in (long_config, edge):
        fast, fast_state = outcome(kernel_events, config)
        slow, slow_state = outcome(stepwise, config)
        assert fast_state == slow_state
        assert column_bytes(fast) == column_bytes(slow)
    assert len(outcome(kernel_events, edge)[0]) == TRIPLES_PER_BLOCK


def test_clamp_rule_skips_the_clamp_only_when_it_changes_nothing():
    dense = make_table("dense", 30, 1)
    assert _clamp_is_identity(dense)
    assert not _clamp_is_identity(make_table("sparse", 30, 1))
    negative_zero = dense.copy()
    negative_zero[0, 1] = -0.0
    assert not _clamp_is_identity(negative_zero)
    # smallest positive entry over twice the largest row sum, against 2e-15
    tiny = dense.copy()
    tiny[0, 1] = 0.0
    largest_row_sum = tiny.sum(axis=1).max()
    tiny[0, 1] = 3.9e-15 * largest_row_sum
    assert not _clamp_is_identity(tiny)
    tiny[0, 1] = 4.1e-15 * largest_row_sum
    assert _clamp_is_identity(tiny)


class ScriptedUniforms:
    """A stand-in generator that hands out ``values`` in order, then 0.5.

    Its ``bit_generator.state`` counts the uniforms handed out, so ``run``
    can rewind it as it rewinds a real generator.
    """

    def __init__(self, values):
        self.values = list(values)
        self.bit_generator = self
        self.state = 0

    def random(self, size=None):
        count = 1 if size is None else size
        drawn = [
            self.values[i] if i < len(self.values) else 0.5
            for i in range(self.state, self.state + count)
        ]
        self.state += count
        return drawn[0] if size is None else np.array(drawn)


def test_clamp_keeps_a_tiny_weight_from_winning():
    # emitter 0 weighs molecule 2 at 1e-17 of molecule 3, so a winner uniform
    # of 0.0 picks molecule 2 unless the ZERO_WEIGHT clamp zeroes that weight
    table = np.ones((4, 4))
    np.fill_diagonal(table, 0.0)
    table[0, 2] = 1e-17
    config = GasConfig(
        n_molecules=4, n_excited=2, decay_rate=1.0, t_max=1.0, seed=0, delay=0.1,
        coupling=table,
    )
    uniforms = [0.5, 0.0, 0.0, 0.99]  # wait, emitter rank 0, winner, a wait past t_max
    _trajectory, ledger = run(config, ScriptedUniforms(uniforms))
    assert column_bytes(ledger) == column_bytes(stepwise(config, ScriptedUniforms(uniforms)))
    assert list(ledger.absorber) == [3]


def levels_before(config, ledger, index):
    """Levels of every molecule just before event ``index``."""
    levels = init_gas(config).levels.copy()
    for emitter, absorber in zip(ledger.emitter[:index], ledger.absorber[:index]):
        levels[emitter] = 0
        levels[absorber] = 1
    return levels


def excluded_values(config, ledger, index, field):
    """Values of one field of row ``index`` that the ledger invariants rule out."""
    n = config.n_molecules
    t_e, t_a = float(ledger.t_e[index]), float(ledger.t_a[index])
    if field == "t_e":
        values = [t_a, t_a + 1.0, math.inf, math.nan]
        if index:
            values.append(float(np.nextafter(ledger.t_e[index - 1], -math.inf)))
        return values
    if field == "t_a":
        return [t_e, t_e - 1.0, -math.inf, math.nan]
    if field == "winner_weight":
        return [0.0, -0.5, float(np.nextafter(1.0, 2.0)), math.inf, math.nan]
    if field == "confirmation_set_size":
        size = n - config.n_excited
        return [0, -1, size - 1, size + 1, n]
    levels = levels_before(config, ledger, index)
    out_of_range = [-1, n, n + 7]
    if field == "emitter":  # every molecule in the ground state, the absorber included
        return np.flatnonzero(levels == 0).tolist() + out_of_range
    return np.flatnonzero(levels == 1).tolist() + out_of_range  # absorber


@settings(max_examples=40)
@given(
    gas_configs(),
    st.floats(0.0, 1.0, exclude_max=True),
    st.sampled_from(LEDGER_FIELDS),
)
def test_kernel_ledgers_pass_the_audit_and_every_excluded_edit_fails_it(config, where, field):
    try:
        _trajectory, ledger = run(config)
    except ZeroCouplingError:
        return
    declared = range(config.n_excited)
    assert audit_ledger(ledger, config.n_molecules, declared).passed
    if not len(ledger):
        return
    index = int(where * len(ledger))
    for value in excluded_values(config, ledger, index, field):
        column = getattr(ledger, field).copy()
        column[index] = value
        tampered = dataclasses.replace(ledger, **{field: column})
        audit = audit_ledger(tampered, config.n_molecules, declared)
        assert not audit.passed, (field, index, value)
