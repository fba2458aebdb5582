"""Property tests of the gas event kernel.

``gas.run`` steps the gas in blocks of (wait, pick, winner) triples, for one
member or for a batch of members in lockstep; the per-event composition of
``next_event`` and ``apply_event`` (``gas_oracle``) is its reference for one
member, and a lone run on each generator is the reference for a batch. Over
random gases, coupling tables (uniform, dense, sparse with tiny weights, so
the ``ZERO_WEIGHT`` clamp matters, and dense with one emitter's row zeroed,
so runs end in the zero-coupling error) and horizons, the kernel must
produce the same ledger bit for bit, raise the same zero-coupling error, and
leave every generator at the same position. The batched winner step rests
on row-wise reductions of a (members, N - n) array being bit-equal to the
one-dimensional ones, which is checked on its own. Every ledger the kernel
produces must pass the audit, and every single-field edit of one row to a
value the invariants exclude must fail it. For a batch ledger with its
member row bounds, the audit, the rate tallies and the k lookups must equal
the calls on each member's rows alone, bit for bit.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gas_oracle import apply_event, init_gas, next_event
from stosszahl.gas import (
    GasConfig,
    ZeroCouplingError,
    audit_ledger,
    batch_left_counts,
    empirical_rates,
    run,
)
from stosszahl.measurement import ZERO_WEIGHT, inverse_cdf

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


def lone_runs(config, children):
    """Per member: (trajectory and ledger bytes, or the error message; generator state)."""
    outcomes = []
    for child in children:
        rng = np.random.default_rng(child)
        try:
            trajectory, ledger = run(config, rng)
            result = trajectory_bytes(trajectory) + column_bytes(ledger)
        except ZeroCouplingError as exc:
            result = str(exc)
        outcomes.append((result, rng.bit_generator.state))
    return outcomes


def trajectory_bytes(trajectory):
    return [trajectory.times.tobytes(), trajectory.left_counts.tobytes(),
            trajectory.macro_entropies.tobytes()]


@settings(max_examples=40)
@given(gas_configs(), st.integers(1, 9))
def test_batch_equals_lone_runs_member_by_member(config, n_members):
    children = np.random.SeedSequence(config.seed).spawn(n_members)
    lone = lone_runs(config, children)
    rngs = [np.random.default_rng(child) for child in children]
    errors = [result for result, _state in lone if isinstance(result, str)]
    if errors:
        # the error of the lowest failing member, raised after every member ran
        with pytest.raises(ZeroCouplingError) as info:
            run(config, rngs)
        assert str(info.value) == errors[0]
    else:
        trajectories, ledger = run(config, rngs)
        assert len(trajectories) == n_members
        stop = 0
        for trajectory, (result, _state) in zip(trajectories, lone):
            start, stop = stop, stop + trajectory.times.size - 1
            assert trajectory_bytes(trajectory) + column_bytes(ledger[start:stop]) == result
        assert stop == len(ledger)
    assert [rng.bit_generator.state for rng in rngs] == [state for _result, state in lone]


def test_batch_error_names_the_lowest_failing_member():
    # rows 1 and 2 are zero: member 1 fails on its first event (emitter 1),
    # member 0 on its second (emitter 2, which absorbed its first quantum);
    # the batch reports member 0 and leaves each generator after its failure
    table = np.ones((4, 4))
    np.fill_diagonal(table, 0.0)
    table[1] = table[2] = 0.0
    config = GasConfig(
        n_molecules=4, n_excited=2, decay_rate=1.0, t_max=100.0, seed=0, delay=0.01,
        coupling=table,
    )
    # (wait, emitter rank, winner) triples; rank 0 of {0, 1} is 0, rank 1 of {1, 2} is 2
    first = ScriptedUniforms([0.1, 0.0, 0.0, 0.1, 0.9])
    second = ScriptedUniforms([0.1, 0.9])
    with pytest.raises(ZeroCouplingError, match="from emitter 2 to"):
        run(config, [first, second])
    assert (first.state, second.state) == (5, 2)
    with pytest.raises(ZeroCouplingError, match="from emitter 1 to"):
        run(config, [ScriptedUniforms([0.1, 0.9])])


@settings(max_examples=80)
@given(
    st.integers(1, 9),
    st.integers(1, 300),
    st.sampled_from(["uniform", "dense", "sparse"]),
    st.integers(0, 2**32 - 1),
)
def test_row_wise_reductions_equal_the_one_dimensional_ones(rows, m, kind, seed):
    # m runs past numpy's pairwise-summation block of 128; the winner count
    # of the clamped cumulative row is the inverse_cdf pick of that row
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        weights = np.full((rows, m), 1.0 / m)
    else:
        weights = rng.uniform(0.5, 1.5, size=(rows, m))
        if kind == "sparse":
            weights[rng.random((rows, m)) < 0.4] = 0.0
            weights[rng.random((rows, m)) < 0.1] = 1e-17
        weights[:, -1] = 1.0  # no row sums to zero
        weights /= np.add.reduce(weights, axis=1)[:, None]
    totals = np.add.reduce(weights, axis=1)
    cumulative = weights.cumsum(axis=1)
    clamped = np.where(weights < ZERO_WEIGHT, 0.0, weights)
    u = rng.random(rows)
    winners = np.count_nonzero(
        clamped.cumsum(axis=1) <= (u * np.add.reduce(clamped, axis=1))[:, None], axis=1
    )
    winners = np.minimum(winners, m - 1)
    for row in range(rows):
        assert totals[row].tobytes() == np.add.reduce(weights[row]).tobytes()
        assert cumulative[row].tobytes() == weights[row].cumsum().tobytes()
        assert winners[row] == inverse_cdf(weights[row], float(u[row]))


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


TAMPER_VALUES = {
    "t_e": [math.nan, -1.0, 0.0, 1e9], "t_a": [math.nan, 0.0, math.inf],
    "winner_weight": [0.0, -0.5, 1.5, math.nan], "confirmation_set_size": [0, 1, 10**6],
    "emitter": [-1, 0, 1, 99], "absorber": [-1, 0, 1, 99],
}


@settings(max_examples=60)
@given(gas_configs(), st.integers(1, 9), st.data())
def test_batch_audit_rates_and_lookups_equal_the_member_calls(config, n_members, data):
    # short horizons and n_excited of 0 or N give members without events; some
    # members' rows are tampered for the audit (the rate estimator assumes an
    # audited ledger, so it reads the kernel's own)
    children = np.random.SeedSequence(config.seed).spawn(n_members)
    rngs = [np.random.default_rng(child) for child in children]
    try:
        trajectories, ledger = run(config, rngs)
    except ZeroCouplingError:
        return
    bounds = np.cumsum([0] + [trajectory.times.size - 1 for trajectory in trajectories])
    members = [ledger[start:stop] for start, stop in zip(bounds[:-1], bounds[1:])]

    tampered = dataclasses.replace(ledger, **{
        field: getattr(ledger, field).copy() for field in LEDGER_FIELDS
    })
    for start, stop in zip(bounds[:-1], bounds[1:]):
        if stop > start and data.draw(st.booleans()):
            field = data.draw(st.sampled_from(LEDGER_FIELDS))
            row = data.draw(st.integers(start, stop - 1))
            getattr(tampered, field)[row] = data.draw(st.sampled_from(TAMPER_VALUES[field]))
    n_molecules = data.draw(st.sampled_from([None, config.n_molecules]))
    declared = data.draw(st.sampled_from([None, range(config.n_excited)]))
    batch = audit_ledger(tampered, n_molecules, declared, bounds=bounds)
    lone = [
        audit_ledger(tampered[start:stop], n_molecules, declared)
        for start, stop in zip(bounds[:-1], bounds[1:])
    ]
    assert batch.violations == tuple(
        f"member {m} {message}" for m, audit in enumerate(lone) for message in audit.violations
    )
    assert batch.passed == all(audit.passed for audit in lone)
    assert batch.n_events == len(ledger)
    assert batch.inferred_initial_excited == tuple(audit.inferred_initial_excited for audit in lone)

    parts = empirical_rates(config, ledger, bounds)
    assert len(parts) == n_members
    pooled_batch = pooled_lone = None
    for part, member in zip(parts, members):
        if not len(member):
            assert part is None
            continue
        alone = empirical_rates(config, member)
        assert part.transition_counts.tobytes() == alone.transition_counts.tobytes()
        assert part.dwell_times.tobytes() == alone.dwell_times.tobytes()
        if pooled_batch is None:
            pooled_batch = [part.transition_counts.copy(), part.dwell_times.copy()]
            pooled_lone = [alone.transition_counts.copy(), alone.dwell_times.copy()]
        else:
            pooled_batch[0] += part.transition_counts
            pooled_batch[1] += part.dwell_times
            pooled_lone[0] += alone.transition_counts
            pooled_lone[1] += alone.dwell_times
    if pooled_batch is not None:
        assert [a.tobytes() for a in pooled_batch] == [a.tobytes() for a in pooled_lone]

    queries = np.array(
        data.draw(st.lists(st.floats(0.0, config.t_max), max_size=12))
        + [0.0, config.t_max] + ledger.t_a[:3].tolist()
    )
    expected = np.array([trajectory.left_counts_at(queries) for trajectory in trajectories])
    assert np.array_equal(batch_left_counts(config, ledger, bounds, queries), expected)


def test_batch_audit_names_the_member():
    config = GasConfig(n_molecules=10, n_excited=5, decay_rate=1.0, t_max=3.0, seed=72)
    rngs = [np.random.default_rng(child) for child in np.random.SeedSequence(72).spawn(3)]
    trajectories, ledger = run(config, rngs)
    bounds = np.cumsum([0] + [trajectory.times.size - 1 for trajectory in trajectories])
    assert bounds[2] - bounds[1] > 3
    sizes = ledger.confirmation_set_size.copy()
    sizes[bounds[1] + 3] += 1
    tampered = dataclasses.replace(ledger, confirmation_set_size=sizes)
    audit = audit_ledger(tampered, 10, range(5), bounds=bounds)
    assert audit.violations == ("member 1 event 3: confirmation set size 6 != 5 ground molecules",)
    # one member alone keeps the unprefixed message
    assert audit_ledger(tampered[bounds[1] : bounds[2]], 10, range(5)).violations == (
        "event 3: confirmation set size 6 != 5 ground molecules",
    )


@pytest.mark.parametrize("bounds", [[0, 5], [1, 6], [0, 3, 2, 6], [[0, 6]], [0]])
def test_member_bounds_must_rise_from_zero_to_the_ledger_length(bounds):
    config = GasConfig(n_molecules=10, n_excited=5, decay_rate=1.0, t_max=3.0, seed=72)
    _trajectory, ledger = run(config)
    ledger = ledger[:6]
    for call in (
        lambda: audit_ledger(ledger, bounds=bounds),
        lambda: empirical_rates(config, ledger, bounds),
        lambda: batch_left_counts(config, ledger, bounds, [1.0]),
    ):
        with pytest.raises(ValueError, match="member bounds"):
            call()


def test_member_rates_without_transitions_are_float():
    # member 1's one event leaves k unchanged; bincount of no transitions is int64
    config = GasConfig(
        n_molecules=9, n_excited=8, decay_rate=4.0, t_max=0.078125, seed=245454, delay=0.05,
    )
    rngs = [np.random.default_rng(child) for child in np.random.SeedSequence(245454).spawn(4)]
    trajectories, ledger = run(config, rngs)
    bounds = np.cumsum([0] + [trajectory.times.size - 1 for trajectory in trajectories])
    alone = empirical_rates(config, ledger[bounds[1]:bounds[2]])
    assert not alone.transition_counts.any()
    for rates in (alone, empirical_rates(config, ledger, bounds)[1]):
        assert rates.transition_counts.dtype == np.float64
        assert rates.rates.dtype == np.float64
