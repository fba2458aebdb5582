"""Property tests of the gas event kernel.

``gas.run`` steps the gas in blocks of (wait, pick, winner) triples, for one
member or for a batch of members in lockstep, sized from the config; the
kernel's ledger must not depend on that size, so the tests also force sizes
of 1, 2, 7 and 256 triples. The per-event composition of
``next_event`` and ``apply_event`` (``gas_oracle``) is its reference for one
member, and a lone run on each generator is the reference for a batch. Over
random gases, coupling tables (uniform, dense, sparse with tiny weights, so
the ``ZERO_WEIGHT`` clamp matters, and dense with one emitter's row zeroed,
so runs end in the zero-coupling error) and horizons, the kernel must
produce the same ledger bit for bit and raise the same zero-coupling error;
it consumes its generators, so where it leaves them is not compared. The
batched winner step rests on row-wise reductions of a (members, N - n)
array being bit-equal to the one-dimensional ones, which is checked on its
own. Every ledger the kernel
produces must pass the audit, and every single-field edit of one row to a
value the invariants exclude must fail it. For a batch ledger with its
member row bounds, the audit and the rate tallies must equal the calls on
each member's rows alone, bit for bit, and the k lookups must equal a
replay of each member's rows on the reference state. A batch of the
gas-uniform benchmark's shape must keep ``run`` and the audit within a
budget of bytes per transaction (tracemalloc), and a ledger whose constant
columns are views must give the results of one with materialized columns.
"""

import bisect
import contextlib
import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gas_oracle import (
    Event,
    apply_event,
    column_bytes,
    init_gas,
    ledger_events,
    left_half_count,
    seeded_run,
    stepwise,
)
from stosszahl import gas
from stosszahl.gas import (
    GasConfig,
    ZeroCouplingError,
    audit_ledger,
    batch_left_counts,
    empirical_rates,
    run,
)
from stosszahl.measurement import ZERO_WEIGHT, inverse_cdf, spawn_generators

LEDGER_FIELDS = Event._fields
# Triples per block forced on the kernel; None keeps the size it derives from the config.
BLOCK_SIZES = [None, 1, 2, 7, 256]


def block_size(triples):
    """A context in which the kernel draws ``triples`` triples per block."""
    if triples is None:
        return contextlib.nullcontext()
    return mock.patch.object(gas, "_block_triples", lambda config: triples)


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


def outcome(step, config):
    """The ledger or events, or the error message, of one run from the config seed."""
    try:
        return step(config, np.random.default_rng(config.seed))
    except ZeroCouplingError as exc:
        return str(exc)


def kernel_events(config, rng):
    return run(config, [rng])[1]


@settings(max_examples=60)
@given(gas_configs(), st.sampled_from(BLOCK_SIZES))
def test_kernel_equals_the_stepwise_composition(config, triples):
    with block_size(triples):
        fast = outcome(kernel_events, config)
    slow = outcome(stepwise, config)
    if isinstance(slow, str):
        assert fast == slow
    else:
        assert column_bytes(fast) == column_bytes(slow)


@pytest.mark.parametrize("kind", ["uniform", "dense", "sparse"])
def test_kernel_equals_the_composition_across_blocks_and_at_a_block_edge(kind):
    # t_max at the absorption of the last event of the first block puts the
    # horizon on the first triple of the second block; the long run needs more
    # than three blocks. At the config-derived size both configs draw 256.
    long_config = GasConfig(
        n_molecules=40, n_excited=20, decay_rate=1.0, t_max=60.0, seed=17,
        delay=1e-6, coupling=make_table(kind, 40, 3),
    )
    _bounds, ledger = seeded_run(long_config)
    slow = column_bytes(outcome(stepwise, long_config))
    for triples in BLOCK_SIZES:
        with block_size(triples):
            size = gas._block_triples(long_config)
            assert len(ledger) > 3 * size
            edge = dataclasses.replace(long_config, t_max=float(ledger.t_a[size - 1]))
            assert gas._block_triples(edge) == size
            assert column_bytes(outcome(kernel_events, long_config)) == slow
            fast = outcome(kernel_events, edge)
        assert column_bytes(fast) == column_bytes(outcome(stepwise, edge))
        assert len(fast) == size


def lone_runs(config, children):
    """Per member: its bounds and ledger bytes, or the error message."""
    outcomes = []
    for child in children:
        try:
            bounds, ledger = run(config, [np.random.default_rng(child)])
            outcomes.append([bounds.tolist()] + column_bytes(ledger))
        except ZeroCouplingError as exc:
            outcomes.append(str(exc))
    return outcomes


def one_tiny_weight():
    """4-molecule coupling with emitter 0's weight to molecule 3 below ZERO_WEIGHT."""
    table = np.ones((4, 4))
    np.fill_diagonal(table, 0.0)
    table[0, 3] = 1e-17
    return table


@settings(max_examples=40)
@given(gas_configs(), st.integers(1, 9), st.sampled_from(BLOCK_SIZES))
# three steps of this batch clamp with one of two or three live rows below
# ZERO_WEIGHT, four steps skip the clamp; alone, a member clamps only its own
@example(
    GasConfig(
        n_molecules=4, n_excited=2, decay_rate=1.0, t_max=3.0, seed=1, delay=0.01,
        coupling=one_tiny_weight(),
    ),
    3,
    None,
)
def test_batch_equals_lone_runs_member_by_member(config, n_members, triples):
    children = np.random.SeedSequence(config.seed).spawn(n_members)
    with block_size(triples):
        lone = lone_runs(config, children)
        rngs = [np.random.default_rng(child) for child in children]
        errors = [result for result in lone if isinstance(result, str)]
        if errors:
            # the error of the lowest failing member, raised after every member ran
            with pytest.raises(ZeroCouplingError) as info:
                run(config, rngs)
            assert str(info.value) == errors[0]
            return
        bounds, ledger = run(config, rngs)
    assert bounds.size == n_members + 1
    for start, stop, result in zip(bounds[:-1], bounds[1:], lone):
        assert [[0, stop - start]] + column_bytes(ledger[start:stop]) == result
    assert bounds[0] == 0 and bounds[-1] == len(ledger)


def test_batch_error_names_the_lowest_failing_member():
    # rows 1 and 2 are zero: member 1 fails on its first event (emitter 1),
    # member 0 on its second (emitter 2, which absorbed its first quantum);
    # the batch reports member 0
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

    Like ``Generator.random``, it fills ``out`` in place when given one.
    """

    def __init__(self, values):
        self.values = list(values)
        self.drawn = 0

    def random(self, size=None, out=None):
        count = out.size if out is not None else 1 if size is None else size
        drawn = [
            self.values[i] if i < len(self.values) else 0.5
            for i in range(self.drawn, self.drawn + count)
        ]
        self.drawn += count
        if out is not None:
            out[...] = drawn
            return out
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
    _bounds, ledger = run(config, [ScriptedUniforms(uniforms)])
    assert column_bytes(ledger) == column_bytes(stepwise(config, ScriptedUniforms(uniforms)))
    assert list(ledger.absorber) == [3]


def test_winner_uniform_just_below_one_takes_the_last_ground_molecule():
    # with these nine weights the pairwise row total exceeds the last
    # sequential cumulative sum, so (1 - 2**-53) * total lies above every
    # cumulative weight: the count is N - n, clipped to the last rank
    weights = [
        1.3902743520047922, 0.7271575935333797, 1.1231871446860424, 0.5840153435823848,
        1.3326441476533977, 1.2870983074886833, 0.7393694429929522, 1.376484230810704,
        0.5585680348051943,
    ]
    table = np.ones((10, 10))
    np.fill_diagonal(table, 0.0)
    table[0, 1:] = weights
    raw = table[0, 1:] / np.add.reduce(table[0, 1:])
    top = float(np.nextafter(1.0, 0.0))
    assert raw.cumsum()[-1] <= top * np.add.reduce(raw)
    config = GasConfig(
        n_molecules=10, n_excited=1, decay_rate=1.0, t_max=1.0, seed=0, delay=0.1,
        coupling=table,
    )
    uniforms = [0.5, 0.0, top, 0.99]  # a wait, emitter rank 0, the winner, a wait past t_max
    _bounds, ledger = run(config, [ScriptedUniforms(uniforms)])
    assert column_bytes(ledger) == column_bytes(stepwise(config, ScriptedUniforms(uniforms)))
    assert list(ledger.absorber) == [9]


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
        _bounds, ledger = seeded_run(config)
    except ZeroCouplingError:
        return
    assert audit_ledger(ledger, config.n_molecules, config.n_excited).passed
    if not len(ledger):
        return
    index = int(where * len(ledger))
    for value in excluded_values(config, ledger, index, field):
        column = getattr(ledger, field).copy()
        column[index] = value
        tampered = dataclasses.replace(ledger, **{field: column})
        audit = audit_ledger(tampered, config.n_molecules, config.n_excited)
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
        bounds, ledger = run(config, rngs)
    except ZeroCouplingError:
        return
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
    n_excited = data.draw(st.sampled_from([None, config.n_excited]))
    batch = audit_ledger(tampered, n_molecules, n_excited, bounds=bounds)
    lone = [
        audit_ledger(tampered[start:stop], n_molecules, n_excited)
        for start, stop in zip(bounds[:-1], bounds[1:])
    ]
    assert batch.violations == tuple(
        f"member {m} {message}" for m, audit in enumerate(lone) for message in audit.violations
    )
    assert batch.passed == all(audit.passed for audit in lone)
    assert batch.n_events == len(ledger)

    # the batch tally is the member-order sum of the lone tallies, also when it
    # is pooled onto the tally of an earlier batch (the batch split at `cut`);
    # a member without events adds t_max to the dwell of its initial label
    n_labels = (config.n_molecules + 1) // 2 + 1
    pooled_lone = [np.zeros((n_labels, n_labels)), np.zeros(n_labels)]
    for member in members:
        if len(member):
            alone = empirical_rates(config, member, [0, len(member)])
            pooled_lone[0] += alone.transition_counts
            pooled_lone[1] += alone.dwell_times
        else:
            pooled_lone[1][left_half_count(init_gas(config))] += config.t_max
    cut = data.draw(st.integers(0, n_members - 1))
    head = empirical_rates(config, ledger[: bounds[cut]], bounds[: cut + 1]) if cut else None
    tail_bounds = bounds[cut:] - bounds[cut]
    for pooled in (
        empirical_rates(config, ledger, bounds),
        empirical_rates(config, ledger[bounds[cut] :], tail_bounds, head),
    ):
        assert [pooled.transition_counts.tobytes(), pooled.dwell_times.tobytes()] == [
            a.tobytes() for a in pooled_lone
        ]

    queries = np.array(
        data.draw(st.lists(st.floats(0.0, config.t_max), max_size=12))
        + [0.0, config.t_max] + ledger.t_a[:3].tolist()
    )
    expected = [replayed_left_counts(config, member, queries.tolist()) for member in members]
    assert batch_left_counts(config, ledger, bounds, queries).tolist() == expected


def replayed_left_counts(config, member, queries):
    """k of one member's rows at each query time, replayed on the reference state."""
    state = init_gas(config)
    times, counts = [0.0], [left_half_count(state)]
    for event in ledger_events(member):
        state = apply_event(state, event)
        times.append(event.t_a)
        counts.append(left_half_count(state))
    return [counts[bisect.bisect_right(times, q) - 1] for q in queries]


def test_batch_audit_names_the_member():
    config = GasConfig(n_molecules=10, n_excited=5, decay_rate=1.0, t_max=3.0, seed=72)
    rngs = [np.random.default_rng(child) for child in np.random.SeedSequence(72).spawn(3)]
    bounds, ledger = run(config, rngs)
    assert bounds[2] - bounds[1] > 3
    sizes = ledger.confirmation_set_size.copy()
    sizes[bounds[1] + 3] += 1
    tampered = dataclasses.replace(ledger, confirmation_set_size=sizes)
    audit = audit_ledger(tampered, 10, 5, bounds=bounds)
    assert audit.violations == ("member 1 event 3: confirmation set size 6 != 5 ground molecules",)
    # one member alone keeps the unprefixed message
    assert audit_ledger(tampered[bounds[1] : bounds[2]], 10, 5).violations == (
        "event 3: confirmation set size 6 != 5 ground molecules",
    )


@pytest.mark.parametrize("bounds", [[0, 5], [1, 6], [0, 3, 2, 6], [[0, 6]], [0]])
def test_member_bounds_must_rise_from_zero_to_the_ledger_length(bounds):
    config = GasConfig(n_molecules=10, n_excited=5, decay_rate=1.0, t_max=3.0, seed=72)
    _bounds, ledger = seeded_run(config)
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
    bounds, ledger = run(config, rngs)
    member = ledger[bounds[1]:bounds[2]]
    # the member as a one-member batch, pooled from zero
    rates = empirical_rates(config, member, [0, len(member)])
    assert not rates.transition_counts.any()
    assert rates.transition_counts.dtype == np.float64
    assert rates.rates.dtype == np.float64


def test_batch_tally_holds_no_per_member_tally():
    # one (51, 51) float tally per member of a 256-member batch would take
    # 256 * 51**2 * 8 bytes; pooling the batch must peak well below that
    config = GasConfig(n_molecules=100, n_excited=50, decay_rate=1.0, t_max=3.0, seed=3)
    rngs = [np.random.default_rng(child) for child in np.random.SeedSequence(3).spawn(256)]
    bounds, ledger = run(config, rngs)
    assert len(ledger) > 30_000
    tracemalloc.start()
    try:
        pooled = empirical_rates(config, ledger, bounds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pooled.transition_counts.shape == (51, 51)
    assert peak < 256 * 51 * 51 * 8


def test_coupled_batch_run_peaks_below_the_recorded_bound():
    # 3,631,370 bytes is this run's tracemalloc peak when each block drops its
    # temporaries once they are used and the constant columns are views; the
    # bound leaves 10% above it (each member drawing into an array of its own
    # peaked at 6,461,212 bytes)
    config = GasConfig(
        n_molecules=100, n_excited=50, decay_rate=1.0, t_max=3.0, seed=3, delay=1e-12,
        coupling=make_table("dense", 100, 3),
    )
    rngs = [np.random.default_rng(child) for child in np.random.SeedSequence(3).spawn(256)]
    tracemalloc.start()
    try:
        _bounds, ledger = run(config, rngs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ledger) > 30_000
    assert peak < 1.1 * 3_631_370


def gas_uniform_batch(coupling):
    """The config and 256 generators of a batch of the gas-uniform benchmark's shape."""
    config = GasConfig(
        n_molecules=100, n_excited=50, decay_rate=1.0, t_max=3.0, seed=20260809, delay=1e-12,
        coupling=make_table(coupling, 100, 20260809),
    )
    return config, spawn_generators(20260809, 0, 256)


@pytest.mark.parametrize("coupling", ["uniform", "dense"])
def test_batch_run_peaks_at_most_125_bytes_per_transaction(coupling):
    # the run held each transaction in several places at once: 181 bytes per
    # ledger row with uniform weights and 171 with a coupling table
    config, rngs = gas_uniform_batch(coupling)
    tracemalloc.start()
    try:
        _bounds, ledger = run(config, rngs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ledger) > 30_000
    assert peak <= 125 * len(ledger)


@pytest.mark.parametrize("coupling", ["uniform", "dense"])
def test_batch_audit_with_its_ledger_peaks_at_most_120_bytes_per_transaction(coupling):
    # the peak counts the ledger the audit reads, traced since it was made;
    # it was 174 bytes per row with every column materialized
    config, rngs = gas_uniform_batch(coupling)
    tracemalloc.start()
    try:
        bounds, ledger = run(config, rngs)
        tracemalloc.reset_peak()
        audit = audit_ledger(ledger, 100, 50, bounds=bounds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert audit.passed and len(ledger) > 30_000
    assert peak <= 120 * len(ledger)


def test_view_columns_give_the_results_of_materialized_columns(tmp_path):
    # a uniform-coupling ledger holds its winner weight and confirmation set
    # size as read-only zero-stride views; the audit, member slices and the
    # file round trip must not tell them from materialized columns
    config = GasConfig(n_molecules=10, n_excited=5, decay_rate=1.0, t_max=3.0, seed=5, delay=1e-12)
    bounds, ledger = run(config, spawn_generators(5, 0, 4))
    for column in (ledger.winner_weight, ledger.confirmation_set_size):
        assert column.strides == (0,) and not column.flags.writeable
    materialized = gas.Ledger(*(np.array(column) for column in vars(ledger).values()))
    tampered = materialized.t_e.copy()
    tampered[bounds[2] + 1] = math.nan
    for view, full in (
        (ledger, materialized),
        (dataclasses.replace(ledger, t_e=tampered), dataclasses.replace(materialized, t_e=tampered)),
    ):
        for args in ((), (10,), (10, 5)):
            assert audit_ledger(view, *args, bounds=bounds) == audit_ledger(full, *args, bounds=bounds)
    assert not audit_ledger(dataclasses.replace(ledger, t_e=tampered), bounds=bounds).passed
    for m, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
        member = ledger[start:stop]
        assert column_bytes(member) == column_bytes(materialized[start:stop])
        columns = vars(member).values()
        assert all(column.flags.writeable and column.flags.c_contiguous for column in columns)
        gas.write_ledger_csv(tmp_path / f"view{m}.csv", member)
        gas.write_ledger_csv(tmp_path / f"full{m}.csv", materialized[start:stop])
        assert (tmp_path / f"view{m}.csv").read_bytes() == (tmp_path / f"full{m}.csv").read_bytes()
        read = gas.read_ledger(tmp_path / f"view{m}.csv")
        assert column_bytes(read) == column_bytes(member)
        audits = [audit_ledger(rows, 10, 5) for rows in (read, member, materialized[start:stop])]
        assert audits[0] == audits[1] == audits[2]
