import dataclasses
import itertools
import math

import numpy as np
import pytest

from gas_oracle import (
    Event,
    GasState,
    TransactionError,
    apply_event,
    column_bytes,
    init_gas,
    ledger_events,
    ledger_of,
    left_half_count,
    next_event,
    seeded_run,
    stepwise,
)
from stosszahl import gas
from stosszahl.config import SCENARIO_SCHEMAS, ConfigError, ScenarioConfig
from stosszahl.csvio import read_csv
from stosszahl.gas import (
    EmpiricalRates,
    GasConfig,
    Ledger,
    audit_ledger,
    batch_left_counts,
    empirical_rates,
    iter_ensemble,
    macrostate_entropy,
    read_ledger,
    run,
    summarize_ensemble,
    write_ledger_csv,
    write_trajectory_csv,
)
from stosszahl.measurement import spawn_generators
from stosszahl.scenarios import run_scenario


def make_config(**overrides):
    base = dict(n_molecules=10, n_excited=5, decay_rate=1.0, t_max=10.0, seed=1)
    base.update(overrides)
    return GasConfig(**base)


# --- configuration and initial state -----------------------------------------

def test_init_all_ground():
    state = init_gas(make_config(n_molecules=4, n_excited=0))
    assert state.quanta == 0 and state.time == 0.0


def test_init_all_excited():
    state = init_gas(make_config(n_molecules=4, n_excited=4))
    assert state.quanta == 4


def test_init_documented_layout():
    state = init_gas(make_config(n_molecules=100, n_excited=50))
    assert np.array_equal(np.flatnonzero(state.levels), np.arange(50))
    assert left_half_count(state) == 50


def test_config_rejects_excess_excited():
    with pytest.raises(ValueError, match="n_excited"):
        make_config(n_molecules=4, n_excited=5)


def test_config_rejects_nonpositive_rate():
    with pytest.raises(ValueError, match="decay_rate"):
        make_config(decay_rate=0.0)


@pytest.mark.parametrize("rate", [5e-324, math.nextafter(1e-300, 0.0)])
def test_config_rejects_a_decay_rate_whose_waiting_times_overflow(rate):
    with pytest.raises(ValueError, match=rf"^decay_rate must be >= 1e-300, got {rate!r}$"):
        make_config(n_molecules=4, n_excited=2, decay_rate=rate, t_max=1.0)


def test_the_least_decay_rate_runs():
    # Warnings are errors here: the waiting times 37 / (n * rate) stay finite.
    config = make_config(n_molecules=4, n_excited=1, decay_rate=1e-300, t_max=1.0)
    assert [len(ledger) for _bounds, ledger in gas.iter_ensemble(config, 3)] == [0]
    assert SCENARIO_SCHEMAS["gas-equilibrium"]["decay_rate"][0].lo == gas.MIN_DECAY_RATE == 1e-300


def test_config_rejects_zero_delay():
    with pytest.raises(ValueError, match="delay"):
        make_config(delay=0.0)


@pytest.mark.parametrize("fraction", [0.25, 0.5])
def test_config_rejects_a_delay_the_clock_cannot_add(fraction):
    # below ulp(t_max) / 2, or at it (a tie rounds to the even neighbour),
    # t_e + delay rounds back to t_e for emissions in the last binade
    t_max = 4000.0
    assert 3000.0 + math.ulp(t_max) / 2 == 3000.0
    with pytest.raises(ValueError, match="half the float spacing"):
        make_config(t_max=t_max, delay=math.ulp(t_max) * fraction)


@pytest.mark.parametrize("delay", [math.ulp(4000.0), math.nextafter(math.ulp(4000.0) / 2, 1.0)])
def test_smallest_accepted_delay_keeps_emission_before_absorption(delay):
    # ~8000 events per member carry t_e up to t_max, where ulp(t_e) = ulp(t_max)
    config = make_config(n_molecules=4, n_excited=2, t_max=4000.0, delay=delay)
    _bounds, ledger = seeded_run(config)
    assert ledger.t_e[-1] > 2048.0
    assert np.all(ledger.t_e < ledger.t_a)
    assert audit_ledger(ledger, 4, 2).passed


def test_config_delay_defaults_to_fraction_of_lifetime():
    config = make_config(decay_rate=4.0)
    assert np.isclose(config.delay, 1e-6 / 4.0)


def test_config_rejects_bad_coupling_shape():
    with pytest.raises(ValueError, match="coupling"):
        make_config(coupling=np.ones((3, 3)))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_config_rejects_non_finite_coupling(bad):
    # np.min(table) < 0 is False for NaN, and a NaN column gave NaN winner weights
    table = np.ones((10, 10))
    np.fill_diagonal(table, 0.0)
    table[2, 3] = bad
    with pytest.raises(ValueError, match="finite"):
        make_config(coupling=table)


def test_config_rejects_negative_coupling():
    table = -np.ones((10, 10))
    with pytest.raises(ValueError, match="nonnegative"):
        make_config(coupling=table)


def test_config_rejects_coupling_rows_whose_sum_overflows():
    # each weight is finite; a confirmation set's sum is at most its row's
    table = np.full((10, 10), 1e307)
    np.fill_diagonal(table, 0.0)
    assert make_config(coupling=table).coupling is not None
    table[4, 5] = 1e308
    with pytest.raises(ValueError, match="^coupling weights and each emitter's sum of them must be finite$"):
        make_config(coupling=table)


# --- single events --------------------------------------------------------------

def test_forced_pair_is_selected():
    config = make_config(n_molecules=2, n_excited=1)
    rng = np.random.default_rng(0)
    event = next_event(init_gas(config), config, rng)
    assert event.emitter == 0 and event.absorber == 1
    assert event.winner_weight == 1.0 and event.confirmation_set_size == 1


def test_no_event_when_all_excited():
    config = make_config(n_molecules=4, n_excited=4)
    assert next_event(init_gas(config), config, np.random.default_rng(0)) is None


def test_no_event_when_all_ground():
    config = make_config(n_molecules=4, n_excited=0)
    assert next_event(init_gas(config), config, np.random.default_rng(0)) is None


def test_uniform_winner_frequencies():
    # binomial oracle over the three possible absorbers
    config = make_config(n_molecules=4, n_excited=1, t_max=1e9)
    state = init_gas(config)
    rng = np.random.default_rng(12)
    n = 100_000
    counts = np.zeros(4, dtype=int)
    for _ in range(n):
        counts[next_event(state, config, rng).absorber] += 1
    assert counts[0] == 0
    sigma = math.sqrt((1 / 3) * (2 / 3) / n)
    for mol in (1, 2, 3):
        assert abs(counts[mol] / n - 1 / 3) < 3 * sigma


def test_coupling_table_biases_winner():
    table = np.zeros((3, 3))
    table[0, 1] = 3.0
    table[0, 2] = 1.0
    config = make_config(n_molecules=3, n_excited=1, coupling=table)
    state = init_gas(config)
    rng = np.random.default_rng(13)
    n = 20_000
    wins = np.zeros(3, dtype=int)
    for _ in range(n):
        event = next_event(state, config, rng)
        wins[event.absorber] += 1
        assert event.winner_weight in (0.75, 0.25)
    sigma = math.sqrt(0.75 * 0.25 / n)
    assert abs(wins[1] / n - 0.75) < 3 * sigma


# The Stosszahlansatz: the quantum has no memory. Within a member, let X_j =
# [absorber_j = emitter_{j-1}] for each event after the first. The previous
# emitter is always in the confirmation set, so with uniform coupling
# P(X_j = 1) = p = 1 / (N - n) given the past, and sum_j (X_j - p) is a
# martingale with variance sum_j p (1 - p).
UNIFORM_GAS = dict(n_molecules=100, n_excited=50, decay_rate=1.0, t_max=3.0, delay=1e-12)


def memory_z(batches):
    """The z of sum_j (X_j - p) over every member of (bounds, ledger) batches, with uniform coupling."""
    p = 1.0 / (UNIFORM_GAS["n_molecules"] - UNIFORM_GAS["n_excited"])
    hits = trials = 0
    for bounds, ledger in batches:
        follows = np.ones(len(ledger), dtype=bool)
        follows[bounds[:-1][np.diff(bounds) > 0]] = False
        x = (ledger.absorber[1:] == ledger.emitter[:-1])[follows[1:]]
        hits += int(x.sum())
        trials += x.size
    return (hits - p * trials) / math.sqrt(trials * p * (1.0 - p))


@pytest.mark.parametrize("seed", [20260809, 1, 7])
def test_the_quantum_has_no_memory(seed):
    # 1000 members at the benchmark's gas-uniform size, ~150,000 events;
    # z read -0.75, 0.26 and 0.90 at these seeds
    config = GasConfig(seed=seed, **UNIFORM_GAS)
    assert abs(memory_z(iter_ensemble(config, 1000))) < 4


def test_a_kernel_with_memory_is_caught():
    # 1% of the time the previous emitter takes the quantum back: P(X_j = 1)
    # rises from 0.02 to 0.03, z ~ 0.07 sqrt(events): 9.4 over these 150 members
    def remembering_member(config, rng):
        state, events = init_gas(config), []
        while True:
            event = next_event(state, config, rng)
            if event is None or event.t_a > config.t_max:
                return events
            if events and rng.random() < 0.01:
                event = event._replace(absorber=events[-1].emitter)
            state = apply_event(state, event)
            events.append(event)

    config = GasConfig(seed=1, **UNIFORM_GAS)
    members = [remembering_member(config, rng) for rng in spawn_generators(config.seed, 0, 150)]
    bounds = np.cumsum([0] + [len(events) for events in members])
    assert memory_z([(bounds, ledger_of(itertools.chain(*members)))]) > 4


def test_zero_coupling_row_rejected():
    table = np.zeros((3, 3))
    config = make_config(n_molecules=3, n_excited=1, coupling=table)
    with pytest.raises(ValueError, match="all zero"):
        next_event(init_gas(config), config, np.random.default_rng(0))


def test_apply_event_swaps_levels_and_conserves():
    config = make_config(n_molecules=3, n_excited=1)
    state = init_gas(config)
    event = Event(t_e=0.5, t_a=0.6, emitter=0, absorber=2, winner_weight=1.0, confirmation_set_size=2)
    after = apply_event(state, event)
    assert after.levels.tolist() == [0, 0, 1]
    assert after.quanta == state.quanta == 1
    assert after.time == 0.6


def test_reapplying_event_is_rejected():
    config = make_config(n_molecules=3, n_excited=1)
    event = Event(t_e=0.5, t_a=0.6, emitter=0, absorber=2, winner_weight=1.0, confirmation_set_size=2)
    after = apply_event(init_gas(config), event)
    with pytest.raises(TransactionError, match="not excited"):
        apply_event(after, event)


def test_apply_event_requires_ground_absorber():
    config = make_config(n_molecules=3, n_excited=2)
    event = Event(t_e=0.5, t_a=0.6, emitter=0, absorber=1, winner_weight=1.0, confirmation_set_size=1)
    with pytest.raises(TransactionError, match="ground"):
        apply_event(init_gas(config), event)


# --- full runs ----------------------------------------------------------------------

def test_empty_gas_gives_empty_ledger():
    config = make_config(n_molecules=6, n_excited=0)
    bounds, events = seeded_run(config)
    assert len(events) == 0
    assert bounds.tolist() == [0, 0]


def test_ledger_slices_copy_rows_and_is_not_indexed_by_event():
    _bounds, ledger = seeded_run(make_config(t_max=3.0))
    part = ledger[2:5]
    assert column_bytes(part) == [column[2:5].astype(float).tobytes() for column in vars(ledger).values()]
    part.emitter[0] = -1
    assert ledger.emitter[2] != -1
    for index in (0, -1, np.int64(1)):
        with pytest.raises(TypeError, match="slice"):
            ledger[index]


def test_saturated_gas_gives_empty_ledger():
    _bounds, events = seeded_run(make_config(n_molecules=6, n_excited=6))
    assert len(events) == 0


def test_two_body_exchange_alternates():
    config = make_config(n_molecules=2, n_excited=1, delay=0.01, t_max=50.0)
    _bounds, events = seeded_run(config)
    assert len(events) > 10
    assert np.all(events.t_e < events.t_a)
    alternating = np.arange(len(events)) % 2
    assert np.array_equal(events.emitter, alternating)
    assert np.array_equal(events.absorber, 1 - alternating)


def test_run_is_deterministic():
    config = make_config(n_molecules=30, n_excited=15, t_max=20.0, seed=77)
    bounds_a, events_a = seeded_run(config)
    bounds_b, events_b = seeded_run(config)
    assert column_bytes(events_a) == column_bytes(events_b)
    assert bounds_a.tolist() == bounds_b.tolist() == [0, len(events_a)]


def test_run_takes_its_generators_and_rates_take_member_bounds():
    # no default stream: a config seed is only the root of an ensemble, and
    # a rate tally is always over member row bounds
    config = make_config()
    with pytest.raises(TypeError):
        run(config)
    bounds, ledger = seeded_run(config)
    with pytest.raises(TypeError):
        empirical_rates(config, ledger)
    empirical_rates(config, ledger, bounds)


def test_run_matches_stepwise_composition():
    # dual route: the optimized loop must replay next_event/apply_event exactly
    table = np.random.default_rng(8).random((12, 12))
    np.fill_diagonal(table, 0.0)
    configs = [
        make_config(n_molecules=25, n_excited=9, t_max=15.0, seed=5, decay_rate=1.7),
        make_config(n_molecules=12, n_excited=6, t_max=15.0, seed=6, coupling=table),
    ]
    for config in configs:
        _bounds, fast = seeded_run(config)
        assert column_bytes(fast) == column_bytes(stepwise(config, np.random.default_rng(config.seed)))
        assert len(fast) > 50


def test_arrow_of_time_holds_on_every_event():
    config = make_config(n_molecules=20, n_excited=10, t_max=30.0, seed=3)
    _bounds, events = seeded_run(config)
    assert np.all(events.t_e < events.t_a)
    assert np.all(np.diff(events.t_e) >= 0.0)


def test_conservation_is_exact_on_trajectory():
    # replay the ledger columns: every event leaves exactly n molecules excited
    config = make_config(n_molecules=20, n_excited=7, t_max=30.0, seed=4)
    _bounds, ledger = seeded_run(config)
    levels = init_gas(config).levels
    excited_after = []
    for emitter, absorber in zip(ledger.emitter.tolist(), ledger.absorber.tolist()):
        levels[emitter] = 0
        levels[absorber] = 1
        excited_after.append(int(np.count_nonzero(levels)))
    assert len(excited_after) > 50
    assert set(excited_after) == {7}


def test_long_runs_match_stepwise_composition():
    # runs of several hundred events draw their uniforms over several blocks
    table = np.random.default_rng(10).random((40, 40))
    np.fill_diagonal(table, 0.0)
    configs = [
        make_config(n_molecules=40, n_excited=20, t_max=30.0, seed=11),
        make_config(n_molecules=40, n_excited=20, t_max=30.0, seed=12, coupling=table),
    ]
    for config in configs:
        _bounds, fast = seeded_run(config)
        assert column_bytes(fast) == column_bytes(stepwise(config, np.random.default_rng(config.seed)))
        assert len(fast) > 500


def test_run_stops_at_last_absorption_inside_horizon(tmp_path):
    # a delay of half a lifetime makes emissions before t_max absorb after it
    config = make_config(n_molecules=10, n_excited=5, t_max=10.0, delay=0.5, seed=1)
    bounds, ledger = seeded_run(config)
    assert ledger.t_a[-1] <= config.t_max
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(path, config, ledger)
    assert float(read_csv(path)[-1][0]) == ledger.t_a[-1]
    empirical_rates(config, ledger, bounds)


def test_emitter_and_absorber_anticorrelated_after_event():
    config = make_config(n_molecules=10, n_excited=5, t_max=10.0, seed=9)
    _bounds, events = seeded_run(config)
    state = init_gas(config)
    for event in ledger_events(events):
        state = apply_event(state, event)
        assert state.levels[event.emitter] == 0
        assert state.levels[event.absorber] == 1


def test_half_filled_gas_relaxes_to_hypergeometric_mean():
    # oracle: equilibrium mean k = n (N/2) / N = 25
    config = make_config(n_molecules=100, n_excited=50, t_max=50.0, seed=21)
    state = init_gas(config)
    assert left_half_count(state) == 50
    late = []
    for event in ledger_events(seeded_run(config)[1]):
        state = apply_event(state, event)
        if event.t_a >= 30.0:
            late.append(left_half_count(state))
    assert abs(np.mean(late) - 25.0) < 2.0


def test_events_keep_occurring_at_equilibrium():
    # ledger density stays near n * decay_rate while any absorber exists
    config = make_config(n_molecules=20, n_excited=10, t_max=100.0, seed=30)
    _bounds, events = seeded_run(config)
    density = np.count_nonzero(events.t_e >= 50.0) / 50.0
    assert abs(density - 10.0) / 10.0 < 0.2


def test_left_count_autocorrelation_decays():
    # molecular-chaos imprint: correlation gone after 5 mixing times
    config = make_config(n_molecules=20, n_excited=10, t_max=500.0, seed=31)
    bounds, ledger = seeded_run(config)
    sample_times = np.arange(10.0, 500.0, 0.5)
    k = batch_left_counts(config, ledger, bounds, sample_times)[0].astype(float)
    k -= k.mean()
    lag = 5  # 5 * (1 / 2 lambda) / 0.5 sample spacing
    autocorr = np.dot(k[:-lag], k[lag:]) / np.dot(k, k)
    assert abs(autocorr) <= 0.1


# --- coarse graining -----------------------------------------------------------------

def test_left_half_count_examples():
    assert left_half_count(GasState(np.array([1, 1, 0, 0]), 0.0)) == 2
    assert left_half_count(GasState(np.zeros(4, dtype=int), 0.0)) == 0
    assert left_half_count(init_gas(make_config(n_molecules=100, n_excited=50))) == 50


def test_macrostate_entropy_unique_state():
    config = make_config(n_molecules=4, n_excited=2)
    assert macrostate_entropy(2, config) == 0.0


def test_macrostate_entropy_hand_count():
    config = make_config(n_molecules=4, n_excited=2)
    assert np.isclose(macrostate_entropy(1, config), math.log(4.0), atol=1e-12)


def test_macrostate_entropy_matches_enumeration():
    # oracle: brute-force count of microstates at each k
    for n_mol, n_exc in ((4, 2), (6, 3), (6, 2)):
        config = make_config(n_molecules=n_mol, n_excited=n_exc)
        half = n_mol // 2
        counts = {}
        for placement in itertools.combinations(range(n_mol), n_exc):
            k = sum(1 for mol in placement if mol < half)
            counts[k] = counts.get(k, 0) + 1
        for k, count in counts.items():
            assert np.isclose(macrostate_entropy(k, config), math.log(count), atol=1e-12)


def test_macrostate_entropy_maximized_at_even_split():
    # oracle: exhaustive scan over k
    config = make_config(n_molecules=100, n_excited=50)
    values = {k: macrostate_entropy(k, config) for k in range(51)}
    assert max(values, key=values.get) == 25


def test_macrostate_entropy_rejects_bad_inputs():
    with pytest.raises(ValueError, match="even"):
        macrostate_entropy(1, make_config(n_molecules=5, n_excited=2))
    config = make_config(n_molecules=6, n_excited=2)
    with pytest.raises(ValueError, match="outside"):
        macrostate_entropy(3, config)
    heavy = make_config(n_molecules=6, n_excited=5)
    with pytest.raises(ValueError, match="right-half"):
        macrostate_entropy(1, heavy)  # 4 quanta cannot fit in 3 right slots


def test_batch_left_counts_step_lookup():
    # 6 molecules, 3 quanta: k = 3 from t = 0, 2 from t = 1 and 1 from t = 2;
    # a member without events keeps k = 3, and queries need not be sorted
    config = make_config(n_molecules=6, n_excited=3, t_max=5.0)
    ledger = Ledger(
        t_e=np.array([0.9, 1.9]), t_a=np.array([1.0, 2.0]),
        emitter=np.array([0, 1]), absorber=np.array([3, 4]),
        winner_weight=np.full(2, 1 / 3), confirmation_set_size=np.array([3, 3]),
    )
    queries = [0.0, 0.5, 1.0, 5.0, 1.5]
    assert batch_left_counts(config, ledger, [0, 2], queries).tolist() == [[3, 3, 2, 1, 2]]
    assert batch_left_counts(config, ledger, [0, 0, 2], queries).tolist() == [
        [3, 3, 3, 3, 3], [3, 3, 2, 1, 2],
    ]
    with pytest.raises(ValueError, match="trajectory start"):
        batch_left_counts(config, ledger, [0, 2], [1.0, -0.1])


# --- empirical rates -------------------------------------------------------------------

def test_two_molecule_rates_recover_decay_rate():
    # exponential-clock oracle: both rates equal decay_rate; with one molecule per
    # half, k = 1 labels "molecule 0 excited" and k = 0 "molecule 1 excited"
    config = make_config(n_molecules=2, n_excited=1, t_max=2000.0, seed=40, decay_rate=1.0)
    bounds, events = seeded_run(config)
    estimate = empirical_rates(config, events, bounds)
    assert estimate.zero_dwell_labels == ()
    for rate in (estimate.rates[0, 1], estimate.rates[1, 0]):
        assert abs(rate - 1.0) < 0.10


def test_k_chain_rates_match_birth_death_oracle():
    # analytic rates for the half-filled gas: down = k^2/(N/2), up = (n-k)^2/(N/2);
    # only labels with enough dwell time carry a meaningful estimate
    config = make_config(n_molecules=100, n_excited=50, t_max=1000.0, seed=41)
    bounds, events = seeded_run(config)
    estimate = empirical_rates(config, events, bounds)
    half = 50
    checked = 0
    for k in range(51):
        if estimate.dwell_times[k] < 50.0:
            continue
        checked += 1
        down = k * k / half
        up = (50 - k) * (50 - k) / half
        assert abs(estimate.rates[k - 1, k] - down) / down < 0.15
        assert abs(estimate.rates[k + 1, k] - up) / up < 0.15
    assert checked >= 5


def test_unvisited_labels_are_flagged_not_fabricated():
    config = make_config(n_molecules=100, n_excited=50, t_max=20.0, seed=42)
    bounds, events = seeded_run(config)
    estimate = empirical_rates(config, events, bounds)
    assert len(estimate.zero_dwell_labels) > 0
    for label in estimate.zero_dwell_labels:
        assert np.all(estimate.rates[:, label] == 0.0)


def replayed_rates(config, events):
    """Counts and dwell times by replaying apply_event, the loop empirical_rates replaced."""
    n_labels = config.n_molecules // 2 + 1
    counts = np.zeros((n_labels, n_labels))
    dwell = np.zeros(n_labels)
    state = init_gas(config)
    label = left_half_count(state)
    t_prev = 0.0
    for event in ledger_events(events):
        dwell[label] += event.t_a - t_prev
        t_prev = event.t_a
        state = apply_event(state, event)
        new_label = left_half_count(state)
        if new_label != label:
            counts[new_label, label] += 1
        label = new_label
    dwell[label] += config.t_max - t_prev
    return counts, dwell


def test_column_rates_equal_the_replayed_rates():
    # same sums in the same order, so the results are bit-identical
    table = np.random.default_rng(14).random((30, 30))
    np.fill_diagonal(table, 0.0)
    configs = [
        make_config(n_molecules=100, n_excited=50, t_max=5.0, seed=13),
        make_config(n_molecules=30, n_excited=8, t_max=20.0, seed=14, coupling=table),
    ]
    for config in configs:
        bounds, ledger = seeded_run(config)
        counts, dwell = replayed_rates(config, ledger)
        estimate = empirical_rates(config, ledger, bounds)
        assert np.array_equal(estimate.transition_counts, counts)
        assert np.array_equal(estimate.dwell_times, dwell)


def test_pooled_rates_count_the_dwell_of_members_without_events():
    # at k = 5 of 10 molecules with 5 quanta every quantum is on the left, so
    # the exact exit rate is decay_rate * 5 * 5 / 5 = 5; over t_max = 0.1 most
    # members record no event and sat at k = 5 all along
    config = make_config(n_molecules=10, n_excited=5, t_max=0.1, seed=7)
    pooled = None
    empty = 0
    for bounds, ledger in iter_ensemble(config, 2000):
        empty += int(np.count_nonzero(np.diff(bounds) == 0))
        pooled = empirical_rates(config, ledger, bounds, pooled)
    assert empty == 1181
    exits = pooled.transition_counts[:, 5].sum()
    # within 4 standard errors of a Poisson count; without the empty members'
    # dwell it read 22.3
    assert abs(pooled.rates[:, 5].sum() - 5.0) <= 4.0 * 5.0 / math.sqrt(exits)


def test_combined_rates_pool_counts_and_dwell(tmp_path):
    # the gas-equilibrium scenario pools every batch into one tally; its rate
    # file must hold the rates of the members' lone tallies summed in member order
    schema = SCENARIO_SCHEMAS["gas-equilibrium"]
    params = {key: default for key, (_parse, default) in schema.items()}
    params.update(
        n_molecules=10, n_excited=5, t_max=5.0, n_seeds=100, n_samples=11,
        equilibration_time=2.0, check_times=(1.0, 2.0, 5.0),
    )
    run_scenario(ScenarioConfig("gas-equilibrium", seed=43, out_dir=tmp_path, params=params))
    config = make_config(n_molecules=10, n_excited=5, t_max=5.0, seed=43)
    parts = [
        empirical_rates(config, ledger[start:stop], [0, stop - start])
        for bounds, ledger in iter_ensemble(config, 100)
        for start, stop in zip(bounds[:-1], bounds[1:])
        if stop > start
    ]
    pooled = EmpiricalRates(
        sum(p.transition_counts for p in parts), sum(p.dwell_times for p in parts)
    )
    written = [[float(x) for x in row] for row in read_csv(tmp_path / "gas_empirical_rates.csv")[1:]]
    assert np.array_equal(np.array(written), pooled.rates)


# --- ensembles ------------------------------------------------------------------------

def test_ensemble_series_statistics():
    config = make_config(n_molecules=20, n_excited=10, t_max=20.0, seed=50)
    times = np.array([0.0, 0.5, 2.0, 5.0, 10.0, 20.0])
    counts = np.vstack(
        [
            batch_left_counts(config, ledger, bounds, times)
            for bounds, ledger in iter_ensemble(config, 100)
        ]
    )
    series = summarize_ensemble(config, counts)
    # all members share the initial macrostate
    assert series.k_entropy[0] == 0.0
    assert series.mean_macro_entropy[0] == 0.0
    # hypergeometric oracle: late mean k near 5 within 3 standard errors
    sigma = math.sqrt(10 * 0.5 * 0.5 * (10 / 19)) / math.sqrt(100)
    assert abs(series.mean_left_count[-1] - 5.0) < 3 * sigma + 1e-9
    # macrostate entropy rises from 0 toward the scan maximum
    s_max = max(macrostate_entropy(k, config) for k in range(11))
    assert series.mean_macro_entropy[-1] > 0.9 * s_max


def test_ensemble_requires_hundred_seeds(tmp_path):
    # the gas-equilibrium scenario is where ensemble statistics are taken
    schema = SCENARIO_SCHEMAS["gas-equilibrium"]
    params = {key: default for key, (_parse, default) in schema.items()}
    params["n_seeds"] = 50
    config = ScenarioConfig("gas-equilibrium", seed=1, out_dir=tmp_path, params=params)
    with pytest.raises(ConfigError, match=">= 100"):
        run_scenario(config)


def test_ensemble_members_are_reproducible():
    config = make_config(n_molecules=10, n_excited=5, t_max=5.0, seed=60)
    first, second = (
        [
            column_bytes(ledger[start:stop])
            for bounds, ledger in iter_ensemble(config, 3)
            for start, stop in zip(bounds[:-1], bounds[1:])
        ]
        for _ in range(2)
    )
    assert first == second
    assert first[0] != first[1]


def test_ensemble_steps_its_members_through_gas_run(monkeypatch):
    # the benchmark counts events as len(result[1]) over the calls of gas.run, so
    # iter_ensemble must reach the kernel there, and yield each call's batch as
    # it is, its ledger holding every member's events, each member's as a lone
    # run gives them
    real_run = gas.run
    calls = []

    def counted_run(config, rngs):
        result = real_run(config, rngs)
        calls.append((len(rngs), result))
        return result

    monkeypatch.setattr(gas, "run", counted_run)
    config = make_config(n_molecules=12, n_excited=5, t_max=3.0, seed=61)
    n_members = 2 * gas._MEMBERS_PER_RUN + 3
    batches = list(iter_ensemble(config, n_members))
    assert [size for size, _result in calls] == [gas._MEMBERS_PER_RUN] * 2 + [3]
    assert len(batches) == len(calls)
    ledgers = []
    for (size, (bounds, ledger)), batch in zip(calls, batches):
        assert batch[0] is bounds and batch[1] is ledger
        assert bounds.size == size + 1
        assert bounds[0] == 0 and bounds[-1] == len(ledger)
        ledgers += [ledger[start:stop] for start, stop in zip(bounds[:-1], bounds[1:])]
    assert len(ledgers) == n_members
    assert sum(len(result[1]) for _size, result in calls) == sum(len(ledger) for ledger in ledgers)
    children = np.random.SeedSequence(config.seed).spawn(n_members)
    for child, ledger in zip(children, ledgers):
        _bounds, lone = real_run(config, [np.random.default_rng(child)])
        assert column_bytes(ledger) == column_bytes(lone)


@pytest.mark.parametrize("n_members", [255, 256, 257, 513])
def test_ensemble_members_equal_lone_runs_on_their_spawned_generators(n_members):
    # iter_ensemble builds each batch's generators in one pass; member i must
    # be the lone run on default_rng of child i of SeedSequence(seed), also
    # at and across the 256-member batch edges
    config = make_config(n_molecules=8, n_excited=3, t_max=2.0, seed=2**70 + 11)
    members = [
        ledger[start:stop]
        for bounds, ledger in iter_ensemble(config, n_members)
        for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist())
    ]
    children = np.random.SeedSequence(config.seed).spawn(n_members)
    assert len(members) == n_members
    for child, member in zip(children, members):
        _bounds, lone = run(config, [np.random.default_rng(child)])
        assert column_bytes(member) == column_bytes(lone)


# --- ledger files and audit --------------------------------------------------------------

def test_ledger_csv_round_trip(tmp_path):
    config = make_config(n_molecules=10, n_excited=5, t_max=5.0, seed=70)
    _bounds, events = seeded_run(config)
    path = tmp_path / "ledger.csv"
    write_ledger_csv(path, events)
    # a run stamps its outputs with a "#" line, which the readers skip
    path.write_bytes(b"# demo run\n" + path.read_bytes())
    assert [row[0] for row in read_csv(path)[1:]] == [str(i) for i in range(len(events))]
    ledger = read_ledger(path)
    assert column_bytes(ledger) == column_bytes(events)
    assert [column.dtype for column in vars(ledger).values()] == [
        column.dtype for column in vars(events).values()
    ]


def test_ledger_csv_header_required(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        read_ledger(path)


def test_ledger_csv_rejects_ids_beyond_int64(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text(
        "event_index,t_e,t_a,emitter,absorber,winner_weight,confirmation_set_size\n"
        "0,0.5,0.6,0,99999999999999999999,1.0,1\n"
    )
    with pytest.raises(ValueError, match="int64"):
        read_ledger(path)


@pytest.mark.parametrize(
    ("indices", "row"), [((1, 2), 0), ((0, 1, 1), 2)], ids=["not-from-zero", "repeated"]
)
def test_ledger_csv_event_index_must_number_the_rows(tmp_path, indices, row):
    # the audit names events by row, so the file's own numbering must agree;
    # a deleted and a swapped row are tested through both audit entry points
    path = tmp_path / "ledger.csv"
    path.write_text(
        ",".join(gas.LEDGER_COLUMNS) + "\n"
        + "".join(f"{index},{index}.5,{index}.6,{index},{index + 1},1.0,1\n" for index in indices)
    )
    with pytest.raises(ValueError, match=f"row {row} has event_index {indices[row]};"):
        read_ledger(path)


def test_trajectory_csv(tmp_path):
    # a row at t = 0 and one after every absorption; k and S_macro replayed
    config = make_config(n_molecules=4, n_excited=2, t_max=5.0, seed=71)
    _bounds, ledger = seeded_run(config)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(path, config, ledger)
    lines = read_csv(path)
    assert lines[0] == ["t", "n", "k", "S_macro"]
    state = init_gas(config)
    k = left_half_count(state)
    expected = [[0.0, 2, k, macrostate_entropy(k, config)]]
    for event in ledger_events(ledger):
        state = apply_event(state, event)
        k = left_half_count(state)
        expected.append([event.t_a, 2, k, macrostate_entropy(k, config)])
    assert [[float(t), int(n), int(k), float(s)] for t, n, k, s in lines[1:]] == expected
    assert len(expected) > 5


def test_trajectory_csv_of_an_empty_ledger_has_the_initial_row(tmp_path):
    config = make_config(n_molecules=5, n_excited=0)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(path, config, seeded_run(config)[1])
    assert read_csv(path)[1:] == [["0", "0", "0", "nan"]]


def test_audit_accepts_clean_run():
    config = make_config(n_molecules=10, n_excited=5, t_max=10.0, seed=72)
    _bounds, events = seeded_run(config)
    audit = audit_ledger(events, n_molecules=10, n_excited=5)
    assert audit.passed
    assert audit.n_events == len(events)


def test_audit_flags_reversed_timestamps():
    audit = audit_ledger(ledger_of([(1.0, 0.5, 0, 1, 1.0, 1)]))
    assert not audit.passed
    assert any("strictly before" in v for v in audit.violations)


def test_audit_flags_decreasing_emission_times():
    audit = audit_ledger(ledger_of([(1.0, 1.1, 0, 1, 1.0, 1), (0.5, 0.6, 1, 0, 1.0, 1)]))
    assert any("decreased" in v for v in audit.violations)


def test_audit_flags_broken_precondition_chain():
    # molecule 0 emits twice without re-absorbing
    audit = audit_ledger(ledger_of([(0.5, 0.6, 0, 1, 1.0, 1), (1.0, 1.1, 0, 2, 1.0, 1)]))
    assert any("emit while ground" in v for v in audit.violations)


def test_audit_flags_bad_weight_and_self_transfer():
    audit = audit_ledger(ledger_of([(0.5, 0.6, 2, 2, 1.5, 0)]))
    joined = " ".join(audit.violations)
    assert "emitter equals absorber" in joined
    assert "weight" in joined
    assert "confirmation" in joined


def test_audit_checks_declared_initial_state():
    # molecules 0..n_excited - 1 start excited: 1 emits first, 0 absorbs first
    ledger = ledger_of([(0.5, 0.6, 1, 0, 1.0, 1)])
    assert audit_ledger(ledger, n_excited=2).violations == (
        "molecule 0 absorbs first but was initially excited",
    )
    assert audit_ledger(ledger, n_excited=1).violations == (
        "molecule 0 absorbs first but was initially excited",
        "molecule 1 emits first but was not initially excited",
    )
    assert audit_ledger(ledger, n_excited=0).violations == (
        "molecule 1 emits first but was not initially excited",
    )
    # a negative id is never in the layout
    assert audit_ledger(ledger_of([(0.5, 0.6, -1, 0, 1.0, 1)]), n_excited=1).violations == (
        "event 0: molecule id -1 out of range",
        "molecule -1 emits first but was not initially excited",
        "molecule 0 absorbs first but was initially excited",
    )


def test_audit_flags_confirmation_set_size_mismatch():
    config = make_config(n_molecules=10, n_excited=5, t_max=10.0, seed=72)
    _bounds, ledger = seeded_run(config)
    sizes = ledger.confirmation_set_size.copy()
    sizes[3] += 1
    tampered = dataclasses.replace(ledger, confirmation_set_size=sizes)
    audit = audit_ledger(tampered, n_molecules=10, n_excited=5)
    assert not audit.passed
    assert audit.violations == ("event 3: confirmation set size 6 != 5 ground molecules",)


def row_by_row_audit(events, n_molecules=None, n_excited=None):
    """The violations found by the per-row loop audit_ledger replaced."""
    declared = None if n_excited is None else set(range(n_excited))
    expected_size = None
    if declared is not None and n_molecules is not None:
        expected_size = n_molecules - n_excited
    violations = []
    previous_emit = -math.inf
    expected_role = {}
    first_role = {}
    for index, (t_emit, t_absorb, emitter, absorber, weight, size) in enumerate(events):
        where = f"event {index}"
        if not t_emit < t_absorb:
            violations.append(f"{where}: t_e {t_emit!r} not strictly before t_a {t_absorb!r}")
        if t_emit < previous_emit:
            violations.append(
                f"{where}: emission time decreased ({t_emit!r} after {previous_emit!r})"
            )
        previous_emit = max(previous_emit, t_emit)
        if emitter == absorber:
            violations.append(f"{where}: emitter equals absorber ({emitter})")
        if not 0.0 < weight <= 1.0:
            violations.append(f"{where}: winner weight {weight!r} outside (0, 1]")
        if size < 1:
            violations.append(f"{where}: confirmation set size {size} < 1")
        if expected_size is not None and size != expected_size:
            violations.append(
                f"{where}: confirmation set size {size} != {expected_size} ground molecules"
            )
        for mol in (emitter, absorber):
            if mol < 0 or (n_molecules is not None and mol >= n_molecules):
                violations.append(f"{where}: molecule id {mol} out of range")
        for mol, role in ((emitter, "emit"), (absorber, "absorb")):
            if mol not in expected_role:
                first_role[mol] = role
            elif expected_role[mol] != role:
                verb = "emit while ground" if role == "emit" else "absorb while excited"
                violations.append(f"{where}: molecule {mol} would {verb}")
            expected_role[mol] = "absorb" if role == "emit" else "emit"
    if declared is not None:
        for mol, role in sorted(first_role.items()):
            if role == "emit" and mol not in declared:
                violations.append(f"molecule {mol} emits first but was not initially excited")
            if role == "absorb" and mol in declared:
                violations.append(f"molecule {mol} absorbs first but was initially excited")
    return tuple(violations)


def test_column_audit_matches_the_row_loop_on_corrupted_ledgers():
    # random field edits, repeated and shuffled rows; same messages, same order
    picker = np.random.default_rng(15)
    replacements = {
        "float": [math.nan, -1.0, 0.0, 1.5, math.inf, 0.25],
        "int": [-1, 0, 1, 9, 99],
    }
    kinds = ["float", "float", "int", "int", "float", "int"]
    for trial in range(150):
        config = make_config(n_molecules=10, n_excited=5, t_max=3.0, seed=100 + trial)
        _bounds, ledger = seeded_run(config)
        rows = [list(event) for event in ledger_events(ledger)]
        for _ in range(picker.integers(0, 4)):
            row, column = picker.integers(len(rows)), picker.integers(len(kinds))
            options = replacements[kinds[column]]
            rows[row][column] = options[picker.integers(len(options))]
        if picker.random() < 0.3:
            rows.append(list(rows[picker.integers(len(rows))]))
        if picker.random() < 0.2:
            picker.shuffle(rows)
        corrupted = ledger_of(rows)
        for n_molecules in (None, 10, 6):
            for n_excited in (None, 5, 2):
                audit = audit_ledger(corrupted, n_molecules=n_molecules, n_excited=n_excited)
                expected = row_by_row_audit(rows, n_molecules, n_excited)
                assert audit.violations == expected
                assert audit.passed == (not expected)


def test_column_audit_matches_the_row_loop_on_ids_at_the_int64_limits():
    # ids too far apart to pack beside the member index are ranked first
    big = np.iinfo(np.int64)
    rows = [
        (0.5, 0.6, big.max, big.min, 0.5, 1),
        (0.7, 0.8, big.min, big.max, 0.5, 1),
        (0.9, 1.0, big.max, 3, 0.5, 1),
        (1.1, 1.2, 3, big.min, 0.5, 1),
    ]
    ledger = ledger_of(rows)
    assert audit_ledger(ledger, n_molecules=4).violations == row_by_row_audit(rows, 4)
    batch = audit_ledger(ledger, n_molecules=4, bounds=[0, 1, 4])
    lone = [audit_ledger(part, 4) for part in (ledger[:1], ledger[1:])]
    assert batch.violations == tuple(
        f"member {m} {message}" for m, audit in enumerate(lone) for message in audit.violations
    )


def test_audit_respects_molecule_range():
    audit = audit_ledger(ledger_of([(0.5, 0.6, 0, 7, 1.0, 1)]), n_molecules=4)
    assert any("out of range" in v for v in audit.violations)
