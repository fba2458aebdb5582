import dataclasses
import itertools
import math

import numpy as np
import pytest

from gas_oracle import (
    GasState,
    TransactionError,
    apply_event,
    init_gas,
    left_half_count,
    next_event,
)
from stosszahl import gas
from stosszahl.config import SCENARIO_SCHEMAS, ConfigError, ScenarioConfig
from stosszahl.csvio import read_csv
from stosszahl.gas import (
    EmpiricalRates,
    GasConfig,
    TransactionEvent,
    Trajectory,
    audit_ledger,
    batch_left_counts,
    empirical_rates,
    iter_ensemble,
    macrostate_entropy,
    read_ledger_raw,
    run,
    summarize_ensemble,
    write_ledger_csv,
    write_trajectory_csv,
)
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


def test_config_rejects_zero_delay():
    with pytest.raises(ValueError, match="delay"):
        make_config(delay=0.0)


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


# --- single events --------------------------------------------------------------

def test_forced_pair_is_selected():
    config = make_config(n_molecules=2, n_excited=1)
    rng = np.random.default_rng(0)
    event = next_event(init_gas(config), config, rng)
    assert event.emitter == 0 and event.absorber == 1
    assert event.winner_weight == 1.0 and event.confirmation_size == 1


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


def test_zero_coupling_row_rejected():
    table = np.zeros((3, 3))
    config = make_config(n_molecules=3, n_excited=1, coupling=table)
    with pytest.raises(ValueError, match="all zero"):
        next_event(init_gas(config), config, np.random.default_rng(0))


def test_event_invariants_enforced_at_construction():
    with pytest.raises(ValueError, match="strictly precede"):
        TransactionEvent(0, 1, 1.0, 1.0, 0.5, 2)
    with pytest.raises(ValueError, match="coincide"):
        TransactionEvent(1, 1, 0.0, 1.0, 0.5, 2)
    with pytest.raises(ValueError, match="weight"):
        TransactionEvent(0, 1, 0.0, 1.0, 1.5, 2)


def test_apply_event_swaps_levels_and_conserves():
    config = make_config(n_molecules=3, n_excited=1)
    state = init_gas(config)
    event = TransactionEvent(0, 2, 0.5, 0.6, 1.0, 2)
    after = apply_event(state, event)
    assert after.levels.tolist() == [0, 0, 1]
    assert after.quanta == state.quanta == 1
    assert after.time == 0.6


def test_reapplying_event_is_rejected():
    config = make_config(n_molecules=3, n_excited=1)
    event = TransactionEvent(0, 2, 0.5, 0.6, 1.0, 2)
    after = apply_event(init_gas(config), event)
    with pytest.raises(TransactionError, match="not excited"):
        apply_event(after, event)


def test_apply_event_requires_ground_absorber():
    config = make_config(n_molecules=3, n_excited=2)
    event = TransactionEvent(0, 1, 0.5, 0.6, 1.0, 1)
    with pytest.raises(TransactionError, match="ground"):
        apply_event(init_gas(config), event)


# --- full runs ----------------------------------------------------------------------

def test_empty_gas_gives_empty_ledger():
    trajectory, events = run(make_config(n_molecules=6, n_excited=0))
    assert list(events) == []
    assert trajectory.times.tolist() == [0.0]


def test_saturated_gas_gives_empty_ledger():
    _trajectory, events = run(make_config(n_molecules=6, n_excited=6))
    assert list(events) == []


def test_two_body_exchange_alternates():
    config = make_config(n_molecules=2, n_excited=1, delay=0.01, t_max=50.0)
    _trajectory, events = run(config)
    assert len(events) > 10
    for i, event in enumerate(events):
        assert event.t_emit < event.t_absorb
        expected_emitter = i % 2
        assert event.emitter == expected_emitter
        assert event.absorber == 1 - expected_emitter


def test_run_is_deterministic():
    config = make_config(n_molecules=30, n_excited=15, t_max=20.0, seed=77)
    trajectory_a, events_a = run(config)
    trajectory_b, events_b = run(config)
    assert list(events_a) == list(events_b)
    assert np.array_equal(trajectory_a.times, trajectory_b.times)
    assert np.array_equal(trajectory_a.left_counts, trajectory_b.left_counts)


def test_run_matches_stepwise_composition():
    # dual route: the optimized loop must replay next_event/apply_event exactly
    table = np.random.default_rng(8).random((12, 12))
    np.fill_diagonal(table, 0.0)
    configs = [
        make_config(n_molecules=25, n_excited=9, t_max=15.0, seed=5, decay_rate=1.7),
        make_config(n_molecules=12, n_excited=6, t_max=15.0, seed=6, coupling=table),
    ]
    for config in configs:
        _trajectory, fast = run(config)
        rng = np.random.default_rng(config.seed)
        state = init_gas(config)
        slow = []
        while True:
            event = next_event(state, config, rng)
            if event is None or event.t_absorb > config.t_max:
                break
            state = apply_event(state, event)
            slow.append(event)
        assert list(fast) == slow
        assert len(fast) > 50


def test_arrow_of_time_holds_on_every_event():
    config = make_config(n_molecules=20, n_excited=10, t_max=30.0, seed=3)
    _trajectory, events = run(config)
    emit_times = [event.t_emit for event in events]
    assert all(event.t_emit < event.t_absorb for event in events)
    assert all(b >= a for a, b in zip(emit_times, emit_times[1:]))


def test_conservation_is_exact_on_trajectory():
    # replay the ledger columns: every event leaves exactly n molecules excited
    config = make_config(n_molecules=20, n_excited=7, t_max=30.0, seed=4)
    _trajectory, ledger = run(config)
    levels = init_gas(config).levels
    excited_after = []
    for emitter, absorber in zip(ledger.emitter.tolist(), ledger.absorber.tolist()):
        levels[emitter] = 0
        levels[absorber] = 1
        excited_after.append(int(np.count_nonzero(levels)))
    assert len(excited_after) > 50
    assert set(excited_after) == {7}


def test_run_consumes_three_uniforms_per_event_plus_the_horizon_draw():
    # the event that would cross t_max draws only its waiting time; an empty or
    # saturated gas forms no event and draws nothing
    table = np.random.default_rng(9).random((12, 12))
    np.fill_diagonal(table, 0.0)
    cases = [
        (make_config(n_molecules=25, n_excited=9, t_max=15.0, seed=5), True),
        (make_config(n_molecules=12, n_excited=6, t_max=15.0, seed=6, coupling=table), True),
        (make_config(n_molecules=100, n_excited=50, t_max=20.0, seed=9), True),
        (make_config(n_molecules=6, n_excited=0, seed=7), False),
        (make_config(n_molecules=6, n_excited=6, seed=8), False),
    ]
    for config, forms_events in cases:
        rng = np.random.default_rng(config.seed)
        _trajectory, ledger = run(config, rng)
        assert (len(ledger) > 0) == forms_events
        reference = np.random.default_rng(config.seed)
        for _ in range(3 * len(ledger) + 1 if forms_events else 0):
            reference.random()
        assert rng.random() == reference.random()


def test_zero_coupling_error_leaves_generator_after_two_draws():
    # the failing event drew its waiting time and its emitter, not a winner
    config = make_config(n_molecules=4, n_excited=2, t_max=1e9, seed=3, coupling=np.zeros((4, 4)))
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError, match="all zero"):
        run(config, rng)
    reference = np.random.default_rng(3)
    reference.random()
    reference.random()
    assert rng.random() == reference.random()


def test_long_runs_match_stepwise_composition():
    # runs of several hundred events draw their uniforms over several blocks
    table = np.random.default_rng(10).random((40, 40))
    np.fill_diagonal(table, 0.0)
    configs = [
        make_config(n_molecules=40, n_excited=20, t_max=30.0, seed=11),
        make_config(n_molecules=40, n_excited=20, t_max=30.0, seed=12, coupling=table),
    ]
    for config in configs:
        _trajectory, fast = run(config)
        rng = np.random.default_rng(config.seed)
        state = init_gas(config)
        slow = []
        while True:
            event = next_event(state, config, rng)
            if event is None or event.t_absorb > config.t_max:
                break
            state = apply_event(state, event)
            slow.append(event)
        assert list(fast) == slow
        assert len(fast) > 500


def test_run_stops_at_last_absorption_inside_horizon():
    # a delay of half a lifetime makes emissions before t_max absorb after it
    config = make_config(n_molecules=10, n_excited=5, t_max=10.0, delay=0.5, seed=1)
    trajectory, ledger = run(config)
    assert ledger.t_a[-1] <= config.t_max
    assert trajectory.times[-1] == ledger.t_a[-1]
    empirical_rates(config, ledger)


def test_emitter_and_absorber_anticorrelated_after_event():
    config = make_config(n_molecules=10, n_excited=5, t_max=10.0, seed=9)
    _trajectory, events = run(config)
    state = init_gas(config)
    for event in events:
        state = apply_event(state, event)
        assert state.levels[event.emitter] == 0
        assert state.levels[event.absorber] == 1


def test_half_filled_gas_relaxes_to_hypergeometric_mean():
    # oracle: equilibrium mean k = n (N/2) / N = 25
    config = make_config(n_molecules=100, n_excited=50, t_max=50.0, seed=21)
    trajectory, _events = run(config)
    assert trajectory.left_counts[0] == 50
    late = trajectory.left_counts[trajectory.times >= 30.0]
    assert abs(late.mean() - 25.0) < 2.0


def test_events_keep_occurring_at_equilibrium():
    # ledger density stays near n * decay_rate while any absorber exists
    config = make_config(n_molecules=20, n_excited=10, t_max=100.0, seed=30)
    _trajectory, events = run(config)
    late = [event for event in events if event.t_emit >= 50.0]
    density = len(late) / 50.0
    assert abs(density - 10.0) / 10.0 < 0.2


def test_left_count_autocorrelation_decays():
    # molecular-chaos imprint: correlation gone after 5 mixing times
    config = make_config(n_molecules=20, n_excited=10, t_max=500.0, seed=31)
    trajectory, _events = run(config)
    sample_times = np.arange(10.0, 500.0, 0.5)
    k = trajectory.left_counts_at(sample_times).astype(float)
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


def test_trajectory_step_lookup():
    trajectory = Trajectory(
        times=np.array([0.0, 1.0, 2.0]),
        left_counts=np.array([3, 2, 1]),
        macro_entropies=np.zeros(3),
        n_excited=3,
    )
    assert trajectory.left_counts_at([0.0, 0.5, 1.0, 5.0]).tolist() == [3, 3, 2, 1]
    with pytest.raises(ValueError, match="trajectory start"):
        trajectory.left_counts_at([-0.1])


# --- empirical rates -------------------------------------------------------------------

def test_two_molecule_rates_recover_decay_rate():
    # exponential-clock oracle: both rates equal decay_rate; with one molecule per
    # half, k = 1 labels "molecule 0 excited" and k = 0 "molecule 1 excited"
    config = make_config(n_molecules=2, n_excited=1, t_max=2000.0, seed=40, decay_rate=1.0)
    _trajectory, events = run(config)
    estimate = empirical_rates(config, events)
    assert estimate.zero_dwell_labels == ()
    for rate in (estimate.rates[0, 1], estimate.rates[1, 0]):
        assert abs(rate - 1.0) < 0.10


def test_k_chain_rates_match_birth_death_oracle():
    # analytic rates for the half-filled gas: down = k^2/(N/2), up = (n-k)^2/(N/2);
    # only labels with enough dwell time carry a meaningful estimate
    config = make_config(n_molecules=100, n_excited=50, t_max=1000.0, seed=41)
    _trajectory, events = run(config)
    estimate = empirical_rates(config, events)
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
    _trajectory, events = run(config)
    estimate = empirical_rates(config, events)
    assert len(estimate.zero_dwell_labels) > 0
    for label in estimate.zero_dwell_labels:
        assert np.all(estimate.rates[:, label] == 0.0)


def test_empty_ledger_rejected():
    config = make_config(n_molecules=4, n_excited=0)
    with pytest.raises(ValueError, match="empty ledger"):
        empirical_rates(config, [])


def replayed_rates(config, events):
    """Counts and dwell times by replaying apply_event, the loop empirical_rates replaced."""
    n_labels = config.n_molecules // 2 + 1
    counts = np.zeros((n_labels, n_labels))
    dwell = np.zeros(n_labels)
    state = init_gas(config)
    label = left_half_count(state)
    t_prev = 0.0
    for event in events:
        dwell[label] += event.t_absorb - t_prev
        t_prev = event.t_absorb
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
        _trajectory, ledger = run(config)
        counts, dwell = replayed_rates(config, ledger)
        estimate = empirical_rates(config, ledger)
        assert np.array_equal(estimate.transition_counts, counts)
        assert np.array_equal(estimate.dwell_times, dwell)


def test_combined_rates_pool_counts_and_dwell(tmp_path):
    # the gas-equilibrium scenario adds each member's tallies in place; its rate
    # file must hold the rates of the members' summed counts and dwell times
    schema = SCENARIO_SCHEMAS["gas-equilibrium"]
    params = {key: default for key, (_parse, default) in schema.items()}
    params.update(
        n_molecules=10, n_excited=5, t_max=5.0, n_seeds=100, n_samples=11,
        equilibration_time=2.0, check_times=(1.0, 2.0, 5.0),
    )
    run_scenario(ScenarioConfig("gas-equilibrium", seed=43, out_dir=tmp_path, params=params))
    config = make_config(n_molecules=10, n_excited=5, t_max=5.0, seed=43)
    parts = [
        part
        for _trajectories, ledger, bounds in iter_ensemble(config, 100)
        for part in empirical_rates(config, ledger, bounds)
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
            for _trajectories, ledger, bounds in iter_ensemble(config, 100)
        ]
    )
    series = summarize_ensemble(config, times, counts)
    # all members share the initial macrostate
    assert series.k_entropy[0] == 0.0
    assert series.mean_macro_entropy[0] == 0.0
    # hypergeometric oracle: late mean k near 5 within 3 standard errors
    sigma = math.sqrt(10 * 0.5 * 0.5 * (10 / 19)) / math.sqrt(100)
    assert abs(series.mean_left_count[-1] - 5.0) < 3 * sigma + 1e-9
    # macrostate entropy rises from 0 toward the scan maximum
    s_max = max(macrostate_entropy(k, config) for k in range(11))
    assert series.mean_macro_entropy[-1] > 0.9 * s_max
    assert series.left_counts.shape == (100, len(times))


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
            list(ledger[start:stop])
            for _trajectories, ledger, bounds in iter_ensemble(config, 3)
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

    def counted_run(config, rng=None):
        result = real_run(config, rng)
        calls.append((len(rng), result))
        return result

    monkeypatch.setattr(gas, "run", counted_run)
    config = make_config(n_molecules=12, n_excited=5, t_max=3.0, seed=61)
    n_members = 2 * gas._MEMBERS_PER_RUN + 3
    batches = list(iter_ensemble(config, n_members))
    assert [size for size, _result in calls] == [gas._MEMBERS_PER_RUN] * 2 + [3]
    assert len(batches) == len(calls)
    ledgers = []
    for (_size, (trajectories, ledger)), batch in zip(calls, batches):
        assert batch[0] is trajectories and batch[1] is ledger
        bounds = batch[2]
        assert bounds[0] == 0 and bounds[-1] == len(ledger)
        assert np.array_equal(np.diff(bounds), [t.times.size - 1 for t in trajectories])
        ledgers += [ledger[start:stop] for start, stop in zip(bounds[:-1], bounds[1:])]
    assert len(ledgers) == n_members
    assert sum(len(result[1]) for _size, result in calls) == sum(len(ledger) for ledger in ledgers)
    children = np.random.SeedSequence(config.seed).spawn(n_members)
    for child, ledger in zip(children, ledgers):
        _trajectory, lone = real_run(config, np.random.default_rng(child))
        assert list(ledger) == list(lone)


# --- ledger files and audit --------------------------------------------------------------

def test_ledger_csv_round_trip(tmp_path):
    config = make_config(n_molecules=10, n_excited=5, t_max=5.0, seed=70)
    _trajectory, events = run(config)
    path = tmp_path / "ledger.csv"
    write_ledger_csv(path, events, header_comment="demo run")
    assert path.read_text().startswith("# demo run\n")
    raw = read_ledger_raw(path)
    assert [row[0] for row in raw] == list(range(len(events)))
    replayed = [TransactionEvent(e, a, t_e, t_a, w, size) for _i, t_e, t_a, e, a, w, size in raw]
    assert replayed == list(events)


def test_ledger_csv_header_required(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        read_ledger_raw(path)


def test_ledger_csv_rejects_ids_beyond_int64(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text(
        "event_index,t_e,t_a,emitter,absorber,winner_weight,confirmation_set_size\n"
        "0,0.5,0.6,0,99999999999999999999,1.0,1\n"
    )
    with pytest.raises(ValueError, match="int64"):
        read_ledger_raw(path)


def test_trajectory_csv(tmp_path):
    config = make_config(n_molecules=4, n_excited=2, t_max=5.0, seed=71)
    trajectory, _events = run(config)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(path, trajectory)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,n,k,S_macro"
    assert len(lines) == trajectory.times.size + 1


def test_audit_accepts_clean_run():
    config = make_config(n_molecules=10, n_excited=5, t_max=10.0, seed=72)
    _trajectory, events = run(config)
    audit = audit_ledger(events, n_molecules=10, initial_excited=range(5))
    assert audit.passed
    assert audit.n_events == len(events)
    assert set(audit.inferred_initial_excited) <= set(range(5))


def test_audit_flags_reversed_timestamps():
    rows = [(0, 1.0, 0.5, 0, 1, 1.0, 1)]
    audit = audit_ledger(rows)
    assert not audit.passed
    assert any("strictly before" in v for v in audit.violations)


def test_audit_flags_decreasing_emission_times():
    rows = [(0, 1.0, 1.1, 0, 1, 1.0, 1), (1, 0.5, 0.6, 1, 0, 1.0, 1)]
    audit = audit_ledger(rows)
    assert any("decreased" in v for v in audit.violations)


def test_audit_flags_broken_precondition_chain():
    # molecule 0 emits twice without re-absorbing
    rows = [(0, 0.5, 0.6, 0, 1, 1.0, 1), (1, 1.0, 1.1, 0, 2, 1.0, 1)]
    audit = audit_ledger(rows)
    assert any("emit while ground" in v for v in audit.violations)


def test_audit_flags_bad_weight_and_self_transfer():
    rows = [(0, 0.5, 0.6, 2, 2, 1.5, 0)]
    audit = audit_ledger(rows)
    joined = " ".join(audit.violations)
    assert "emitter equals absorber" in joined
    assert "weight" in joined
    assert "confirmation" in joined


def test_audit_checks_declared_initial_state():
    rows = [(0, 0.5, 0.6, 0, 1, 1.0, 1)]
    audit = audit_ledger(rows, initial_excited=[1])
    joined = " ".join(audit.violations)
    assert "emits first" in joined
    assert "absorbs first" in joined


def test_audit_flags_confirmation_set_size_mismatch():
    config = make_config(n_molecules=10, n_excited=5, t_max=10.0, seed=72)
    _trajectory, ledger = run(config)
    sizes = ledger.confirmation_set_size.copy()
    sizes[3] += 1
    tampered = dataclasses.replace(ledger, confirmation_set_size=sizes)
    audit = audit_ledger(tampered, n_molecules=10, initial_excited=range(5))
    assert not audit.passed
    assert audit.violations == ("event 3: confirmation set size 6 != 5 ground molecules",)


def row_by_row_audit(rows, n_molecules=None, initial_excited=None):
    """(violations, inferred initial excited) by the per-row loop audit_ledger replaced."""
    declared = None if initial_excited is None else set(initial_excited)
    expected_size = None
    if declared is not None and n_molecules is not None:
        expected_size = n_molecules - len(declared)
    violations = []
    previous_emit = -math.inf
    expected_role = {}
    first_role = {}
    for index, t_emit, t_absorb, emitter, absorber, weight, size in rows:
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
    inferred = tuple(sorted(mol for mol, role in first_role.items() if role == "emit"))
    return tuple(violations), inferred


def test_column_audit_matches_the_row_loop_on_corrupted_ledgers():
    # random field edits, repeated and shuffled rows; same messages, same order
    picker = np.random.default_rng(15)
    replacements = {
        "float": [math.nan, -1.0, 0.0, 1.5, math.inf, 0.25],
        "int": [-1, 0, 1, 9, 99],
    }
    kinds = ["int", "float", "float", "int", "int", "float", "int"]
    for trial in range(150):
        config = make_config(n_molecules=10, n_excited=5, t_max=3.0, seed=100 + trial)
        _trajectory, ledger = run(config)
        rows = [
            [index, event.t_emit, event.t_absorb, event.emitter, event.absorber,
             event.winner_weight, event.confirmation_size]
            for index, event in enumerate(ledger)
        ]
        for _ in range(picker.integers(0, 4)):
            row, column = picker.integers(len(rows)), picker.integers(7)
            options = replacements[kinds[column]]
            rows[row][column] = options[picker.integers(len(options))]
        if picker.random() < 0.3:
            rows.append(list(rows[picker.integers(len(rows))]))
        if picker.random() < 0.2:
            picker.shuffle(rows)
        rows = [tuple(row) for row in rows]
        for n_molecules in (None, 10, 6):
            for initial_excited in (None, range(5), (0, 1)):
                audit = audit_ledger(rows, n_molecules=n_molecules, initial_excited=initial_excited)
                expected = row_by_row_audit(rows, n_molecules, initial_excited)
                assert (audit.violations, audit.inferred_initial_excited) == expected
                assert audit.passed == (not expected[0])


def test_column_audit_matches_the_row_loop_on_ids_at_the_int64_limits():
    # ids too far apart to pack beside the member index are ranked first
    big = np.iinfo(np.int64)
    rows = [
        (0, 0.5, 0.6, big.max, big.min, 0.5, 1),
        (1, 0.7, 0.8, big.min, big.max, 0.5, 1),
        (2, 0.9, 1.0, big.max, 3, 0.5, 1),
        (3, 1.1, 1.2, 3, big.min, 0.5, 1),
    ]
    for initial_excited in (None, [big.max, 3]):
        audit = audit_ledger(rows, n_molecules=4, initial_excited=initial_excited)
        assert (audit.violations, audit.inferred_initial_excited) == row_by_row_audit(
            rows, 4, initial_excited
        )
        batch = audit_ledger(rows, n_molecules=4, initial_excited=initial_excited, bounds=[0, 1, 4])
        lone = [audit_ledger(part, 4, initial_excited) for part in (rows[:1], rows[1:])]
        assert batch.violations == tuple(
            f"member {m} {message}" for m, audit in enumerate(lone) for message in audit.violations
        )
        assert batch.inferred_initial_excited == tuple(a.inferred_initial_excited for a in lone)


def test_audit_respects_molecule_range():
    rows = [(0, 0.5, 0.6, 0, 7, 1.0, 1)]
    audit = audit_ledger(rows, n_molecules=4)
    assert any("out of range" in v for v in audit.violations)
