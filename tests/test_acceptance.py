"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
each criterion asserts at its stated tolerance and runtime budget.
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chisquare

from gas_oracle import init_gas, left_half_count
from stosszahl.config import SCENARIO_SCHEMAS, ScenarioConfig
from stosszahl.evolution import evolve_unitary
from stosszahl.fock import fock_annihilate, fock_create
from stosszahl.gas import (
    GasConfig,
    audit_ledger,
    batch_left_counts,
    empirical_rates,
    iter_ensemble,
    macrostate_entropy,
)
from stosszahl.master import (
    build_master_operator,
    equilibrium,
    evolve_probabilities,
    relative_entropy,
)
from stosszahl.measurement import process1, sample_outcomes
from stosszahl.scenarios import run_scenario
from stosszahl.states import density_from_pure, purity, shannon_entropy, vn_entropy

GOLDEN_SEED = 20260809
GOLDEN_FILE = Path(__file__).parent / "data" / "born_golden_seed20260809.txt"
SQ2 = 1.0 / math.sqrt(2.0)


def verdict(number, passed, detail):
    print(f"\ncriterion {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {number}: {detail}"


def random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng, d, scale=2.0):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (a + a.conj().T) / 2
    return scale * h / max(np.linalg.norm(h, 2), 1e-12)


def random_basis(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(a)
    return q


def test_criterion_1_symmetric_relaxation_reproduction():
    started = time.perf_counter()
    m = build_master_operator([[0.0, 1.0], [1.0, 0.0]])
    p0 = np.array([1.0, 0.0])
    worst = 0.0
    for t in np.linspace(0.0, 5.0, 50):
        p = evolve_probabilities(m, p0, float(t))
        analytic = 0.5 + 0.5 * math.exp(-2.0 * float(t))
        worst = max(worst, abs(p[0] - analytic), abs(p[1] - (1.0 - analytic)))
    eq_gap = float(np.max(np.abs(equilibrium(m) - 0.5)))
    elapsed = time.perf_counter() - started
    passed = worst <= 1e-8 and eq_gap <= 1e-10 and elapsed < 1.0
    verdict(
        1,
        passed,
        f"max curve deviation {worst:.2e} (tol 1e-8), equilibrium gap {eq_gap:.2e} "
        f"(tol 1e-10), {elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_unitary_conservation():
    started = time.perf_counter()
    rng = np.random.default_rng(GOLDEN_SEED)
    dims = (2, 4, 8)
    times = (0.1, 1.0, 10.0)
    worst = 0.0
    for i in range(100):
        d = dims[i % 3]
        t = times[(i // 3) % 3]
        rho = random_density(rng, d)
        h = random_hermitian(rng, d)
        out = evolve_unitary(rho, h, t)
        worst = max(
            worst,
            abs(vn_entropy(out) - vn_entropy(rho)),
            abs(purity(out) - purity(rho)),
            abs(float(np.trace(out).real) - 1.0),
            float(np.max(np.abs(np.linalg.eigvalsh(out) - np.linalg.eigvalsh(rho)))),
            float(np.max(np.abs(evolve_unitary(out, h, -t) - rho))),
        )
    elapsed = time.perf_counter() - started
    passed = worst <= 1e-8 and elapsed < 5.0
    verdict(2, passed, f"worst conservation defect {worst:.2e} (tol 1e-8), {elapsed:.2f}s (< 5s)")


def test_criterion_3_measurement_transition_monotonicity():
    started = time.perf_counter()
    rng = np.random.default_rng(GOLDEN_SEED + 1)
    worst_decrease = 0.0
    worst_idempotence = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 9))
        rho = random_density(rng, d)
        basis = random_basis(rng, d)
        once = process1(rho, basis)
        worst_decrease = max(worst_decrease, vn_entropy(rho) - vn_entropy(once))
        worst_idempotence = max(
            worst_idempotence, float(np.max(np.abs(process1(once, basis) - once)))
        )
    plus = process1(density_from_pure([SQ2, SQ2]), np.eye(2))
    minus = process1(density_from_pure([SQ2, -SQ2]), np.eye(2))
    witness_gap = max(
        float(np.max(np.abs(plus - minus))),
        float(np.max(np.abs(plus - np.diag([0.5, 0.5])))),
    )
    elapsed = time.perf_counter() - started
    passed = (
        worst_decrease <= 1e-9
        and worst_idempotence <= 1e-10
        and witness_gap <= 1e-10
        and elapsed < 10.0
    )
    verdict(
        3,
        passed,
        f"max entropy decrease {worst_decrease:.2e} (slack 1e-9), idempotence defect "
        f"{worst_idempotence:.2e} (tol 1e-10), witness gap {witness_gap:.2e}, "
        f"{elapsed:.2f}s (< 10s)",
    )


def test_criterion_4_born_statistics_and_golden_sequence():
    started = time.perf_counter()
    weights = np.array([1 / 3, 2 / 3])
    outcomes = sample_outcomes(weights, 100_000, np.random.default_rng(GOLDEN_SEED))
    counts = np.bincount(outcomes, minlength=2)
    _stat, p_value = chisquare(counts, weights * 100_000)
    text = "".join(str(int(k)) for k in outcomes)
    generated = "\n".join(text[i : i + 100] for i in range(0, len(text), 100)) + "\n"
    byte_match = generated.encode() == GOLDEN_FILE.read_bytes()
    elapsed = time.perf_counter() - started
    passed = p_value >= 0.001 and byte_match and elapsed < 1.0
    verdict(
        4,
        passed,
        f"chi-square p {p_value:.4f} (>= 0.001), golden file byte match {byte_match}, "
        f"{elapsed:.2f}s (< 1s)",
    )


def test_criterion_5_unitary_vs_collapse_scenario(tmp_path):
    started = time.perf_counter()
    params = {key: default for key, (_p, default) in SCENARIO_SCHEMAS["unitary-vs-collapse"].items()}
    config = ScenarioConfig(
        scenario="unitary-vs-collapse",
        seed=GOLDEN_SEED,
        out_dir=tmp_path,
        params=params,
        write_timestamp=False,
    )
    report = run_scenario(config)
    drift = float(report.checks[0].measured)
    final_entropy = float(report.checks[1].measured)
    elapsed = time.perf_counter() - started
    passed = report.passed and elapsed < 30.0
    verdict(
        5,
        passed,
        f"unitary drift {drift:.2e} (< 1e-8 over 1000 steps), ensemble-mean S(20) "
        f"{final_entropy:.6f} (>= 0.95 ln 2 = {0.95 * math.log(2):.6f}, 500 seeds), "
        f"{elapsed:.1f}s (< 30s)",
    )


def excited_counts(ledger, n_molecules, n_excited):
    """Excited-molecule count after every event, replayed from the ledger columns."""
    levels = [1] * n_excited + [0] * (n_molecules - n_excited)
    excited = n_excited
    counts = []
    for emitter, absorber in zip(ledger.emitter.tolist(), ledger.absorber.tolist()):
        excited -= levels[emitter]
        levels[emitter] = 0
        excited += 1 - levels[absorber]
        levels[absorber] = 1
        counts.append(excited)
    return counts


@pytest.fixture(scope="module")
def gas_ensemble():
    config = GasConfig(
        n_molecules=100, n_excited=50, decay_rate=1.0, t_max=50.0, seed=GOLDEN_SEED
    )
    grid = np.linspace(0.0, 50.0, 26)
    check_times = np.array([2.0, 5.0, 10.0])
    n_seeds = 500
    counts_grid = np.empty((n_seeds, grid.size), dtype=int)
    counts_check = np.empty((n_seeds, check_times.size), dtype=int)
    violations = 0
    conservation_breaks = 0
    pooled = None
    started = time.perf_counter()
    done = 0
    for bounds, ledger in iter_ensemble(config, n_seeds):
        rows = slice(done, done + bounds.size - 1)
        done += bounds.size - 1
        counts_grid[rows] = batch_left_counts(config, ledger, bounds, grid)
        counts_check[rows] = batch_left_counts(config, ledger, bounds, check_times)
        for start, stop in zip(bounds[:-1], bounds[1:]):
            if any(count != 50 for count in excited_counts(ledger[start:stop], 100, 50)):
                conservation_breaks += 1
        audit = audit_ledger(ledger, n_molecules=100, n_excited=50, bounds=bounds)
        violations += len(audit.violations)
        pooled = empirical_rates(config, ledger, bounds, pooled)
    assert done == n_seeds
    elapsed = time.perf_counter() - started
    return {
        "config": config,
        "grid": grid,
        "check_times": check_times,
        "counts_grid": counts_grid,
        "counts_check": counts_check,
        "violations": violations,
        "conservation_breaks": conservation_breaks,
        "pooled": pooled,
        "elapsed": elapsed,
    }


def test_criterion_6_gas_equilibrium(gas_ensemble):
    config = gas_ensemble["config"]
    grid = gas_ensemble["grid"]
    late = grid >= 30.0
    mean_k = gas_ensemble["counts_grid"].mean(axis=0)
    mean_k_gap = float(np.max(np.abs(mean_k[late] - 25.0)))

    entropy_table = np.array([macrostate_entropy(k, config) for k in range(51)])
    entropy_max = float(entropy_table.max())
    mean_entropy = entropy_table[gas_ensemble["counts_grid"]].mean(axis=0)
    entropy_gap = float(np.max(np.abs(mean_entropy[late] - entropy_max)) / entropy_max)

    passed = (
        mean_k_gap <= 1.0
        and entropy_gap <= 0.05
        and gas_ensemble["violations"] == 0
        and gas_ensemble["conservation_breaks"] == 0
        and gas_ensemble["elapsed"] < 60.0
    )
    verdict(
        6,
        passed,
        f"late mean-k gap {mean_k_gap:.3f} (<= 1.0), macro-entropy gap {entropy_gap:.3%} "
        f"(<= 5%), ledger violations {gas_ensemble['violations']} (= 0), "
        f"{gas_ensemble['elapsed']:.1f}s for 500 members (< 60s)",
    )


def test_criterion_7_master_equation_cross_check(gas_ensemble):
    config = gas_ensemble["config"]
    pooled = gas_ensemble["pooled"]
    m_hat = build_master_operator(pooled.rates)
    p0 = np.zeros(pooled.n_labels)
    p0[left_half_count(init_gas(config))] = 1.0
    n_seeds = gas_ensemble["counts_check"].shape[0]
    tv_worst = 0.0
    for j, t in enumerate(gas_ensemble["check_times"]):
        predicted = evolve_probabilities(m_hat, p0, float(t))
        empirical = np.bincount(gas_ensemble["counts_check"][:, j], minlength=pooled.n_labels)
        tv = 0.5 * float(np.abs(predicted - empirical / n_seeds).sum())
        tv_worst = max(tv_worst, tv)
    passed = tv_worst <= 0.1
    verdict(
        7,
        passed,
        f"worst total-variation distance {tv_worst:.4f} (<= 0.1) at t in {{2, 5, 10}}",
    )


def test_criterion_8_kl_monotonicity():
    rng = np.random.default_rng(GOLDEN_SEED + 2)
    grid = np.linspace(0.0, 8.0, 100)
    worst_kl_rise = 0.0
    worst_entropy_drop = 0.0
    for index in range(50):
        symmetric = index >= 25
        n = int(rng.integers(2, 7))
        rates = rng.uniform(0.1, 1.0, size=(n, n))
        if symmetric:
            rates = (rates + rates.T) / 2
        np.fill_diagonal(rates, 0.0)
        m = build_master_operator(rates)
        p_eq = equilibrium(m)
        p0 = rng.random(n) + 0.01
        p0 /= p0.sum()
        divergences = []
        entropies = []
        for t in grid:
            p = evolve_probabilities(m, p0, float(t))
            divergences.append(relative_entropy(p, p_eq))
            entropies.append(shannon_entropy(p))
        worst_kl_rise = max(worst_kl_rise, float(np.max(np.diff(divergences))))
        if symmetric:
            worst_entropy_drop = max(worst_entropy_drop, float(-np.min(np.diff(entropies))))
    passed = worst_kl_rise <= 1e-10 and worst_entropy_drop <= 1e-10
    verdict(
        8,
        passed,
        f"max KL increase {worst_kl_rise:.2e} (slack 1e-10) over 50 generators, max "
        f"Shannon decrease {worst_entropy_drop:.2e} (slack 1e-10) over symmetric ones",
    )


def test_criterion_9_creation_annihilation_asymmetry():
    checked = 0
    vacuum_nulls = 0
    for n_modes in (1, 2, 3):
        for occ in itertools.product(range(4), repeat=n_modes):
            if sum(occ) > 3:
                continue
            for mode in range(n_modes):
                assert fock_annihilate(fock_create(occ, mode), mode) == occ
                checked += 1
                if occ[mode] == 0:
                    result = fock_annihilate(occ, mode)
                    assert result is None and result != tuple([0] * n_modes)
                    vacuum_nulls += 1
    passed = checked > 0 and vacuum_nulls > 0
    verdict(
        9,
        passed,
        f"create-then-annihilate identity on {checked} occupancy/mode cases, "
        f"empty-mode annihilation gave the null outcome (never the vacuum) in "
        f"{vacuum_nulls} cases",
    )
