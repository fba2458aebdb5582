import math

import numpy as np
import pytest
import scipy.linalg

from stosszahl import master
from stosszahl.master import (
    as_rate_matrix,
    build_master_operator,
    entropy_series,
    entropy_series_to_csv,
    equilibrium,
    evolve_probabilities,
    rate_matrix_from_csv,
    relative_entropy,
    two_state_closed_form,
    validate_master,
)
from stosszahl.states import shannon_entropy


# Independent oracle: classic fixed-step 4th-order Runge-Kutta on dp/dt = M p,
# step bounded by 1e-3 of the fastest relaxation timescale.
def rk4_probabilities(m, p0, t):
    m = np.asarray(m, dtype=float)
    p = np.asarray(p0, dtype=float).copy()
    if t == 0.0:
        return p
    fastest = max(np.max(np.abs(np.diag(m))), 1e-12)
    step = min(1e-3 / fastest, t)
    n_steps = max(int(math.ceil(t / step)), 1)
    h = t / n_steps
    for _ in range(n_steps):
        k1 = m @ p
        k2 = m @ (p + 0.5 * h * k1)
        k3 = m @ (p + 0.5 * h * k2)
        k4 = m @ (p + h * k3)
        p = p + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return p


def random_rate_matrix(rng, n, symmetric=False):
    r = rng.uniform(0.1, 1.0, size=(n, n))
    if symmetric:
        r = (r + r.T) / 2
    np.fill_diagonal(r, 0.0)
    return r


def random_probability(rng, n):
    p = rng.random(n) + 0.01
    return p / p.sum()


# --- construction ----------------------------------------------------------------

def test_zero_rates_give_zero_generator():
    assert np.array_equal(build_master_operator(np.zeros((3, 3))), np.zeros((3, 3)))


def test_two_state_generator():
    r = 0.7
    m = build_master_operator([[0.0, r], [r, 0.0]])
    assert np.allclose(m, [[-r, r], [r, -r]], atol=1e-15)


def test_three_state_cycle_generator():
    # rates 1 around the cycle 1 -> 2 -> 3 -> 1
    rates = np.zeros((3, 3))
    rates[1, 0] = rates[2, 1] = rates[0, 2] = 1.0
    m = build_master_operator(rates)
    assert np.allclose(m.sum(axis=0), 0.0, atol=1e-15)
    assert np.allclose(np.diag(m), [-1.0, -1.0, -1.0], atol=1e-15)


def test_negative_rate_rejected():
    with pytest.raises(ValueError, match="negative"):
        as_rate_matrix([[0.0, -1.0], [1.0, 0.0]])


def test_nonzero_diagonal_rejected():
    with pytest.raises(ValueError, match="diagonal"):
        as_rate_matrix([[0.5, 1.0], [1.0, 0.0]])


# --- validation --------------------------------------------------------------------

def test_built_operator_validates():
    rng = np.random.default_rng(1)
    report = validate_master(build_master_operator(random_rate_matrix(rng, 5)))
    assert report.passed
    assert report.max_column_residual <= 1e-10


def test_column_sum_violation_reported():
    m = np.array([[-1.0, 1.0], [1.1, -1.0]])
    report = validate_master(m)
    assert not report.passed
    assert np.isclose(report.max_column_residual, 0.1)
    assert report.worst_column == 0


def test_negative_off_diagonal_reported():
    m = np.array([[0.5, -0.5], [-0.5, 0.5]])
    report = validate_master(m)
    assert not report.passed
    assert np.isclose(report.min_off_diagonal, -0.5)
    assert any("off-diagonal" in msg for msg in report.messages)


# --- solving ------------------------------------------------------------------------

def test_zero_time_returns_initial_exactly():
    m = build_master_operator([[0.0, 1.0], [1.0, 0.0]])
    p0 = np.array([0.3, 0.7])
    assert np.array_equal(evolve_probabilities(m, p0, 0.0), p0)


def test_symmetric_two_state_at_unit_time():
    # closed form: 1/2 + 1/2 exp(-2)
    m = build_master_operator([[0.0, 1.0], [1.0, 0.0]])
    p = evolve_probabilities(m, [1.0, 0.0], 1.0)
    expected = 0.5 + 0.5 * math.exp(-2.0)
    assert np.isclose(expected, 0.567668, atol=5e-7)  # frozen from direct evaluation
    assert np.allclose(p, [expected, 1.0 - expected], atol=1e-12)


def test_probability_conserved_and_positive():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        m = build_master_operator(random_rate_matrix(rng, n))
        p0 = random_probability(rng, n)
        for t in (0.05, 0.5, 5.0, 50.0):
            p = evolve_probabilities(m, p0, t)
            assert abs(p.sum() - 1.0) < 1e-10
            assert np.min(p) >= 0.0


def test_negative_time_rejected():
    m = build_master_operator([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="backwards"):
        evolve_probabilities(m, [1.0, 0.0], -0.1)


def test_invalid_generator_rejected():
    with pytest.raises(ValueError, match="invalid master operator"):
        evolve_probabilities(np.array([[-1.0, 0.0], [0.5, 0.0]]), [1.0, 0.0], 1.0)


# --- closed form -----------------------------------------------------------------------

def test_closed_form_time_zero():
    p0 = np.array([0.9, 0.1])
    assert np.allclose(two_state_closed_form(3.0, 0.5, p0, 0.0), p0, atol=1e-15)


def test_closed_form_symmetric_long_time_limit():
    p = two_state_closed_form(1.0, 1.0, [1.0, 0.0], 50.0)
    assert np.allclose(p, [0.5, 0.5], atol=1e-12)


def test_closed_form_detailed_balance_limit():
    p = two_state_closed_form(2.0, 1.0, [0.0, 1.0], 60.0)
    assert np.allclose(p, [2 / 3, 1 / 3], atol=1e-12)


def test_closed_form_reproduces_symmetric_relaxation():
    # regression for the rates-(1,1) form: p1 = 1/2 + (p1(0)-p2(0))/2 e^(-2t)
    p0 = np.array([0.8, 0.2])
    for t in np.linspace(0.0, 5.0, 21):
        expected = 0.5 + (p0[0] - p0[1]) / 2 * math.exp(-2.0 * t)
        p = two_state_closed_form(1.0, 1.0, p0, float(t))
        assert abs(p[0] - expected) < 1e-14


def test_closed_form_rejects_both_rates_zero():
    with pytest.raises(ValueError, match="at least one rate"):
        two_state_closed_form(0.0, 0.0, [1.0, 0.0], 1.0)


# --- equilibrium ---------------------------------------------------------------------

def test_symmetric_two_state_equilibrium():
    m = build_master_operator([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(equilibrium(m), [0.5, 0.5], atol=1e-10)


def test_asymmetric_two_state_equilibrium():
    m = build_master_operator([[0.0, 2.0], [1.0, 0.0]])
    assert np.allclose(equilibrium(m), [2 / 3, 1 / 3], atol=1e-10)


def test_all_pairs_symmetric_equilibrium_is_uniform():
    for n in (3, 5):
        rates = np.full((n, n), 0.4)
        np.fill_diagonal(rates, 0.0)
        m = build_master_operator(rates)
        assert np.allclose(equilibrium(m), np.full(n, 1.0 / n), atol=1e-10)


def test_equilibrium_matches_long_time_evolution():
    # independent route: exp(Mt) p0 for large t
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        m = build_master_operator(random_rate_matrix(rng, n))
        p_eq = equilibrium(m)
        p_inf = evolve_probabilities(m, random_probability(rng, n), 200.0)
        assert np.max(np.abs(p_eq - p_inf)) < 1e-8


def test_reducible_chain_rejected_with_multiplicity():
    rates = np.zeros((4, 4))
    rates[1, 0] = rates[0, 1] = 1.0
    rates[3, 2] = rates[2, 3] = 1.0
    m = build_master_operator(rates)
    with pytest.raises(ValueError, match="dimension 2"):
        equilibrium(m)


# --- relative entropy -------------------------------------------------------------------

def test_relative_entropy_zero_iff_equal():
    p = np.array([0.2, 0.3, 0.5])
    assert relative_entropy(p, p) == 0.0
    assert relative_entropy([0.3, 0.3, 0.4], p) > 0.0


def test_relative_entropy_to_uniform():
    assert np.isclose(relative_entropy([1.0, 0.0], [0.5, 0.5]), math.log(2.0), atol=1e-12)


def test_relative_entropy_three_quarters():
    expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
    assert np.isclose(expected, 0.130812, atol=5e-7)  # frozen from direct evaluation
    assert np.isclose(relative_entropy([0.75, 0.25], [0.5, 0.5]), expected, atol=1e-12)


def test_relative_entropy_support_violation():
    with pytest.raises(ValueError, match="support"):
        relative_entropy([0.5, 0.5], [1.0, 0.0])


# --- diagnostics series ----------------------------------------------------------------

def test_series_constant_at_equilibrium():
    m = build_master_operator([[0.0, 2.0], [1.0, 0.0]])
    p_eq = equilibrium(m)
    records = entropy_series(m, p_eq, np.linspace(0.0, 5.0, 11))
    entropies = [s for _t, s, _d in records]
    divergences = [d for _t, _s, d in records]
    assert np.allclose(entropies, shannon_entropy(p_eq), atol=1e-9)
    assert np.max(divergences) < 1e-12


def test_series_monotone_for_symmetric_start_from_pure():
    m = build_master_operator([[0.0, 1.0], [1.0, 0.0]])
    records = entropy_series(m, [1.0, 0.0], np.linspace(0.0, 4.0, 41))
    entropies = np.array([s for _t, s, _d in records])
    divergences = np.array([d for _t, _s, d in records])
    assert entropies[0] < 1e-12 and abs(entropies[-1] - math.log(2)) < 1e-3
    assert np.all(np.diff(entropies) >= -1e-10)
    assert abs(divergences[0] - math.log(2)) < 1e-12
    assert np.all(np.diff(divergences) <= 1e-10)


def test_series_divergence_monotone_for_asymmetric_chain():
    m = build_master_operator([[0.0, 2.0], [1.0, 0.0]])
    records = entropy_series(m, [0.0, 1.0], np.linspace(0.0, 4.0, 41))
    divergences = np.array([d for _t, _s, d in records])
    assert np.all(np.diff(divergences) <= 1e-10)


def test_series_equals_the_validating_per_point_functions():
    # entropy_series validates once and then steps unchecked; every record must
    # stay bit-equal to the per-point path through the public functions
    rng = np.random.default_rng(11)
    grid = np.linspace(0.0, 3.0, 7)
    for n in (2, 5, 51):
        m = build_master_operator(random_rate_matrix(rng, n))
        p0 = random_probability(rng, n)
        p_eq = equilibrium(m)
        expected = []
        for t in grid:
            p_t = evolve_probabilities(m, p0, float(t))
            expected.append((float(t), shannon_entropy(p_t), relative_entropy(p_t, p_eq)))
        assert entropy_series(m, p0, grid) == expected


def test_every_exponential_goes_through_the_module_attribute(monkeypatch):
    # The benchmark's master.expm span wraps this attribute before any solve,
    # so the first call, which imports scipy, must not rebind it either.
    monkeypatch.setattr(master, "_scipy_expm", None)
    calls = []
    lazy = master.expm

    def counted(a):
        calls.append(a.shape)
        return lazy(a)

    monkeypatch.setattr(master, "expm", counted)
    m = build_master_operator([[0.0, 2.0, 0.5], [1.0, 0.0, 1.0], [0.0, 3.0, 0.0]])
    p_t = evolve_probabilities(m, [1.0, 0.0, 0.0], 0.7)
    assert calls == [(3, 3)]
    assert master.expm is counted
    assert np.array_equal(p_t, scipy.linalg.expm(m * 0.7) @ np.array([1.0, 0.0, 0.0]))
    grid = np.linspace(0.0, 2.0, 9)
    assert len(entropy_series(m, [1.0, 0.0, 0.0], grid)) == grid.size
    assert len(calls) == 1 + grid.size


def test_series_rejects_bad_inputs_before_stepping():
    m = build_master_operator([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="backwards"):
        entropy_series(m, [1.0, 0.0], [0.0, 1.0, -1.0])
    with pytest.raises(ValueError, match="dimension mismatch"):
        entropy_series(m, [0.5, 0.25, 0.25], [0.0])
    with pytest.raises(ValueError, match="sums to"):
        entropy_series(m, [0.5, 0.4], [0.0])


def test_kl_monotone_and_shannon_for_symmetric_generators():
    rng = np.random.default_rng(4)
    grid = np.linspace(0.0, 6.0, 40)
    for symmetric in (False, True):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            m = build_master_operator(random_rate_matrix(rng, n, symmetric=symmetric))
            records = entropy_series(m, random_probability(rng, n), grid)
            divergences = np.array([d for _t, _s, d in records])
            assert np.all(np.diff(divergences) <= 1e-10)
            if symmetric:
                entropies = np.array([s for _t, s, _d in records])
                assert np.all(np.diff(entropies) >= -1e-10)


def test_initial_state_information_decays():
    # two-state contraction: |p(t) - p_eq| <= exp(-(r12+r21) t) |p0 - p_eq|
    rng = np.random.default_rng(5)
    for _ in range(10):
        r12, r21 = rng.uniform(0.2, 2.0, size=2)
        m = build_master_operator([[0.0, r12], [r21, 0.0]])
        p_eq = equilibrium(m)
        p0 = random_probability(rng, 2)
        for t in (0.1, 0.5, 1.0, 3.0):
            gap = np.max(np.abs(evolve_probabilities(m, p0, t) - p_eq))
            bound = math.exp(-(r12 + r21) * t) * np.max(np.abs(p0 - p_eq))
            assert gap <= bound + 1e-9


# --- oracle equivalences ------------------------------------------------------------------

def test_solver_matches_closed_form_on_random_rates():
    rng = np.random.default_rng(6)
    grid = np.linspace(0.0, 5.0, 20)
    for _ in range(10):
        r12, r21 = rng.uniform(0.1, 3.0, size=2)
        m = build_master_operator([[0.0, r12], [r21, 0.0]])
        p0 = random_probability(rng, 2)
        for t in grid:
            numeric = evolve_probabilities(m, p0, float(t))
            analytic = two_state_closed_form(r12, r21, p0, float(t))
            assert np.max(np.abs(numeric - analytic)) < 1e-8


def test_solver_matches_rk4_oracle():
    rng = np.random.default_rng(7)
    for _ in range(8):
        n = int(rng.integers(2, 7))
        m = build_master_operator(random_rate_matrix(rng, n))
        p0 = random_probability(rng, n)
        for t in (0.3, 1.2):
            assert np.max(np.abs(evolve_probabilities(m, p0, t) - rk4_probabilities(m, p0, t))) < 1e-6


# --- CSV interfaces -------------------------------------------------------------------------

def test_rate_matrix_csv_round_trip(tmp_path):
    path = tmp_path / "rates.csv"
    path.write_text("up,down\n0,2.5\n1.25,0\n")
    labels, rates = rate_matrix_from_csv(path)
    assert labels == ["up", "down"]
    assert np.array_equal(rates, [[0.0, 2.5], [1.25, 0.0]])


def test_rate_matrix_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n0,1\n1\n")
    with pytest.raises(ValueError, match="ragged"):
        rate_matrix_from_csv(path)


def test_entropy_series_csv(tmp_path):
    m = build_master_operator([[0.0, 1.0], [1.0, 0.0]])
    records = entropy_series(m, [1.0, 0.0], [0.0, 1.0, 2.0])
    path = tmp_path / "series.csv"
    entropy_series_to_csv(path, records, header_comment="demo")
    lines = path.read_text().splitlines()
    assert lines[0] == "# demo"
    assert lines[1] == "t,shannon_entropy,relative_entropy_to_equilibrium"
    assert len(lines) == 5
