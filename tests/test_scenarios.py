import dataclasses
import json
import math
import re

import mpmath
import numpy as np
import pytest
from scipy.stats import binom, chisquare

from gas_oracle import seeded_run
from stosszahl import gas, scenarios
from stosszahl.config import SCENARIO_SCHEMAS, ConfigError, ScenarioConfig
from stosszahl.gas import GasConfig, Ledger, read_ledger, write_ledger_csv
from stosszahl.scenarios import (
    SCENARIO_CHECKS,
    SCHEMA_VERSION,
    _chi_square_tail,
    list_scenarios,
    run_scenario,
)


def scenario_defaults(name, **overrides):
    params = {key: default for key, (_parse, default) in SCENARIO_SCHEMAS[name].items()}
    params.update(overrides)
    return params


def make_config(name, out_dir, seed=1, **overrides):
    return ScenarioConfig(
        scenario=name,
        seed=seed,
        out_dir=out_dir,
        params=scenario_defaults(name, **overrides),
        write_timestamp=False,
    )


def test_registry_lists_all_five():
    assert list_scenarios() == sorted(SCENARIO_CHECKS)
    assert len(list_scenarios()) == 5


def test_two_state_relaxation_report(tmp_path):
    report = run_scenario(make_config("two-state-relaxation", tmp_path))
    assert report.passed
    assert [c.name for c in report.checks] == list(SCENARIO_CHECKS["two-state-relaxation"])
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["passed"] is True
    assert payload["outputs"] == ["two_state_relaxation.csv"]
    lines = (tmp_path / "two_state_relaxation.csv").read_text().splitlines()
    assert lines[0] == "t,p1,p2,shannon_entropy,relative_entropy_to_equilibrium"
    assert len(lines) == 51


def test_two_state_relaxation_asymmetric_rates(tmp_path):
    report = run_scenario(
        make_config("two-state-relaxation", tmp_path, rate_to_1=2.0, rate_to_2=1.0)
    )
    assert report.passed


def test_unitary_vs_collapse_report(tmp_path):
    config = make_config("unitary-vs-collapse", tmp_path, seed=2, n_seeds=100)
    report = run_scenario(config)
    assert report.passed
    drift = next(c for c in report.checks if c.name == "unitary_entropy_drift")
    assert float(drift.measured) < 1e-8
    final = next(c for c in report.checks if c.name == "collapse_entropy_reaches_threshold")
    assert float(final.measured) >= 0.95 * math.log(2.0)
    lines = (tmp_path / "unitary_vs_collapse.csv").read_text().splitlines()
    assert lines[0] == "t,entropy_unitary,mean_entropy_collapse"


def test_born_statistics_report(tmp_path):
    report = run_scenario(make_config("born-statistics", tmp_path, seed=20260809))
    assert report.passed
    lines = (tmp_path / "born_statistics.csv").read_text().splitlines()
    assert lines[0] == "outcome,weight,observed,expected,frequency"
    assert len(lines) == 3


def test_gas_equilibrium_report(tmp_path):
    config = make_config(
        "gas-equilibrium",
        tmp_path,
        seed=4,
        n_molecules=30,
        n_excited=15,
        t_max=30.0,
        n_seeds=200,
        n_samples=31,
        equilibration_time=20.0,
    )
    report = run_scenario(config)
    assert report.passed
    produced = {c.name for c in report.checks}
    assert produced == set(SCENARIO_CHECKS["gas-equilibrium"])
    for name in (
        "gas_ledger_member0.csv",
        "gas_trajectory_member0.csv",
        "gas_ensemble_series.csv",
        "gas_empirical_rates.csv",
    ):
        assert (tmp_path / name).exists()


def test_uniform_winner_weight_check_counts_altered_weights(tmp_path, monkeypatch):
    # a weight one ulp off 1 / (N - n) still lies in (0, 1], so only the
    # scenario's uniform-weight comparison can catch it
    real_run = gas.run
    altered = []

    def run_with_one_altered_weight(config, rngs):
        bounds, ledger = real_run(config, rngs)
        if not altered:
            weights = ledger.winner_weight.copy()
            weights[3] = np.nextafter(weights[3], 1.0)
            ledger = dataclasses.replace(ledger, winner_weight=weights)
            altered.append(3)
        return bounds, ledger

    monkeypatch.setattr(gas, "run", run_with_one_altered_weight)
    config = make_config(
        "gas-equilibrium", tmp_path, n_molecules=10, n_excited=5, t_max=5.0, n_seeds=100,
        n_samples=11, equilibration_time=2.0, check_times=(1.0, 2.0, 5.0),
    )
    checks = {check.name: check for check in run_scenario(config).checks}
    assert altered == [3]
    assert not checks["ledger_audits_clean"].passed
    assert checks["ledger_audits_clean"].measured == 1.0


def test_gas_equilibrium_rejects_odd_molecule_count(tmp_path):
    config = make_config("gas-equilibrium", tmp_path, n_molecules=31)
    with pytest.raises(ConfigError, match="even"):
        run_scenario(config)


def test_ledger_audit_scenario_passes_on_clean_ledger(tmp_path):
    gas_config = GasConfig(n_molecules=10, n_excited=5, decay_rate=1.0, t_max=10.0, seed=5)
    _bounds, events = seeded_run(gas_config)
    ledger_path = tmp_path / "ledger.csv"
    write_ledger_csv(ledger_path, events)
    config = make_config(
        "ledger-audit", tmp_path, ledger=str(ledger_path), n_molecules=10
    )
    report = run_scenario(config)
    assert report.passed


def test_ledger_audit_scenario_fails_on_tampered_ledger(tmp_path):
    gas_config = GasConfig(n_molecules=10, n_excited=5, decay_rate=1.0, t_max=10.0, seed=5)
    _bounds, events = seeded_run(gas_config)
    ledger_path = tmp_path / "ledger.csv"
    # the last event replayed breaks the chain
    replayed = Ledger(*(np.append(column, column[-1]) for column in vars(events).values()))
    write_ledger_csv(ledger_path, replayed)
    config = make_config("ledger-audit", tmp_path, ledger=str(ledger_path), n_molecules=10)
    report = run_scenario(config)
    assert not report.passed


def test_ledger_audit_missing_file_is_config_error(tmp_path):
    config = make_config("ledger-audit", tmp_path, ledger=str(tmp_path / "absent.csv"))
    with pytest.raises(ConfigError, match="ledger"):
        run_scenario(config)


def test_outputs_byte_identical_without_timestamp(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        run_scenario(make_config("two-state-relaxation", out, seed=11))
    for name in ("two_state_relaxation.csv", "report.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_floats_written_with_17_significant_digits(tmp_path):
    run_scenario(make_config("two-state-relaxation", tmp_path, seed=11))
    lines = (tmp_path / "two_state_relaxation.csv").read_text().splitlines()
    # row at t = 5/49 carries a full-precision probability
    t, p1, _p2, _s, _d = lines[2].split(",")
    assert float(t) == np.linspace(0.0, 5.0, 50)[1]
    assert len(p1.replace(".", "").replace("-", "").lstrip("0")) >= 16


def test_unknown_scenario_rejected(tmp_path):
    config = ScenarioConfig("mystery", seed=1, out_dir=tmp_path, params={})
    with pytest.raises(ConfigError, match="unknown scenario"):
        run_scenario(config)


def merged_bins(expected, observed):
    """Cochran's merge as a plain loop: the smallest expected count into the next smallest."""
    e, o = list(expected), list(observed)
    while len(e) > 1 and min(e) < 5:
        smallest, into = sorted(range(len(e)), key=lambda i: (e[i], i))[:2]
        e[into] += e[smallest]
        o[into] += o[smallest]
        del e[smallest], o[smallest]
    return e, o


@pytest.mark.parametrize(
    "weights, n_draws, seed",
    [
        ((1 / 3, 2 / 3), 100_000, 20260809),
        ((0.5, 0.5), 10, 1),
        ((0.2, 0.3, 0.5), 1000, 2),
        ((0.1, 0.2, 0.3, 0.4), 50, 3),
        ((0.05, 0.15, 0.25, 0.25, 0.3), 20_000, 4),
        # expected counts 120, 60, 14, 4, 2: the last two merge
        ((0.6, 0.3, 0.07, 0.02, 0.01), 200, 5),
        # 90, 4, 3, 2, 1: 1 into 2, 3 into the merged 3, then 4 into 6
        ((0.9, 0.04, 0.03, 0.02, 0.01), 100, 6),
        ((0.5, 0.4999, 1e-4), 10_000, 7),
    ],
)
def test_born_chi_square_matches_scipy_stats(tmp_path, weights, n_draws, seed):
    report = run_scenario(
        make_config("born-statistics", tmp_path, seed=seed, weights=weights, n_draws=n_draws)
    )
    with open(tmp_path / "born_statistics.csv") as handle:
        observed = [int(line.split(",")[2]) for line in handle.readlines()[1:]]
    expected, observed = merged_bins(np.asarray(weights) * n_draws, observed)
    statistic, p_value = chisquare(observed, expected)
    check = report.checks[0]
    # the closed-form tail and scipy's chdtrc may round differently in the last bits
    assert check.measured == pytest.approx(float(p_value), rel=1e-12, abs=0.0)
    assert f"(statistic {statistic:.6g}, " in check.requirement


@pytest.mark.parametrize("weights, n_draws", [((0.999, 0.001), 7), ((0.5, 0.5), 9), ((1.0, 0.0), 1000)])
def test_born_statistics_rejects_weights_that_leave_one_bin(tmp_path, weights, n_draws):
    # every bin must expect 5 draws or more, so these merge into one bin and a test of nothing
    config = make_config("born-statistics", tmp_path, weights=weights, n_draws=n_draws)
    with pytest.raises(ConfigError, match=r"^born-statistics: the chi-square test needs two or more bins"):
        run_scenario(config)


def test_born_statistics_holds_its_stated_alpha(tmp_path, monkeypatch):
    # an outcome that expects 1 draw put one term of up to ~(count - 1)^2 into
    # Pearson's sum: 47 FAILs in 10,000 seeds against alpha = 0.001, where the
    # binomial 1e-6 bound is 28; with the merged bins, 5
    monkeypatch.setattr(scenarios, "write_csv", lambda *_args: None)
    n_seeds = 10_000
    fails = 0
    for seed in range(n_seeds):
        config = make_config(
            "born-statistics", tmp_path, seed=seed, weights=(0.5, 0.4999, 1e-4), n_draws=10_000
        )
        fails += not scenarios._born_statistics(config)[0][0].passed
    assert fails <= binom.isf(1e-6, n_seeds, scenarios.CHI_SQUARE_SIGNIFICANCE)


@pytest.mark.parametrize("dof", range(1, 64))
def test_chi_square_tail_equals_the_regularized_upper_gamma(dof):
    # Q(dof / 2, x / 2) at 40 digits; near the mean, in the far tail, where e^-x/2
    # alone underflows, and at tiny x, where the a = 0 term alone matters
    xs = [0.0, 1e-300, 1e-12, 0.01, 0.5, 1.0, 3.0, dof / 2, dof - 0.5, dof, dof + 0.7,
          1.5 * dof, 2 * dof + 3, 4 * dof + 20, 10 * dof + 50, 200.0, 700.0, 1400.0, 1600.0]
    with mpmath.workdps(40):
        for x in xs:
            exact = float(mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(x) / 2, regularized=True))
            assert math.isclose(_chi_square_tail(dof, x), exact, rel_tol=1e-12, abs_tol=1e-300), x


def test_gas_coupling_table_rows_are_emitters(tmp_path):
    # Column j of every row carries weight 2**j, so with the table indexed
    # [emitter, absorber] a winner's weight is w[absorber] over the weights of
    # the ground molecules; read [absorber, emitter] every weight would be 1/3.
    w = [1.0, 2.0, 4.0, 8.0]
    table = tmp_path / "coupling.csv"
    table.write_text(
        "m0,m1,m2,m3\n"
        + "".join(",".join("0" if i == j else str(w[j]) for j in range(4)) + "\n" for i in range(4))
    )
    config = make_config(
        "gas-equilibrium",
        tmp_path,
        n_molecules=4,
        n_excited=1,
        t_max=5.0,
        n_seeds=100,
        n_samples=11,
        equilibration_time=2.0,
        check_times=(1.0, 2.0, 5.0),
        coupling_table=str(table),
    )
    run_scenario(config)
    ledger = read_ledger(tmp_path / "gas_ledger_member0.csv")
    assert len(ledger) > 5
    for emitter, absorber, weight in zip(
        ledger.emitter.tolist(), ledger.absorber.tolist(), ledger.winner_weight.tolist()
    ):
        # one quantum: every molecule but the emitter is in the ground state
        assert weight == pytest.approx(w[absorber] / (sum(w) - w[emitter]), rel=1e-12)


@pytest.mark.parametrize("coupled", [False, True], ids=["uniform", "coupling-table"])
def test_gas_outputs_do_not_depend_on_the_batch_width(tmp_path, monkeypatch, coupled):
    # the dwell sums are pooled in member order whatever the batch width, so a
    # width of one member, a width that splits the ensemble unevenly and the
    # kernel's own width must write the same bytes
    overrides = {}
    if coupled:
        table = np.random.default_rng(5).random((10, 10))
        table = table + table.T
        np.fill_diagonal(table, 0.0)
        path = tmp_path / "coupling.csv"
        path.write_text(
            ",".join(f"m{i}" for i in range(10)) + "\n"
            + "".join(",".join(repr(float(x)) for x in row) + "\n" for row in table)
        )
        overrides["coupling_table"] = str(path)
    outputs = {}
    for width in (1, 7, 64, 256):
        monkeypatch.setattr(gas, "_MEMBERS_PER_RUN", width)
        out_dir = tmp_path / f"width{width}"
        run_scenario(make_config(
            "gas-equilibrium", out_dir, seed=9, n_molecules=10, n_excited=5, t_max=5.0,
            n_seeds=300, n_samples=11, equilibration_time=2.0, check_times=(1.0, 2.0, 5.0),
            **overrides,
        ))
        outputs[width] = {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}
    assert len(outputs[1]) == 5
    for width in (7, 64, 256):
        assert outputs[width] == outputs[1], width


# A small run of every scenario that writes outputs.
SMALL_RUNS = {
    "two-state-relaxation": {"n_points": 5},
    "unitary-vs-collapse": {"t_max": 2.0, "n_unitary_steps": 10, "n_seeds": 2, "n_samples": 5},
    "born-statistics": {"n_draws": 100},
    "gas-equilibrium": {"n_molecules": 10, "n_excited": 5, "t_max": 5.0, "n_seeds": 100, "n_samples": 11,
                        "equilibration_time": 2.0, "check_times": (1.0, 2.0, 5.0)},
}


@pytest.mark.parametrize("name", sorted(SMALL_RUNS))
def test_stamped_outputs_are_one_stamp_line_then_the_unstamped_bytes(tmp_path, name):
    assert set(SMALL_RUNS) == set(list_scenarios()) - {"ledger-audit"}
    plain = run_scenario(make_config(name, tmp_path / "plain", **SMALL_RUNS[name]))
    config = make_config(name, tmp_path / "stamped", **SMALL_RUNS[name])
    config.write_timestamp = True
    stamped = run_scenario(config)
    assert stamped.outputs == plain.outputs != []
    stamps = set()
    for output in plain.outputs:
        unstamped = (tmp_path / "plain" / output).read_bytes()
        stamp, rest = (tmp_path / "stamped" / output).read_bytes().split(b"\n", 1)
        assert rest == unstamped and not unstamped.startswith(b"#")
        assert re.fullmatch(rb"# generated \d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(\.\d+)?\+00:00", stamp)
        stamps.add(stamp)
    assert len(stamps) == 1
    reports = [(tmp_path / out / "report.json").read_bytes() for out in ("plain", "stamped")]
    assert reports[0] == reports[1]


def test_equilibration_time_past_every_sample_is_rejected_before_stepping(tmp_path, monkeypatch):
    # it used to be checked after the whole ensemble had run: 8 s at n_seeds = 5000
    def stepped(*_args):
        raise AssertionError("a member was stepped")

    monkeypatch.setattr(gas, "run", stepped)
    config = make_config("gas-equilibrium", tmp_path, equilibration_time=60.0)
    message = r"^gas-equilibrium\.equilibration_time: beyond every sample time$"
    with pytest.raises(ConfigError, match=message):
        run_scenario(config)
