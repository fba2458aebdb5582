from pathlib import Path

import pytest

from stosszahl.config import ConfigError, load_scenario_config

SHIPPED_CONFIGS = sorted((Path(__file__).parent.parent / "configs").glob("*.cfg"))


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_minimal_config_uses_defaults(tmp_path):
    path = write_config(tmp_path, "[run]\nscenario = two-state-relaxation\nseed = 7\n")
    config = load_scenario_config(path)
    assert config.scenario == "two-state-relaxation"
    assert config.seed == 7
    assert config.params["rate_to_1"] == 1.0
    assert config.params["n_points"] == 50
    assert config.out_dir.name == "stosszahl_out"


def test_parameters_override_defaults(tmp_path):
    path = write_config(
        tmp_path,
        "[run]\nscenario = two-state-relaxation\nseed = 7\n"
        "[two-state-relaxation]\nrate_to_1 = 2.5\nn_points = 10\n",
    )
    config = load_scenario_config(path)
    assert config.params["rate_to_1"] == 2.5
    assert config.params["n_points"] == 10


def test_unknown_key_rejected_with_path(tmp_path):
    path = write_config(
        tmp_path,
        "[run]\nscenario = two-state-relaxation\nseed = 7\n"
        "[two-state-relaxation]\nrate_typo = 2.5\n",
    )
    with pytest.raises(ConfigError, match="two-state-relaxation.rate_typo"):
        load_scenario_config(path)


def test_unknown_section_rejected(tmp_path):
    path = write_config(
        tmp_path,
        "[run]\nscenario = two-state-relaxation\nseed = 7\n[gas-equilibrium]\nn_seeds = 5\n",
    )
    with pytest.raises(ConfigError, match="unknown section"):
        load_scenario_config(path)


def test_unknown_scenario_rejected(tmp_path):
    path = write_config(tmp_path, "[run]\nscenario = nope\nseed = 7\n")
    with pytest.raises(ConfigError, match="unknown scenario"):
        load_scenario_config(path)


def test_missing_seed_rejected(tmp_path):
    path = write_config(tmp_path, "[run]\nscenario = born-statistics\n")
    with pytest.raises(ConfigError, match="seed"):
        load_scenario_config(path)


def test_seed_override_fills_missing_seed(tmp_path):
    path = write_config(tmp_path, "[run]\nscenario = born-statistics\n")
    config = load_scenario_config(path, seed_override=99)
    assert config.seed == 99


def test_bad_value_reports_field_path(tmp_path):
    path = write_config(
        tmp_path,
        "[run]\nscenario = born-statistics\nseed = 7\n[born-statistics]\nn_draws = many\n",
    )
    with pytest.raises(ConfigError, match="born-statistics.n_draws"):
        load_scenario_config(path)


def test_weights_parse_as_float_list(tmp_path):
    path = write_config(
        tmp_path,
        "[run]\nscenario = born-statistics\nseed = 7\n"
        "[born-statistics]\nweights = 0.25, 0.25, 0.5\n",
    )
    config = load_scenario_config(path)
    assert config.params["weights"] == (0.25, 0.25, 0.5)


def test_required_key_enforced(tmp_path):
    path = write_config(tmp_path, "[run]\nscenario = ledger-audit\nseed = 7\n")
    with pytest.raises(ConfigError, match="ledger-audit.ledger"):
        load_scenario_config(path)


def test_out_override_wins(tmp_path):
    path = write_config(
        tmp_path, "[run]\nscenario = born-statistics\nseed = 7\nout = from_file\n"
    )
    assert load_scenario_config(path).out_dir.name == "from_file"
    assert load_scenario_config(path, out_override="cli_dir").out_dir.name == "cli_dir"


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_scenario_config(tmp_path / "absent.cfg")


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
def test_shipped_configs_parse(path):
    config = load_scenario_config(path)
    assert config.seed >= 0
    assert config.params


FLOAT_KEYS = {
    "two-state-relaxation": ("rate_to_1", "rate_to_2", "p1_initial", "t_max"),
    "unitary-vs-collapse": ("gap", "collapse_rate", "t_max"),
    "born-statistics": ("weights",),
    "gas-equilibrium": ("decay_rate", "delay", "t_max", "equilibration_time", "check_times"),
}


@pytest.mark.parametrize(
    "scenario, key", [(scenario, key) for scenario, keys in FLOAT_KEYS.items() for key in keys]
)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999", "-1e999"])
def test_non_finite_floats_rejected_with_path(tmp_path, scenario, key, value):
    # such values used to hang a run (t_max = inf), end it in an internal
    # error, or reach a check as NaN; a list is rejected for any such entry
    if key in ("weights", "check_times"):
        value = f"0.5, {value}"
    path = write_config(
        tmp_path, f"[run]\nscenario = {scenario}\nseed = 7\n[{scenario}]\n{key} = {value}\n"
    )
    with pytest.raises(ConfigError, match=rf"^{scenario}\.{key}: must be finite"):
        load_scenario_config(path)


@pytest.mark.parametrize(
    "scenario, key",
    [
        ("two-state-relaxation", "n_points"),
        ("unitary-vs-collapse", "n_unitary_steps"),
        ("unitary-vs-collapse", "n_seeds"),
        ("unitary-vs-collapse", "n_samples"),
        ("born-statistics", "n_draws"),
        ("gas-equilibrium", "n_seeds"),
        ("gas-equilibrium", "n_samples"),
    ],
)
def test_count_keys_accept_one_up_to_a_million(tmp_path, scenario, key):
    def load(value):
        return load_scenario_config(write_config(
            tmp_path, f"[run]\nscenario = {scenario}\nseed = 7\n[{scenario}]\n{key} = {value}\n"
        ))

    assert load(1).params[key] == 1
    assert load(10**6).params[key] == 10**6
    with pytest.raises(ConfigError, match=rf"^{scenario}\.{key}: must be >= 1$"):
        load(0)
    with pytest.raises(ConfigError, match=rf"^{scenario}\.{key}: must be <= 1000000, got 1000001$"):
        load(10**6 + 1)
