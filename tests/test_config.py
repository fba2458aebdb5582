import math
import re
from pathlib import Path

import numpy as np
import pytest

from stosszahl.config import SCENARIO_SCHEMAS, ConfigError, Number, check_params, load_scenario_config

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

    # gas-equilibrium n_seeds starts at 100, the smallest ensemble for its statistics
    low = SCENARIO_SCHEMAS[scenario][key][0].lo
    assert load(low).params[key] == low
    assert load(10**6).params[key] == 10**6
    with pytest.raises(ConfigError, match=rf"^{scenario}\.{key}: must be >= {low}, got 0$"):
        load(0)
    with pytest.raises(ConfigError, match=rf"^{scenario}\.{key}: must be <= 1000000, got 1000001$"):
        load(10**6 + 1)


def test_unitary_steps_stop_at_a_hundred_thousand(tmp_path):
    # the unitary branch's stepped state drifts off unit trace by up to 2.2e-16
    # per step: at 1e6 steps its final-state check failed with exit 3
    def load(value):
        text = "[run]\nscenario = unitary-vs-collapse\nseed = 7\n[unitary-vs-collapse]\n"
        text += f"n_unitary_steps = {value}\n"
        return load_scenario_config(write_config(tmp_path, text))

    assert load(100_000).params["n_unitary_steps"] == 100_000
    message = r"^unitary-vs-collapse\.n_unitary_steps: must be <= 100000, got 100001$"
    with pytest.raises(ConfigError, match=message):
        load(100_001)


# Keys that name an input file rather than a number.
PATH_KEYS = {("gas-equilibrium", "coupling_table"), ("ledger-audit", "ledger")}
NUMBER_KEYS = [
    (scenario, key)
    for scenario, schema in SCENARIO_SCHEMAS.items()
    for key in schema
    if (scenario, key) not in PATH_KEYS
]


def test_every_number_key_declares_a_range():
    for scenario, schema in SCENARIO_SCHEMAS.items():
        for key, (parse, default) in schema.items():
            if (scenario, key) in PATH_KEYS:
                assert parse is str, (scenario, key)
            else:
                assert isinstance(parse, Number), (scenario, key)


def edges(number):
    """(value, None) for each value that must load and (value, rule) for each just outside.

    A closed finite edge must load and the next value out must not; an open
    lower edge must not load and the next float in must.
    """
    found = []
    for bound, is_open, outward, sign in ((number.lo, number.lo_open, -1, ">"), (number.hi, False, 1, "<")):
        if math.isinf(bound):
            continue
        rule = f"{sign} {bound}" if is_open else f"{sign}= {bound}"
        bound = number.kind(bound)
        if is_open:
            found.append((bound, rule))
            found.append((float(np.nextafter(bound, -outward * math.inf)), None))
        else:
            found.append((bound, None))
            if number.kind is int:
                found.append((bound + outward, rule))
            else:
                found.append((float(np.nextafter(bound, outward * math.inf)), rule))
    return found


@pytest.mark.parametrize("scenario, key", NUMBER_KEYS, ids=lambda v: v)
def test_range_edges_load_and_the_next_value_out_is_rejected(tmp_path, scenario, key):
    number = SCENARIO_SCHEMAS[scenario][key][0]

    required = "ledger = ledger.csv\n" if scenario == "ledger-audit" else ""

    def load(value):
        return load_scenario_config(write_config(
            tmp_path, f"[run]\nscenario = {scenario}\nseed = 7\n[{scenario}]\n{required}{key} = {value!r}\n"
        )).params[key]

    # a request built in code, as run_scenario checks it, holds to the same rules
    for value, rule in edges(number):
        built = {key: (value,) if number.many else value}
        if rule is None:
            assert load(value) == built[key]
            check_params(scenario, built)
        else:
            message = rf"^{scenario}\.{key}: must be {re.escape(rule)}, got {re.escape(repr(value))}$"
            with pytest.raises(ConfigError, match=message):
                load(value)
            with pytest.raises(ConfigError, match=message):
                check_params(scenario, built)


@pytest.mark.parametrize(
    "scenario, key, value, rule",
    [
        ("gas-equilibrium", "n_molecules", 31, "even"),
        ("unitary-vs-collapse", "gap", 0.0, "nonzero"),
        ("unitary-vs-collapse", "gap", -0.0, "nonzero"),
    ],
)
def test_parity_and_nonzero_rules(tmp_path, scenario, key, value, rule):
    path = write_config(tmp_path, f"[run]\nscenario = {scenario}\nseed = 7\n[{scenario}]\n{key} = {value!r}\n")
    message = rf"^{scenario}\.{key}: must be {rule}, got {re.escape(repr(value))}$"
    with pytest.raises(ConfigError, match=message):
        load_scenario_config(path)
    with pytest.raises(ConfigError, match=message):
        check_params(scenario, {key: value})


def test_negative_seed_rejected_in_the_range_format(tmp_path):
    path = write_config(tmp_path, "[run]\nscenario = born-statistics\nseed = -1\n")
    with pytest.raises(ConfigError, match=r"^run\.seed: must be >= 0, got -1$"):
        load_scenario_config(path)
    with pytest.raises(ConfigError, match=r"^run\.seed: must be >= 0, got -2$"):
        load_scenario_config(path, seed_override=-2)
    assert load_scenario_config(path, seed_override=0).seed == 0
