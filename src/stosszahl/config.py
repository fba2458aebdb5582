"""Flat key = value scenario configuration with strict validation.

A config file has a ``[run]`` section naming the scenario plus one section,
named after the scenario, holding its parameters. Unknown sections or keys
are rejected with their full field path; reproducibility beats flexibility,
so there are no pass-through extras and a seed must always be present
(either in the file or on the command line).
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path


class ConfigError(Exception):
    """Malformed scenario configuration; the message carries the field path."""


# key -> (parser, default); REQUIRED means the key must be present.
REQUIRED = object()


def _parse_float_list(text: str) -> tuple[float, ...]:
    values = tuple(float(part) for part in text.split(",") if part.strip())
    if not values:
        raise ValueError("expected a comma-separated list of numbers")
    return values


SCENARIO_SCHEMAS: dict[str, dict[str, tuple]] = {
    "two-state-relaxation": {
        "rate_to_1": (float, 1.0),
        "rate_to_2": (float, 1.0),
        "p1_initial": (float, 1.0),
        "t_max": (float, 5.0),
        "n_points": (int, 50),
    },
    "unitary-vs-collapse": {
        "gap": (float, 1.0),
        "collapse_rate": (float, 1.0),
        "t_max": (float, 20.0),
        "n_unitary_steps": (int, 1000),
        "n_seeds": (int, 500),
        "n_samples": (int, 81),
    },
    "born-statistics": {
        "weights": (_parse_float_list, (1.0 / 3.0, 2.0 / 3.0)),
        "n_draws": (int, 100_000),
    },
    "gas-equilibrium": {
        "n_molecules": (int, 100),
        "n_excited": (int, 50),
        "decay_rate": (float, 1.0),
        "delay": (float, None),
        "t_max": (float, 50.0),
        "n_seeds": (int, 500),
        "n_samples": (int, 51),
        "equilibration_time": (float, 30.0),
        "check_times": (_parse_float_list, (2.0, 5.0, 10.0)),
        "coupling_table": (str, None),
    },
    "ledger-audit": {
        "ledger": (str, REQUIRED),
        "n_molecules": (int, None),
    },
}


@dataclass
class ScenarioConfig:
    """A fully validated run request."""

    scenario: str
    seed: int
    out_dir: Path
    params: dict = field(default_factory=dict)
    write_timestamp: bool = True


def load_scenario_config(
    path,
    seed_override: int | None = None,
    out_override: str | None = None,
) -> ScenarioConfig:
    """Parse and validate a config file, applying CLI overrides."""
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    parser.optionxform = str  # keys are case-sensitive
    try:
        read = parser.read(path)
    except configparser.Error as exc:  # a repeated key or section, a line outside any section
        raise ConfigError(f"{path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")

    if "run" not in parser:
        raise ConfigError("missing [run] section")
    run_keys = set(parser["run"])
    unknown_run = run_keys - {"scenario", "seed", "out"}
    if unknown_run:
        raise ConfigError(f"run.{sorted(unknown_run)[0]}: unknown key")
    scenario = parser["run"].get("scenario")
    if not scenario:
        raise ConfigError("run.scenario: required")
    if scenario not in SCENARIO_SCHEMAS:
        known = ", ".join(sorted(SCENARIO_SCHEMAS))
        raise ConfigError(f"run.scenario: unknown scenario {scenario!r} (known: {known})")

    seed = seed_override
    if seed is None and "seed" in parser["run"]:
        try:
            seed = int(parser["run"]["seed"])
        except ValueError as exc:
            raise ConfigError(f"run.seed: {exc}") from exc
    if seed is None:
        raise ConfigError("run.seed: a seed is required (in the file or via --seed)")
    if seed < 0:
        raise ConfigError("run.seed: must be nonnegative")

    out_dir = Path(out_override if out_override is not None else parser["run"].get("out", "stosszahl_out"))

    for section in parser.sections():
        if section not in ("run", scenario):
            raise ConfigError(f"{section}: unknown section (scenario is {scenario!r})")

    schema = SCENARIO_SCHEMAS[scenario]
    raw = dict(parser[scenario]) if scenario in parser else {}
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"{scenario}.{sorted(unknown)[0]}: unknown key")

    params = {}
    for key, (parse, default) in schema.items():
        if key in raw:
            try:
                params[key] = parse(raw[key])
            except ValueError as exc:
                raise ConfigError(f"{scenario}.{key}: {exc}") from exc
        elif default is REQUIRED:
            raise ConfigError(f"{scenario}.{key}: required")
        else:
            params[key] = default

    return ScenarioConfig(scenario=scenario, seed=seed, out_dir=out_dir, params=params)
