"""Flat key = value scenario configuration with strict validation.

A config file has a ``[run]`` section naming the scenario plus one section,
named after the scenario, holding its parameters. Unknown sections or keys
are rejected with their full field path; reproducibility beats flexibility,
so there are no pass-through extras and a seed must always be present
(either in the file or on the command line).

Each number key's parser in :data:`SCENARIO_SCHEMAS` is a :class:`Number`
that declares the key's range as data. :meth:`Number.check` holds each value
to it, with one message format, as the loader parses it and again in
:func:`check_params`, which :func:`~stosszahl.scenarios.run_scenario` calls
on every request, built by hand or loaded. A scenario checks only what
involves two or more keys, an input file, or the work of the whole run.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

from .gas import MIN_DECAY_RATE


class ConfigError(Exception):
    """Malformed scenario configuration; the message carries the field path."""


# key -> (parser, default); REQUIRED means the key must be present.
REQUIRED = object()


@dataclass(frozen=True)
class Number:
    """The parser of a number key (a nonempty comma-separated list if ``many``) and its range.

    Each value must be a finite ``kind`` from ``lo`` (excluded if ``lo_open``)
    to ``hi``, even if ``even`` and not 0 if ``nonzero``; one that is not
    raises ValueError such as ``must be >= 0, got -1.0``.
    """

    kind: type = float
    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = False
    even: bool = False
    nonzero: bool = False
    many: bool = False

    def __call__(self, text: str):
        if not self.many:
            return self.check(self.kind(text))
        return self.check(tuple(self.kind(part) for part in text.split(",") if part.strip()))

    def check(self, value):
        """``value`` (a tuple if ``many``) if every entry lies in the range; ValueError if not."""
        if self.many and not value:
            raise ValueError("expected a comma-separated list of numbers")
        for entry in value if self.many else (value,):
            if self.kind is float and not math.isfinite(entry):
                rule = "finite"
            elif entry < self.lo or self.lo_open and entry == self.lo:
                rule = f"{'>' if self.lo_open else '>='} {self.lo}"
            elif entry > self.hi:
                rule = f"<= {self.hi}"
            elif self.even and entry % 2:
                rule = "even"
            elif self.nonzero and entry == 0:
                rule = "nonzero"
            else:
                continue
            raise ValueError(f"must be {rule}, got {entry!r}")
        return value


# The largest count key a run accepts (grid points, unitary steps, ensemble
# members, samples, Born draws). The committed configs go up to 1e5, and a
# run holds an array entry or an output row per count.
_COUNT = Number(int, 1, 10**6)
_POSITIVE = Number(lo=0, lo_open=True)
# A two-state rate. In a sweep of single keys and pairs (p1_initial at 0, 0.5
# and 1), a rate at or below 3.6e-307 leaves the null-space equilibrium entry 0
# (a support violation), and two rates whose larger is 2.3e5 or more leave an
# equilibrium residual above its absolute tolerance.
_RATE = Number(lo=1e-300, hi=10_000)

SCENARIO_SCHEMAS: dict[str, dict[str, tuple]] = {
    "two-state-relaxation": {
        # A zero rate leaves a state empty at equilibrium, and the relative entropy to it infinite.
        "rate_to_1": (_RATE, 1.0),
        "rate_to_2": (_RATE, 1.0),
        "p1_initial": (Number(lo=0, hi=1), 1.0),
        "t_max": (Number(lo=0), 5.0),
        "n_points": (_COUNT, 50),
    },
    "unitary-vs-collapse": {
        "gap": (Number(nonzero=True), 1.0),
        "collapse_rate": (_POSITIVE, 1.0),
        "t_max": (_POSITIVE, 20.0),
        # Each step moves the state's trace by up to 2.2e-16; at 1e6 steps it left NORM_TOL = 1e-10.
        "n_unitary_steps": (Number(int, 1, 100_000), 1000),
        "n_seeds": (_COUNT, 500),
        "n_samples": (_COUNT, 81),
    },
    "born-statistics": {
        # Any finite entries: the scenario checks the weights as a probability vector.
        "weights": (Number(many=True), (1.0 / 3.0, 2.0 / 3.0)),
        "n_draws": (_COUNT, 100_000),
    },
    "gas-equilibrium": {
        # Even, for two halves of N / 2 molecules. The rate tally and cross-prediction hold dense
        # matrices over the N/2 + 1 labels k: a 100-member run of 4000 molecules peaks near 0.45 GB.
        "n_molecules": (Number(int, 2, 4000, even=True), 100),
        # Below n_molecules, the scenario's check.
        "n_excited": (Number(int, 1), 50),
        "decay_rate": (Number(lo=MIN_DECAY_RATE), 1.0),
        "delay": (_POSITIVE, None),
        "t_max": (_POSITIVE, 50.0),
        # Ensemble statistics need 100 members or more.
        "n_seeds": (Number(int, 100, _COUNT.hi), 500),
        "n_samples": (_COUNT, 51),
        "equilibration_time": (Number(), 30.0),
        "check_times": (Number(lo=0, many=True), (2.0, 5.0, 10.0)),
        "coupling_table": (str, None),
    },
    "ledger-audit": {
        "ledger": (str, REQUIRED),
        "n_molecules": (Number(int, 1), None),
    },
}


@dataclass
class ScenarioConfig:
    """A run request; :func:`check_params` checks its keys' ranges."""

    scenario: str
    seed: int
    out_dir: Path
    params: dict = field(default_factory=dict)
    write_timestamp: bool = True


def check_params(scenario: str, params: dict) -> None:
    """Raise ConfigError, with its field path, for the first number key of ``params`` out of range."""
    for key, (parse, _default) in SCENARIO_SCHEMAS[scenario].items():
        if isinstance(parse, Number) and params.get(key) is not None:
            try:
                parse.check(params[key])
            except ValueError as exc:
                raise ConfigError(f"{scenario}.{key}: {exc}") from exc


def load_scenario_config(
    path,
    seed_override: int | None = None,
    out_override: str | None = None,
) -> ScenarioConfig:
    """Parse and validate a config file, applying CLI overrides."""
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    parser.optionxform = str  # keys are case-sensitive
    try:
        read = parser.read(path, encoding="utf-8")
    # A repeated key or section, a line outside any section, a byte that is not UTF-8.
    except (configparser.Error, UnicodeDecodeError) as exc:
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

    seed = parser["run"].get("seed") if seed_override is None else str(seed_override)
    if seed is None:
        raise ConfigError("run.seed: a seed is required (in the file or via --seed)")
    try:
        seed = Number(int, 0)(seed)
    except ValueError as exc:
        raise ConfigError(f"run.seed: {exc}") from exc

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
