"""Fuzz the config path: a small config of every scenario with edited values.

Each example starts from a small base config of one scenario, overrides one
to three of its schema keys with values from a fixed pool (numbers, signed
zeros and ones, non-finite spellings, an empty string and a word), and may
add an unknown key or repeat a key. A sweep then sets each number key of a
base config, one at a time, to both edges of its declared range, the next
value outside each edge, and four extreme magnitudes. Whatever the edits,
``cli.main`` must end in exit code 0, 1 or 2: never in 3, the code of an
unexpected exception.
"""

import contextlib
import io
import math
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gas_oracle import seeded_run
from stosszahl.cli import main
from stosszahl.config import SCENARIO_SCHEMAS, Number
from stosszahl.gas import GasConfig, write_ledger_csv

POOL = ("-1", "0", "1", "2", "100", "0.5", "3", "nan", "inf", "-inf", "1e999", "", "x")
LIST_KEYS = ("weights", "check_times")

# Small enough that a run takes a fraction of a second.
BASES = {
    "two-state-relaxation": {"n_points": "5"},
    "unitary-vs-collapse": {
        "t_max": "2", "n_unitary_steps": "10", "n_seeds": "2", "n_samples": "5",
    },
    "born-statistics": {"n_draws": "100"},
    "gas-equilibrium": {
        "n_molecules": "4", "n_excited": "2", "t_max": "3", "n_seeds": "100",
        "n_samples": "4", "equilibration_time": "1", "check_times": "1, 2",
    },
    "ledger-audit": {"n_molecules": "4"},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding a clean ledger for the ledger-audit base config."""
    path = tmp_path_factory.mktemp("fuzz")
    config = GasConfig(n_molecules=4, n_excited=2, decay_rate=1.0, t_max=3.0, seed=1)
    write_ledger_csv(path / "ledger.csv", seeded_run(config)[1])
    return path


def value_for(key):
    if key in LIST_KEYS:
        return st.lists(st.sampled_from(POOL), min_size=1, max_size=3).map(", ".join)
    return st.sampled_from(POOL)


@st.composite
def edited_configs(draw):
    """(scenario, the [scenario] section's lines) of one edited base config."""
    scenario = draw(st.sampled_from(sorted(BASES)))
    entries = dict(BASES[scenario])
    keys = draw(st.lists(st.sampled_from(sorted(SCENARIO_SCHEMAS[scenario])), min_size=1,
                         max_size=3, unique=True))
    for key in keys:
        entries[key] = draw(value_for(key))
    lines = [f"{key} = {value}" for key, value in entries.items()]
    # Either ends the parse, so each comes in one example of four.
    if draw(st.integers(0, 3)) == 0:
        lines.append(f"{draw(st.sampled_from(['junk', 'T_MAX', 'seed']))} = 1")
    if draw(st.integers(0, 3)) == 0:
        key = draw(st.sampled_from(keys))
        lines.append(f"{key} = {draw(value_for(key))}")
    return scenario, lines


def exit_code(workdir, scenario, lines):
    """(exit code, config text, stderr) of ``cli.main`` run on a [scenario] section of ``lines``."""
    if scenario == "ledger-audit" and not any(line.startswith("ledger ") for line in lines):
        lines = lines + [f"ledger = {workdir / 'ledger.csv'}"]
    text = f"[run]\nscenario = {scenario}\nseed = 1\n[{scenario}]\n" + "\n".join(lines) + "\n"
    config = workdir / "run.cfg"
    config.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["run", "--config", str(config), "--out", str(workdir / "out"),
                     "--no-header-timestamp"])
    return code, text, err.getvalue()


@settings(max_examples=400)
@given(edited_configs())
def test_edited_configs_never_exit_three(workdir, edited):
    code, text, err = exit_code(workdir, *edited)
    assert code != 3, (text, err)


# Drawn at every number key besides its edges; an integer key gets an
# integer spelling where there is one.
EXTREMES = (1e6, 1e300, 1e-300, 5e-324)


def edge_draws(parse):
    """(config text, id) of a number key's declared edges, the next value outside each, and EXTREMES."""
    values = []
    for edge, outward in ((parse.lo, -1), (parse.hi, 1)):
        if math.isfinite(edge):
            outside = edge + outward if parse.kind is int else math.nextafter(edge, outward * math.inf)
            values += [parse.kind(edge), outside]
    values += [int(x) if parse.kind is int and x.is_integer() else x for x in EXTREMES]
    draws = {}
    for value in values:
        text = format(Decimal(repr(value)), "f") if isinstance(value, int) else repr(value)
        draws.setdefault(text, text if len(text) < 20 else f"{Decimal(text):.0e}")
    return list(draws.items())


# Draws the small bases accept that run for seconds to minutes (on a 2-core
# x86 VM): a master solve per grid point, a 2001-label master equation, or a
# million members or samples. Each ended in exit 0 or 1 when run by hand.
LONG_DRAWS = {
    ("two-state-relaxation", "n_points", "1000000"),  # 296 s, beside a test-suite run
    ("unitary-vs-collapse", "n_seeds", "1000000"),  # 34 s
    ("unitary-vs-collapse", "n_samples", "1000000"),  # 8 s
    ("gas-equilibrium", "n_molecules", "4000"),  # 8 s
    ("gas-equilibrium", "n_seeds", "1000000"),  # 17 s
}

EDGE_DRAWS = [
    pytest.param(scenario, key, text, id=f"{scenario}.{key}={label}")
    for scenario, schema in SCENARIO_SCHEMAS.items()
    for key, (parse, _default) in schema.items()
    if isinstance(parse, Number)
    for text, label in edge_draws(parse)
    if (scenario, key, text) not in LONG_DRAWS
]


@pytest.mark.parametrize("scenario, key, text", EDGE_DRAWS)
def test_declared_edges_and_extremes_never_exit_three(workdir, scenario, key, text):
    entries = {**BASES[scenario], key: text}
    code, config, err = exit_code(workdir, scenario, [f"{k} = {v}" for k, v in entries.items()])
    assert code != 3, (config, err)
