import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from stosszahl import cli, scenarios
from stosszahl.cli import main
from stosszahl.gas import GasConfig, Ledger, run, write_ledger_csv
from stosszahl.scenarios import SCENARIO_CHECKS

SRC = str(Path(__file__).resolve().parent.parent / "src")


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "gas-equilibrium" in out
    assert len(out) == 5


def test_run_two_state_exit_zero(tmp_path, capsys):
    config = write_config(
        tmp_path, "[run]\nscenario = two-state-relaxation\nseed = 3\n"
    )
    code = main(
        ["run", "--config", str(config), "--out", str(tmp_path / "out"), "--no-header-timestamp"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "[PASS] solver_matches_closed_form" in out
    assert (tmp_path / "out" / "report.json").exists()


def test_run_bad_config_exit_two(tmp_path, capsys):
    config = write_config(tmp_path, "[run]\nscenario = nope\nseed = 3\n")
    assert main(["run", "--config", str(config)]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_missing_seed_exit_two(tmp_path, capsys):
    config = write_config(tmp_path, "[run]\nscenario = born-statistics\n")
    assert main(["run", "--config", str(config)]) == 2


@pytest.mark.parametrize(
    "text, message",
    [
        ("[run]\nscenario = born-statistics\nseed = 1\nseed = 2\n", "option 'seed'"),
        ("[run]\nscenario = born-statistics\nseed = 1\n[run]\n", "section 'run'"),
        ("seed = 1\n[run]\nscenario = born-statistics\n", "no section headers"),
        ("[run]\nscenario = born-statistics\nseed = 1\n[born-statistics]\nweights = 0.5, nan\n",
         "born-statistics.weights: must be finite, got nan"),
        ("[run]\nscenario = born-statistics\nseed = 1\n[born-statistics]\nweights = 0.5, 0.4\n",
         "born-statistics.weights: weights sums to 0.9"),
        ("[run]\nscenario = born-statistics\nseed = 1\n[born-statistics]\nweights = 1, 0\n",
         "born-statistics.weights: the chi-square test needs two or more nonzero weights"),
        ("[run]\nscenario = two-state-relaxation\nseed = 1\n[two-state-relaxation]\nn_points = 0\n",
         "two-state-relaxation.n_points: must be >= 1"),
        ("[run]\nscenario = two-state-relaxation\nseed = 1\n[two-state-relaxation]\nrate_to_1 = -1\n",
         "two-state-relaxation: rate_to_1 and rate_to_2 must be positive"),
        ("[run]\nscenario = two-state-relaxation\nseed = 1\n[two-state-relaxation]\nrate_to_2 = -0.5\n",
         "two-state-relaxation: rate_to_1 and rate_to_2 must be positive"),
        ("[run]\nscenario = two-state-relaxation\nseed = 1\n[two-state-relaxation]\n"
         "rate_to_1 = 0\nrate_to_2 = 0\n",
         "two-state-relaxation: rate_to_1 and rate_to_2 must be positive"),
        ("[run]\nscenario = two-state-relaxation\nseed = 1\n[two-state-relaxation]\nrate_to_1 = 0\n",
         "two-state-relaxation: rate_to_1 and rate_to_2 must be positive"),
        ("[run]\nscenario = two-state-relaxation\nseed = 1\n[two-state-relaxation]\np1_initial = 1.5\n",
         "two-state-relaxation.p1_initial: must lie in [0, 1]"),
        ("[run]\nscenario = two-state-relaxation\nseed = 1\n[two-state-relaxation]\np1_initial = -0.5\n",
         "two-state-relaxation.p1_initial: must lie in [0, 1]"),
        ("[run]\nscenario = two-state-relaxation\nseed = 1\n[two-state-relaxation]\nt_max = -1\n",
         "two-state-relaxation.t_max: must be >= 0"),
        ("[run]\nscenario = gas-equilibrium\nseed = 1\n[gas-equilibrium]\nn_samples = 0\n",
         "gas-equilibrium.n_samples: must be >= 1"),
        ("[run]\nscenario = gas-equilibrium\nseed = 1\n[gas-equilibrium]\nn_samples = -1\n",
         "gas-equilibrium.n_samples: must be >= 1"),
    ],
    ids=["repeated-key", "repeated-section", "key-before-section", "nan-weight",
         "weights-off-one", "one-nonzero-weight", "no-grid-points", "negative-rate-to-1",
         "negative-rate-to-2", "both-rates-zero", "one-rate-zero", "p1-above-one",
         "p1-below-zero", "negative-t-max", "no-gas-samples", "negative-gas-samples"],
)
def test_unusable_config_exits_two(tmp_path, capsys, text, message):
    # these used to exit 3 (DuplicateOptionError, DuplicateSectionError,
    # MissingSectionHeaderError, the born weights' sum check, the two-state
    # rates, p1_initial and t_max, a negative gas n_samples) or to report a
    # NaN p-value as a failed check (exit 1) or two checks passed on an
    # empty grid (exit 0) or blame equilibration_time (gas n_samples = 0)
    config = write_config(tmp_path, text)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert message in err


def test_seed_flag_overrides(tmp_path):
    config = write_config(tmp_path, "[run]\nscenario = born-statistics\n")
    code = main(
        ["run", "--config", str(config), "--seed", "20260809",
         "--out", str(tmp_path / "out"), "--no-header-timestamp"]
    )
    assert code == 0


def test_env_var_sets_output_dir(tmp_path, monkeypatch, capsys):
    config = write_config(tmp_path, "[run]\nscenario = two-state-relaxation\nseed = 3\n")
    target = tmp_path / "env_out"
    monkeypatch.setenv("STOSSZAHL_OUT", str(target))
    assert main(["run", "--config", str(config), "--no-header-timestamp"]) == 0
    assert (target / "report.json").exists()


def test_out_flag_beats_env_var(tmp_path, monkeypatch):
    config = write_config(tmp_path, "[run]\nscenario = two-state-relaxation\nseed = 3\n")
    monkeypatch.setenv("STOSSZAHL_OUT", str(tmp_path / "env_out"))
    flag_out = tmp_path / "flag_out"
    assert main(["run", "--config", str(config), "--out", str(flag_out), "--no-header-timestamp"]) == 0
    assert (flag_out / "report.json").exists()
    assert not (tmp_path / "env_out").exists()


def test_audit_clean_ledger_exit_zero(tmp_path, capsys):
    gas_config = GasConfig(n_molecules=8, n_excited=4, decay_rate=1.0, t_max=10.0, seed=6)
    _bounds, events = run(gas_config)
    path = tmp_path / "ledger.csv"
    write_ledger_csv(path, events)
    assert main(["audit", "--ledger", str(path), "--n-molecules", "8"]) == 0
    assert "audit: PASS" in capsys.readouterr().out


def test_audit_tampered_ledger_exit_one(tmp_path, capsys):
    gas_config = GasConfig(n_molecules=8, n_excited=4, decay_rate=1.0, t_max=10.0, seed=6)
    _bounds, events = run(gas_config)
    path = tmp_path / "ledger.csv"
    # the first event replayed at the end
    write_ledger_csv(path, Ledger(*(np.append(column, column[0]) for column in vars(events).values())))
    assert main(["audit", "--ledger", str(path)]) == 1
    out = capsys.readouterr().out
    assert "violation" in out and "audit: FAIL" in out


def test_gas_run_with_absorptions_past_the_horizon_reports(tmp_path, capsys):
    # delay = half a lifetime: many emissions before t_max absorb after it, which
    # used to crash the rate estimate with a traceback instead of a report
    config = write_config(
        tmp_path,
        "[run]\nscenario = gas-equilibrium\nseed = 1\n"
        "[gas-equilibrium]\nn_molecules = 10\nn_excited = 5\ndelay = 0.5\n"
        "t_max = 10\nn_seeds = 100\nequilibration_time = 5\n",
    )
    out = tmp_path / "out"
    code = main(["run", "--config", str(config), "--out", str(out), "--no-header-timestamp"])
    assert code in (0, 1)
    assert (out / "report.json").exists()
    assert "scenario gas-equilibrium:" in capsys.readouterr().out


def test_audit_missing_file_exit_two(tmp_path, capsys):
    assert main(["audit", "--ledger", str(tmp_path / "nope.csv")]) == 2
    assert "error" in capsys.readouterr().err


def test_identical_seeds_identical_outputs(tmp_path):
    config = write_config(
        tmp_path,
        "[run]\nscenario = born-statistics\nseed = 20260809\n"
        "[born-statistics]\nn_draws = 5000\n",
    )
    for sub in ("x", "y"):
        assert main(
            ["run", "--config", str(config), "--out", str(tmp_path / sub), "--no-header-timestamp"]
        ) == 0
    assert (tmp_path / "x" / "born_statistics.csv").read_bytes() == (
        tmp_path / "y" / "born_statistics.csv"
    ).read_bytes()


def test_gas_run_with_fewer_quanta_than_half_the_molecules_reports(tmp_path, capsys):
    # k can only reach 5 of the 10 left-half slots; the ensemble summary used to
    # evaluate the macrostate entropy at k = 6..10 and die with a traceback
    config = write_config(
        tmp_path,
        "[run]\nscenario = gas-equilibrium\nseed = 1\n"
        "[gas-equilibrium]\nn_molecules = 20\nn_excited = 5\n"
        "t_max = 20\nn_seeds = 100\nequilibration_time = 10\n",
    )
    out = tmp_path / "out"
    code = main(["run", "--config", str(config), "--out", str(out), "--no-header-timestamp"])
    # the verdict is not pinned: at 5 quanta the equilibrium mean macrostate
    # entropy sits about 4% below its maximum, close to the 5% band
    assert code in (0, 1)
    report = json.loads((out / "report.json").read_text())
    assert [check["name"] for check in report["checks"]] == list(SCENARIO_CHECKS["gas-equilibrium"])
    assert all(math.isfinite(check["measured"]) for check in report["checks"])
    assert "scenario gas-equilibrium:" in capsys.readouterr().out


def run_probe(probe):
    """stdout of ``python -c probe`` with this checkout's package on the path."""
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout.split()


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats used to cost most of the CLI start-up for one chi-square call
    probe = "import sys, stosszahl.cli; print('scipy.stats' in sys.modules)"
    assert run_probe(probe) == ["False"]


def test_cli_import_leaves_scipy_special_out():
    # born-statistics alone needs scipy.special, and imports it when it runs
    probe = "import sys, stosszahl.cli; print('scipy.special' in sys.modules)"
    assert run_probe(probe) == ["False"]


def test_import_loads_no_scipy():
    # scipy is imported where it is used: scipy.special by born-statistics,
    # scipy.linalg by the first master-equation solve
    probe = (
        "import sys\n"
        "def scipy_loaded():\n"
        "    return any(name.split('.')[0] == 'scipy' for name in sys.modules)\n"
        "import stosszahl\n"
        "print(scipy_loaded())\n"
        "import stosszahl.cli\n"
        "print(scipy_loaded())\n"
    )
    assert run_probe(probe) == ["False", "False"]


@pytest.mark.parametrize(
    "config, loads_linalg",
    [
        (None, False),
        ("unitary_vs_collapse.cfg", False),
        ("born_statistics.cfg", False),
        ("two_state_relaxation.cfg", True),
    ],
)
def test_only_master_solves_load_scipy_linalg(tmp_path, config, loads_linalg):
    command = ["list-scenarios"]
    if config is not None:
        path = Path(SRC).parent / "configs" / config
        command = ["run", "--config", str(path), "--out", str(tmp_path)]
    probe = (
        "import sys\n"
        "from stosszahl.cli import main\n"
        f"code = main({command!r})\n"
        "print(code, 'scipy.linalg' in sys.modules)\n"
    )
    assert run_probe(probe)[-2:] == ["0", str(loads_linalg)]


def test_born_zero_weight_outcome_leaves_the_chi_square_sum(tmp_path):
    # a weight-0 outcome is never drawn; it used to put 0 / 0 into Pearson's sum,
    # a NaN p-value (exit 1) and a RuntimeWarning (exit 3 under -W error)
    measured = []
    for name, weights in (("zero", "0.5, 0.5, 0"), ("plain", "0.5, 0.5")):
        config = write_config(
            tmp_path,
            "[run]\nscenario = born-statistics\nseed = 20260809\n"
            f"[born-statistics]\nweights = {weights}\nn_draws = 10000\n",
            name=f"{name}.cfg",
        )
        out = tmp_path / name
        result = subprocess.run(
            [sys.executable, "-W", "error", "-c",
             "import sys; from stosszahl.cli import main; sys.exit(main(sys.argv[1:]))",
             "run", "--config", str(config), "--out", str(out), "--no-header-timestamp"],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        check = json.loads((out / "report.json").read_text())["checks"][0]
        measured.append((check["measured"], check["requirement"]))
    assert measured[0] == measured[1]


@pytest.mark.parametrize("key", ["n_unitary_steps", "n_seeds", "n_samples"])
def test_unitary_vs_collapse_rejects_empty_counts(tmp_path, capsys, key):
    # 0 used to end in a ZeroDivisionError or IndexError traceback, or (n_seeds)
    # in a NaN mean reported as a failed check
    config = write_config(
        tmp_path,
        f"[run]\nscenario = unitary-vs-collapse\nseed = 1\n[unitary-vs-collapse]\n{key} = 0\n",
    )
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: unitary-vs-collapse.{key}: must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "scenario, params, keys",
    [
        ("gas-equilibrium", "t_max = 1e6\n", "n_excited * decay_rate * t_max = 5e+07"),
        ("unitary-vs-collapse", "collapse_rate = 1e3\nt_max = 1e6\n", "collapse_rate * t_max = 1e+09"),
    ],
    ids=["gas", "collapse"],
)
def test_unbounded_work_is_a_config_error(tmp_path, capsys, scenario, params, keys):
    # such a horizon used to run for minutes or longer, holding every event in memory
    config = write_config(tmp_path, f"[run]\nscenario = {scenario}\nseed = 1\n[{scenario}]\n{params}")
    start = time.perf_counter()
    code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert f"config error: {scenario}: {keys} expected" in capsys.readouterr().err


def test_unexpected_exception_exits_three_without_traceback(tmp_path, monkeypatch, capsys):
    def broken(_config):
        raise RuntimeError("simulated fault")

    monkeypatch.setattr(cli, "run_scenario", broken)
    config = write_config(tmp_path, "[run]\nscenario = two-state-relaxation\nseed = 3\n")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: simulated fault\n"


def _to_trace_two(kernel):
    def broken(*args):
        out = kernel(*args)
        return 2.0 * out / np.trace(out).real

    return broken


@pytest.mark.parametrize(
    "target, attr, failing_state",
    [
        (scenarios.Propagator, "evolve", "unitary branch final state"),
        (scenarios, "decohere", "collapse member 0 final state"),
    ],
    ids=["propagator", "decohere"],
)
def test_kernel_breaking_the_trace_exits_three(tmp_path, monkeypatch, capsys, target, attr, failing_state):
    # the loops step through unchecked kernels; the final-state check must
    # still turn a kernel that breaks the density-matrix invariants into a failure
    monkeypatch.setattr(target, attr, _to_trace_two(getattr(target, attr)))
    config = write_config(
        tmp_path,
        "[run]\nscenario = unitary-vs-collapse\nseed = 1\n"
        "[unitary-vs-collapse]\nn_unitary_steps = 10\nn_seeds = 3\n",
    )
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"internal error: ValueError: {failing_state} trace is 2")
    assert "Traceback" not in err


def write_coupling_table(path, edit, n=10):
    """Off-diagonal ones with ``table[index] = value`` applied, as a CSV table."""
    table = np.ones((n, n))
    np.fill_diagonal(table, 0.0)
    index, value = edit
    table[index] = value
    path.write_text(
        ",".join(f"m{i}" for i in range(n)) + "\n"
        + "".join(",".join(repr(float(x)) for x in row) + "\n" for row in table)
    )
    return path


@pytest.mark.parametrize(
    "params, edit, message",
    [
        ({"delay": "0"}, None, "gas-equilibrium: delay must be strictly positive"),
        ({"n_excited": "12"}, None, "gas-equilibrium.n_excited: must lie in 1..n_molecules - 1"),
        ({"n_excited": "0"}, None, "gas-equilibrium.n_excited: must lie in 1..n_molecules - 1"),
        ({"coupling_table": "missing.csv"}, None, "gas-equilibrium.coupling_table: cannot read"),
        ({}, ((3, 3), 1.0), "gas-equilibrium.coupling_table: "),
        ({}, (0, 0.0),
         "gas-equilibrium.coupling_table: coupling weights from emitter 0 to the confirmation set "
         "are all zero"),
        ({}, ((2, 7), math.nan), "gas-equilibrium: coupling weights must be finite"),
        ({"delay": "0.5", "t_max": "0.1", "equilibration_time": "0", "check_times": "0.1"}, None,
         "gas-equilibrium.t_max: no member records an event by t_max"),
    ],
    ids=["zero-delay", "more-quanta-than-molecules", "no-quanta", "missing-table",
         "nonzero-diagonal", "zero-row", "nan-weight", "no-event-by-t-max"],
)
def test_gas_run_rejects_unusable_input_with_exit_two(tmp_path, capsys, params, edit, message):
    # each of these used to end in exit 3 ("internal error: ValueError" or
    # "FileNotFoundError"), or for a NaN weight in a report with NaN measurements;
    # a horizon before the first absorption must not compare empty rates and pass
    values = {"n_molecules": "10", "n_excited": "5", "t_max": "2", "n_seeds": "100",
              "equilibration_time": "1", "check_times": "1, 2", **params}
    if "coupling_table" in values:
        values["coupling_table"] = str(tmp_path / values["coupling_table"])
    if edit is not None:
        values["coupling_table"] = str(write_coupling_table(tmp_path / "coupling.csv", edit))
    config = write_config(
        tmp_path,
        "[run]\nscenario = gas-equilibrium\nseed = 1\n[gas-equilibrium]\n"
        + "".join(f"{key} = {value}\n" for key, value in values.items()),
    )
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}")
    assert "internal error" not in err
