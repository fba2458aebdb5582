import importlib.util
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from gas_oracle import seeded_run
from stosszahl import cli, scenarios
from stosszahl.cli import main
from stosszahl.config import load_scenario_config
from stosszahl.csvio import read_csv, write_csv
from stosszahl.gas import GasConfig, Ledger, write_ledger_csv
from stosszahl.scenarios import SCENARIO_CHECKS

SRC = str(Path(__file__).resolve().parent.parent / "src")
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


def test_run_config_that_is_not_utf8_exit_two(tmp_path, capsys):
    # a 0xff byte used to end in an internal UnicodeDecodeError, exit 3
    config = tmp_path / "run.cfg"
    config.write_bytes(b"[run]\nscenario = born-statistics\nseed = 1\n# \xff\n")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {config}: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err


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
         "born-statistics: the chi-square test needs two or more bins that expect 5 draws or more"),
        ("[run]\nscenario = two-state-relaxation\nseed = 1\n[two-state-relaxation]\nn_points = 0\n",
         "two-state-relaxation.n_points: must be >= 1"),
        ("[run]\nscenario = two-state-relaxation\nseed = 1\n[two-state-relaxation]\nrate_to_1 = -1\n",
         "two-state-relaxation.rate_to_1: must be >= 1e-300, got -1.0"),
        ("[run]\nscenario = two-state-relaxation\nseed = 1\n[two-state-relaxation]\nrate_to_2 = -0.5\n",
         "two-state-relaxation.rate_to_2: must be >= 1e-300, got -0.5"),
        ("[run]\nscenario = two-state-relaxation\nseed = 1\n[two-state-relaxation]\n"
         "rate_to_1 = 0\nrate_to_2 = 0\n",
         "two-state-relaxation.rate_to_1: must be >= 1e-300, got 0.0"),
        ("[run]\nscenario = two-state-relaxation\nseed = 1\n[two-state-relaxation]\nrate_to_1 = 0\n",
         "two-state-relaxation.rate_to_1: must be >= 1e-300, got 0.0"),
        ("[run]\nscenario = two-state-relaxation\nseed = 1\n[two-state-relaxation]\np1_initial = 1.5\n",
         "two-state-relaxation.p1_initial: must be <= 1, got 1.5"),
        ("[run]\nscenario = two-state-relaxation\nseed = 1\n[two-state-relaxation]\np1_initial = -0.5\n",
         "two-state-relaxation.p1_initial: must be >= 0, got -0.5"),
        ("[run]\nscenario = two-state-relaxation\nseed = 1\n[two-state-relaxation]\nt_max = -1\n",
         "two-state-relaxation.t_max: must be >= 0"),
        ("[run]\nscenario = gas-equilibrium\nseed = 1\n[gas-equilibrium]\nn_samples = 0\n",
         "gas-equilibrium.n_samples: must be >= 1"),
        ("[run]\nscenario = gas-equilibrium\nseed = 1\n[gas-equilibrium]\nn_samples = -1\n",
         "gas-equilibrium.n_samples: must be >= 1"),
        ("[run]\nscenario = born-statistics\nseed = 1\n[born-statistics]\n"
         "n_draws = 1000000000000\n",
         "born-statistics.n_draws: must be <= 1000000, got 1000000000000"),
        ("[run]\nscenario = two-state-relaxation\nseed = 1\n[two-state-relaxation]\n"
         "n_points = 1000000000000\n",
         "two-state-relaxation.n_points: must be <= 1000000, got 1000000000000"),
        ("[run]\nscenario = gas-equilibrium\nseed = 1\n[gas-equilibrium]\n"
         "n_samples = 1000000000000\n",
         "gas-equilibrium.n_samples: must be <= 1000000, got 1000000000000"),
        ("[run]\nscenario = gas-equilibrium\nseed = 1\n[gas-equilibrium]\n"
         "n_molecules = 1000000000000\nn_excited = 2\n",
         "gas-equilibrium.n_molecules: must be <= 4000"),
        ("[run]\nscenario = gas-equilibrium\nseed = 1\n[gas-equilibrium]\n"
         "n_seeds = 1000000\nn_samples = 1000000\n",
         "gas-equilibrium: n_seeds * (n_samples + len(check_times)) = 1000003000000 k samples, "
         "above the limit of 1e+07"),
    ],
    ids=["repeated-key", "repeated-section", "key-before-section", "nan-weight",
         "weights-off-one", "one-nonzero-weight", "no-grid-points", "negative-rate-to-1",
         "negative-rate-to-2", "both-rates-zero", "one-rate-zero", "p1-above-one",
         "p1-below-zero", "negative-t-max", "no-gas-samples", "negative-gas-samples",
         "born-draws-past-cap", "two-state-points-past-cap", "gas-samples-past-cap",
         "gas-molecules-past-cap", "gas-sample-table-past-cap"],
)
def test_unusable_config_exits_two(tmp_path, capsys, text, message):
    # these used to exit 3 (DuplicateOptionError, DuplicateSectionError,
    # MissingSectionHeaderError, the born weights' sum check, the two-state
    # rates, p1_initial and t_max, a negative gas n_samples, and a MemoryError
    # for each size past its cap) or to report a NaN p-value as a failed
    # check (exit 1) or two checks passed on an empty grid (exit 0) or blame
    # equilibration_time (gas n_samples = 0)
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


@pytest.mark.parametrize(
    "out, blocker, message",
    [
        ("taken", "taken", "cannot create the output directory ([Errno 17] File exists: '{out}')"),
        ("taken/sub", "taken", "cannot create the output directory ([Errno 20] Not a directory: '{out}')"),
        ("out", "out/born_statistics.csv/", "cannot write an output ([Errno 21] Is a directory: '{path}')"),
        ("out", "out/report.json/", "cannot write an output ([Errno 21] Is a directory: '{path}')"),
    ],
    ids=["out-is-a-file", "out-below-a-file", "csv-is-a-directory", "report-is-a-directory"],
)
def test_unwritable_output_location_exits_two(tmp_path, capsys, out, blocker, message):
    blocked = tmp_path / blocker
    if blocker.endswith("/"):
        blocked.mkdir(parents=True)
    else:
        blocked.touch()
    argv = ["run", "--config", str(CONFIGS / "born_statistics.cfg"), "--out", str(tmp_path / out)]
    assert main(argv) == 2
    expected = message.format(out=tmp_path / out, path=blocked)
    assert capsys.readouterr().err == f"config error: run.out: {expected}\n"


def test_audit_clean_ledger_exit_zero(tmp_path, capsys):
    gas_config = GasConfig(n_molecules=8, n_excited=4, decay_rate=1.0, t_max=10.0, seed=6)
    _bounds, events = seeded_run(gas_config)
    path = tmp_path / "ledger.csv"
    write_ledger_csv(path, events)
    assert main(["audit", "--ledger", str(path), "--n-molecules", "8"]) == 0
    assert "audit: PASS" in capsys.readouterr().out


def test_audit_tampered_ledger_exit_one(tmp_path, capsys):
    gas_config = GasConfig(n_molecules=8, n_excited=4, decay_rate=1.0, t_max=10.0, seed=6)
    _bounds, events = seeded_run(gas_config)
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


def audit_argv(tmp_path, entry, path, n_molecules=None):
    """argv of ``stosszahl audit`` or of a ``ledger-audit`` run writing to tmp_path/out."""
    if entry == "audit":
        argv = ["audit", "--ledger", str(path)]
        if n_molecules is not None:
            argv += ["--n-molecules", n_molecules]
        return argv
    text = f"[run]\nscenario = ledger-audit\nseed = 1\n[ledger-audit]\nledger = {path}\n"
    if n_molecules is not None:
        text += f"n_molecules = {n_molecules}\n"
    return ["run", "--config", str(write_config(tmp_path, text)), "--out", str(tmp_path / "out")]


@pytest.mark.parametrize("entry", ["audit", "ledger-audit"])
@pytest.mark.parametrize(
    ("n_molecules", "n_excited", "messages"),
    [
        # every id out of range: one violation per id, exit 1, before the check
        ("0", 4, {"audit": "error: n_molecules must be >= 1, got 0",
                  "ledger-audit": "config error: ledger-audit.n_molecules: must be >= 1, got 0"}),
        ("-5", 4, {"audit": "error: n_molecules must be >= 1, got -5",
                   "ledger-audit": "config error: ledger-audit.n_molecules: must be >= 1, got -5"}),
        ("-3", 4, {"audit": "error: n_molecules must be >= 1, got -3",
                   "ledger-audit": "config error: ledger-audit.n_molecules: must be >= 1, got -3"}),
        # a header-only ledger audited PASS over 0 events
        (None, 0, {"audit": "error: {path}: the ledger holds no events to audit",
                   "ledger-audit": "config error: ledger-audit: {path}: the ledger holds no events to audit"}),
    ],
    ids=["n-molecules-0", "n-molecules-minus-5", "n-molecules-minus-3", "header-only-ledger"],
)
def test_audit_input_that_checks_nothing_exits_two(tmp_path, capsys, entry, n_molecules, n_excited, messages):
    gas_config = GasConfig(n_molecules=8, n_excited=n_excited, decay_rate=1.0, t_max=10.0, seed=6)
    path = tmp_path / "ledger.csv"
    write_ledger_csv(path, seeded_run(gas_config)[1])
    assert main(audit_argv(tmp_path, entry, path, n_molecules)) == 2
    assert capsys.readouterr().err == messages[entry].format(path=path) + "\n"


@pytest.fixture(scope="module")
def committed_member0_rows(tmp_path_factory):
    """Header and rows of the member-0 ledger that configs/gas_equilibrium.cfg writes."""
    out = tmp_path_factory.mktemp("committed")
    config = str(CONFIGS / "gas_equilibrium.cfg")
    assert main(["run", "--config", config, "--out", str(out), "--no-header-timestamp"]) == 0
    return read_csv(out / "gas_ledger_member0.csv")


def with_size(rows, row, size):
    """Ledger data rows with the confirmation set size of one row replaced."""
    edited = [list(line) for line in rows]
    edited[row][6] = str(size)
    return edited


def with_ids_swapped(rows, a, b):
    """Ledger data rows with molecule ids a and b swapped on every row."""
    swap = {str(a): str(b), str(b): str(a)}
    return [line[:3] + [swap.get(m, m) for m in line[3:5]] + line[5:] for line in rows]


@pytest.mark.parametrize("entry", ["audit", "ledger-audit"])
@pytest.mark.parametrize(
    ("edit", "n_molecules", "code", "count", "violation"),
    [
        (lambda rows: rows, "100", 0, 0, None),
        # edits of the committed ledger that the run audit would flag
        (lambda rows: with_size(rows, 10, 7), "100", 1, 1,
         "event 10: confirmation set size 7 != 50 ground molecules"),
        # the layout comes from the size most rows give, so row 0 is blamed alone
        (lambda rows: with_size(rows, 0, 7), "100", 1, 1,
         "event 0: confirmation set size 7 != 50 ground molecules"),
        # two rows that give two sizes once each: the smaller size sets the layout
        (lambda rows: with_size(rows[:2], 0, 51), "100", 1, 1,
         "event 0: confirmation set size 51 != 50 ground molecules"),
        (lambda rows: with_ids_swapped(rows, 0, 99), "100", 1, 2,
         "molecule 99 emits first but was not initially excited"),
        # a wrong molecule count moves the layout n = N - 50
        (lambda rows: rows, "99", 1, 58, "molecule 49 emits first but was not initially excited"),
        (lambda rows: rows, "101", 1, 1, "molecule 50 absorbs first but was initially excited"),
    ],
    ids=[
        "committed",
        "one-size-50-to-7",
        "row-0-size-50-to-7",
        "size-tie-51-and-50",
        "ids-0-and-99-swapped",
        "n-molecules-99",
        "n-molecules-101",
    ],
)
def test_file_audit_checks_sizes_and_the_initial_layout(
    tmp_path, capsys, committed_member0_rows, entry, edit, n_molecules, code, count, violation
):
    path = tmp_path / "ledger.csv"
    write_csv(path, committed_member0_rows[0], edit(committed_member0_rows[1:]))
    assert main(audit_argv(tmp_path, entry, path, n_molecules)) == code
    out = capsys.readouterr().out
    if entry == "audit":
        assert out.count("violation: ") == count
        assert ("audit: PASS" if code == 0 else f"violation: {violation}\n") in out
    else:
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["passed"] == (code == 0)
        measured = report["checks"][0]["measured"]
        assert measured.startswith(f"{count} violations in ")
        if count == 1:
            assert measured.endswith(f": {violation}")


@pytest.mark.parametrize("entry", ["audit", "ledger-audit"])
@pytest.mark.parametrize(
    "edit",
    [lambda rows: rows[:10] + rows[11:], lambda rows: rows[:10] + [rows[11], rows[10]] + rows[12:]],
    ids=["row-10-deleted", "rows-10-and-11-swapped"],
)
def test_file_audit_rejects_an_event_index_that_does_not_number_the_rows(
    tmp_path, capsys, committed_member0_rows, entry, edit
):
    # a format check on outside input: exit 2, as for an unreadable file
    path = tmp_path / "ledger.csv"
    write_csv(path, committed_member0_rows[0], edit(committed_member0_rows[1:]))
    assert main(audit_argv(tmp_path, entry, path, "100")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:" if entry == "ledger-audit" else "error:")
    assert "row 10 has event_index 11; event_index must number the rows from 0" in err


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


def test_cli_import_leaves_numpy_random_and_scipy_out():
    # the start-up a CLI user pays: numpy.random costs ~17 ms to load and is
    # imported by the first call that builds a generator, scipy.linalg by the
    # first master-equation solve; scipy.stats once cost most of the start-up
    # for one chi-square call, and scipy.special 0.38 s for its tail
    probe = (
        "import sys, stosszahl.cli\n"
        "print(any(name.split('.')[:2] == ['numpy', 'random'] for name in sys.modules))\n"
        "print(any(name.split('.')[0] == 'scipy' for name in sys.modules))\n"
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
        "print(code, 'scipy.linalg' in sys.modules, 'scipy' in sys.modules)\n"
    )
    # the commands without a master-equation solve load no scipy module at all
    assert run_probe(probe)[-3:] == ["0", str(loads_linalg), str(loads_linalg)]


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
        ("gas-equilibrium", "t_max = 1e6\n",
         "min(n_seeds, 256) * n_excited * decay_rate * t_max = 12800000000"),
        ("unitary-vs-collapse", "collapse_rate = 1e3\nt_max = 1e6\n",
         "min(n_seeds, 256) * collapse_rate * t_max = 256000000000"),
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


@pytest.mark.parametrize(
    "scenario, params, message",
    [
        # at the defaults this sat exactly on the old per-member cap of 1e6
        # collapses: 500 members x 1e6 collapses would run for hours
        ("unitary-vs-collapse", "t_max = 1e6\n",
         "min(n_seeds, 256) * collapse_rate * t_max = 256000000 expected events in one batch, "
         "above the limit of 1e+07"),
        # 1e6 transactions per member, 1e5 members, inside the sample table
        ("gas-equilibrium", "t_max = 2e4\nn_seeds = 100000\nn_samples = 10\n",
         "min(n_seeds, 256) * n_excited * decay_rate * t_max = 256000000 expected events in one batch, "
         "above the limit of 1e+07"),
        # 1e4 transactions per member, small batches, but 1e9 transactions in all
        ("gas-equilibrium", "t_max = 200\nn_seeds = 100000\nn_samples = 10\n",
         "estimated stepping time = 1250 s, above the limit of 600"),
        # 1e8 transactions cost more with more molecules, and more with a coupling
        # table, which is not read before the bound
        ("gas-equilibrium", "n_molecules = 4000\nt_max = 20\nn_seeds = 100000\nn_samples = 10\n",
         "estimated stepping time = 1100 s, above the limit of 600"),
        ("gas-equilibrium",
         "n_molecules = 1000\nt_max = 20\nn_seeds = 100000\nn_samples = 10\ncoupling_table = missing.csv\n",
         "estimated stepping time = 900 s, above the limit of 600"),
        # 100 collapses per member, 1e6 members
        ("unitary-vs-collapse", "t_max = 100\nn_seeds = 1000000\n",
         "estimated stepping time = 1320 s, above the limit of 600"),
        # 1e6 members of 1e6 samples each
        ("unitary-vs-collapse", "t_max = 1e-3\nn_seeds = 1000000\nn_samples = 1000000\n",
         "estimated stepping time = 50000 s, above the limit of 600"),
        # one member of 1e6 collapses, inside the batch and time bounds: its
        # state drifted off unit trace and the run exited 3 after ~1 minute
        ("unitary-vs-collapse", "t_max = 1e6\nn_seeds = 1\n",
         "collapse_rate * t_max = 1000000 expected collapses per member, above the limit of 250000"),
    ],
    ids=["collapse-batch", "gas-batch", "gas-time", "gas-4000-molecules-time", "gas-coupled-time",
         "collapse-time", "collapse-samples", "collapse-member"],
)
def test_runaway_run_exits_two_before_any_member_is_stepped(tmp_path, monkeypatch, capsys, scenario, params, message):
    def stepped(*_args):
        raise AssertionError("a member was stepped")

    monkeypatch.setattr(scenarios, "_collapse_members", stepped)
    monkeypatch.setattr(scenarios.gas_mod, "run", stepped)
    config = write_config(tmp_path, f"[run]\nscenario = {scenario}\nseed = 1\n[{scenario}]\n{params}")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {scenario}: {message}\n"


def benchmark_ensemble_configs():
    """The config texts of the benchmark's ensemble workloads (perfbench/run.py)."""
    spec = importlib.util.spec_from_file_location("perfbench_run", CONFIGS.parent / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    # gas-coupled adds a coupling table to the gas-uniform config, which is read after the bound
    return [
        bench.GAS_CONFIG.format(seed=1, members=bench.GAS_MEMBERS),
        bench.COLLAPSE_CONFIG.format(seed=1, members=bench.COLLAPSE_MEMBERS),
    ]


# Runs of seconds to minutes that the bound must leave alone: 1.25e7
# transactions (~10 s), 5e6 transactions, 1.5e6 collapses (~15 s), 5e6
# transactions of 4000 molecules (~1 minute), 1e8 of 1000 molecules with
# uniform weights (~5 minutes) and one member at the per-member collapse limit.
RATE_LO, RATE_HI = 1e-300, 1e4
TWO_STATE_CONFIGS = [
    # these exited 3: the unit sum of p(t), a non-finite p(t), the absolute
    # equilibrium residual, or a support violation of the relative entropy
    ({"rate_to_1": 1e6}, 2),
    ({"rate_to_1": 1e300, "rate_to_2": 1e300}, 2),
    ({"rate_to_1": 5e-324}, 2),
    ({"rate_to_1": 1e300}, 2),
    ({"rate_to_2": 1e300}, 2),
    ({"t_max": 1e300}, 2),
    ({"rate_to_1": 1e7}, 2),
    ({"rate_to_1": 1e8}, 2),
    ({"rate_to_1": 1e10}, 2),
    ({"t_max": 1e7}, 2),
    ({"rate_to_1": 1e6, "rate_to_2": 1e6, "t_max": 1e-12}, 2),
    ({"rate_to_1": 1e-307}, 2),
    # these passed, some by luck, and lie outside the declared space now
    ({"rate_to_1": 1e5}, 2),
    ({"t_max": 1e6}, 2),
    ({"rate_to_1": 1e20}, 2),
    ({"rate_to_1": 1e8, "rate_to_2": 1e8}, 2),
    # each declared edge, and the next float outside it
    ({"rate_to_1": RATE_LO}, 0),
    ({"rate_to_1": RATE_LO, "rate_to_2": RATE_LO}, 0),
    ({"rate_to_2": RATE_LO, "rate_to_1": RATE_HI}, 0),
    ({"rate_to_1": RATE_LO, "rate_to_2": RATE_HI}, 0),
    ({"rate_to_1": float(np.nextafter(RATE_LO, 0.0))}, 2),
    ({"rate_to_2": float(np.nextafter(RATE_LO, 0.0))}, 2),
    ({"rate_to_1": RATE_HI, "rate_to_2": RATE_HI, "t_max": 0.0}, 0),
    ({"rate_to_1": float(np.nextafter(RATE_HI, math.inf)), "t_max": 0.0}, 2),
    ({"rate_to_2": float(np.nextafter(RATE_HI, math.inf)), "t_max": 0.0}, 2),
    # (rate_to_1 + rate_to_2) * t_max at its limit of 1e5, and past it
    ({"rate_to_1": RATE_HI, "rate_to_2": RATE_HI, "t_max": 5.0}, 0),
    ({"rate_to_1": RATE_HI, "rate_to_2": RATE_HI, "t_max": float(np.nextafter(5.0, math.inf))}, 2),
    ({"t_max": 5e4}, 0),
    ({"t_max": float(np.nextafter(5e4, math.inf))}, 2),
    ({"rate_to_1": RATE_LO, "rate_to_2": RATE_LO, "t_max": 1e304}, 0),
    ({"rate_to_1": RATE_LO, "rate_to_2": RATE_LO, "t_max": 1.7976931348623157e308}, 2),
]


@pytest.mark.parametrize("p1_initial", [0.0, 0.5, 1.0])
@pytest.mark.parametrize(
    "values, expected", TWO_STATE_CONFIGS,
    ids=[",".join(f"{key}={value!r}" for key, value in values.items()) for values, _ in TWO_STATE_CONFIGS],
)
def test_two_state_configs_exit_zero_or_two(tmp_path, capsys, values, expected, p1_initial):
    text = "[run]\nscenario = two-state-relaxation\nseed = 1\n[two-state-relaxation]\n" + "".join(
        f"{key} = {value!r}\n" for key, value in {**values, "p1_initial": p1_initial}.items()
    )
    code = main(["run", "--config", str(write_config(tmp_path, text)), "--out", str(tmp_path / "out"),
                 "--no-header-timestamp"])
    err = capsys.readouterr().err
    assert code == expected, err


MODERATE_ENSEMBLE_CONFIGS = [
    "[run]\nscenario = gas-equilibrium\nseed = 1\n[gas-equilibrium]\nt_max = 500\n",
    "[run]\nscenario = gas-equilibrium\nseed = 1\n[gas-equilibrium]\nn_seeds = 2000\n",
    "[run]\nscenario = unitary-vs-collapse\nseed = 1\n[unitary-vs-collapse]\nt_max = 3000\n",
    "[run]\nscenario = gas-equilibrium\nseed = 1\n[gas-equilibrium]\n"
    "n_molecules = 4000\nn_excited = 2000\nt_max = 25\nn_seeds = 100\nequilibration_time = 10\n",
    "[run]\nscenario = gas-equilibrium\nseed = 1\n[gas-equilibrium]\n"
    "n_molecules = 1000\nt_max = 20\nn_seeds = 100000\nn_samples = 10\nequilibration_time = 10\n",
    "[run]\nscenario = unitary-vs-collapse\nseed = 1\n[unitary-vs-collapse]\nt_max = 2.5e5\nn_seeds = 1\n",
]


@pytest.mark.parametrize(
    "config_text",
    [(CONFIGS / name).read_text() for name in ("gas_equilibrium.cfg", "unitary_vs_collapse.cfg")]
    + benchmark_ensemble_configs() + MODERATE_ENSEMBLE_CONFIGS,
    ids=["committed-gas", "committed-collapse", "bench-gas", "bench-collapse",
         "gas-t-max-x10", "gas-seeds-x4", "collapse-t-max-3000", "gas-4000-molecules", "gas-1000-molecules",
         "collapse-lone-member"],
)
def test_committed_and_benchmark_ensembles_are_within_the_work_bound(tmp_path, monkeypatch, config_text):
    # the bound is checked before any member is stepped; stop at the first step
    class Stepped(Exception):
        pass

    def stepped(*_args):
        raise Stepped

    monkeypatch.setattr(scenarios, "_collapse_members", stepped)
    monkeypatch.setattr(scenarios.gas_mod, "run", stepped)
    config = load_scenario_config(write_config(tmp_path, config_text), out_override=str(tmp_path / "out"))
    with pytest.raises(Stepped):
        scenarios.run_scenario(config)


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
        (scenarios, "apply_unitary", "unitary branch final state"),
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
        ({"delay": "0"}, None, "gas-equilibrium.delay: must be > 0, got 0.0"),
        ({"n_excited": "12"}, None, "gas-equilibrium.n_excited: must lie in 1..n_molecules - 1"),
        ({"n_excited": "0"}, None, "gas-equilibrium.n_excited: must be >= 1, got 0"),
        ({"coupling_table": "missing.csv"}, None, "gas-equilibrium.coupling_table: cannot read"),
        ({}, ((3, 3), 1.0), "gas-equilibrium.coupling_table: "),
        ({}, (0, 0.0),
         "gas-equilibrium.coupling_table: coupling weights from emitter 0 to the confirmation set "
         "are all zero"),
        ({}, ((2, 7), math.nan),
         "gas-equilibrium.coupling_table: {table} has a non-finite entry"),
        ({"delay": "0.5", "t_max": "0.1", "equilibration_time": "0", "check_times": "0.1"}, None,
         "gas-equilibrium.t_max: no member records an event by t_max"),
        # t_e + 1e-13 rounds back to t_e from t_e ~ 1024 on; this used to run and
        # fail ledger_audits_clean with 595,394 violations (exit 1)
        ({"n_molecules": "4", "n_excited": "2", "t_max": "4000", "delay": "1e-13"}, None,
         "gas-equilibrium: delay 1e-13 must exceed half the float spacing"),
        # every weight is finite, but the kernel divided by an infinite row sum,
        # wrote every winner weight as 0 and failed ledger_audits_clean (exit 1)
        ({}, ((1, slice(2, 4)), 1e308),
         "gas-equilibrium: coupling weights and each emitter's sum of them must be finite"),
    ],
    ids=["zero-delay", "more-quanta-than-molecules", "no-quanta", "missing-table",
         "nonzero-diagonal", "zero-row", "nan-weight", "no-event-by-t-max",
         "delay-below-clock-spacing", "row-sum-overflows"],
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
    assert err.startswith("config error: " + message.format(table=tmp_path / "coupling.csv"))
    assert "internal error" not in err
