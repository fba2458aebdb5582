"""Committed sha256 digests of the outputs of two small gas-equilibrium runs.

The digests in ``data/gas_golden_digests.json`` pin the bytes of the ledger,
trajectory, ensemble-series and empirical-rates CSVs written under
``--no-header-timestamp``: any change to the random stream, the event kernel,
the rate estimator or a CSV writer moves them. One run uses uniform coupling,
the other a symmetric distance-decay coupling table, so both winner-selection
paths are pinned.
"""

import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from stosszahl.cli import main

DIGESTS = json.loads((Path(__file__).parent / "data" / "gas_golden_digests.json").read_text())

CONFIG = """\
[run]
scenario = gas-equilibrium
seed = 20260809

[gas-equilibrium]
n_molecules = 100
n_excited = 50
decay_rate = 1.0
t_max = 2.0
n_seeds = 100
n_samples = 21
equilibration_time = 2.0
check_times = 0.5, 1, 2
"""


def write_distance_coupling(path, n=100):
    """Symmetric table 1 / (1 + |i - j|) with a zero diagonal."""
    ids = np.arange(n)
    table = 1.0 / (1.0 + np.abs(ids[:, None] - ids[None, :]))
    np.fill_diagonal(table, 0.0)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"m{i}" for i in range(n)])
        writer.writerows([f"{x:.17g}" for x in row] for row in table)


@pytest.mark.parametrize("coupling", ["uniform", "coupled"])
def test_gas_outputs_match_committed_digests(tmp_path, coupling, capsys):
    text = CONFIG
    if coupling == "coupled":
        table = tmp_path / "coupling.csv"
        write_distance_coupling(table)
        text += f"coupling_table = {table}\n"
    config = tmp_path / "run.cfg"
    config.write_text(text)
    out = tmp_path / "out"
    code = main(["run", "--config", str(config), "--out", str(out), "--no-header-timestamp"])
    # 100 members are too few for the total-variation check to pass reliably,
    # so only the bytes are pinned, not the verdict.
    assert code in (0, 1)
    capsys.readouterr()
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in DIGESTS[coupling]
    }
    assert digests == DIGESTS[coupling]
