"""Committed sha256 digests of the outputs of three shipped default configs.

``data/default_golden_digests.json`` pins the CSV and ``report.json`` bytes of
``configs/two_state_relaxation.cfg``, ``configs/unitary_vs_collapse.cfg`` and
``configs/born_statistics.cfg`` at seed 20260809 under
``--no-header-timestamp``. A change to a random stream, a solver, a check
value or the CSV format moves them. The gas-equilibrium outputs are pinned by
``test_golden_gas.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from stosszahl.cli import main

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = json.loads((ROOT / "tests" / "data" / "default_golden_digests.json").read_text())


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_default_config_outputs_match_committed_digests(tmp_path, name, capsys):
    out = tmp_path / "out"
    config = ROOT / "configs" / f"{name}.cfg"
    argv = ["run", "--config", str(config), "--seed", "20260809", "--out", str(out)]
    assert main(argv + ["--no-header-timestamp"]) == 0
    capsys.readouterr()
    digests = {
        file: hashlib.sha256((out / file).read_bytes()).hexdigest() for file in DIGESTS[name]
    }
    assert digests == DIGESTS[name]
