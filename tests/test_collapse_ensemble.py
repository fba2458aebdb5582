"""The unitary-vs-collapse scenario against its per-member reference.

The scenario steps its collapse members in lockstep: stacked evolution and
entropies, one ``decohere`` call per member and collapse. ``collapse_oracle``
runs the same ensemble one member and one collapse at a time. Over random
gaps, collapse rates, horizons, ensemble and grid sizes and seeds, the CSV
bytes and both check values must be bit-equal, and ``scenarios.decohere``
must be called exactly once per collapse: the benchmark counts collapse
events as calls of it.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from collapse_oracle import unitary_vs_collapse
from stosszahl import scenarios
from stosszahl.config import ScenarioConfig
from stosszahl.csvio import write_csv
from stosszahl.scenarios import run_scenario

COLUMNS = ["t", "entropy_unitary", "mean_entropy_collapse"]


@settings(max_examples=30)
@given(
    gap=st.floats(min_value=0.01, max_value=5.0) | st.floats(min_value=-5.0, max_value=-0.01),
    rate=st.floats(min_value=0.05, max_value=5.0),
    t_max=st.floats(min_value=0.05, max_value=20.0),
    n_unitary_steps=st.integers(min_value=1, max_value=300),
    n_seeds=st.integers(min_value=1, max_value=300),
    n_samples=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# Every stacked call is split at 256 states: cross each split once.
@example(gap=1.0, rate=1.0, t_max=2.0, n_unitary_steps=257, n_seeds=257, n_samples=257, seed=7)
def test_lockstep_ensemble_equals_member_loop(
    gap, rate, t_max, n_unitary_steps, n_seeds, n_samples, seed
):
    assume(rate * t_max <= 8.0)
    params = {
        "gap": gap,
        "collapse_rate": rate,
        "t_max": t_max,
        "n_unitary_steps": n_unitary_steps,
        "n_seeds": n_seeds,
        "n_samples": n_samples,
    }
    rows, drift, final_mean, collapses = unitary_vs_collapse(params, seed)

    calls = []
    pinching = scenarios.decohere

    def counted(a, b):
        calls.append(a.shape)
        return pinching(a, b)

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenarios, "decohere", counted)
        out = Path(tmp)
        config = ScenarioConfig("unitary-vs-collapse", seed, out, params, write_timestamp=False)
        report = run_scenario(config)
        write_csv(out / "oracle.csv", COLUMNS, rows)
        assert (out / "unitary_vs_collapse.csv").read_bytes() == (out / "oracle.csv").read_bytes()

    assert [check.measured for check in report.checks] == [drift, final_mean]
    assert len(calls) == collapses
    assert set(calls) <= {(2, 2)}
