"""The unitary-vs-collapse scenario against its per-member reference.

The scenario steps its collapse members in lockstep: stacked evolution and
entropies, one ``decohere`` call per member and collapse. ``collapse_oracle``
runs the same ensemble one member and one collapse at a time. Over random
gaps, collapse rates, horizons, ensemble and grid sizes and seeds, the CSV
bytes and both check values must be bit-equal, and ``scenarios.decohere``
must be called exactly once per collapse: the benchmark counts collapse
events as calls of it. The scenario screens each block's final states
stacked and validates only the flagged ones; a member whose final state is
bad must fail the run with the error text of the member loop.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import collapse_oracle
from collapse_oracle import unitary_vs_collapse
from stosszahl import scenarios
from stosszahl.config import ScenarioConfig
from stosszahl.measurement import decohere
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
# 18 of the 20 members have no collapse, and in the next example none has one.
@example(gap=1.0, rate=1.0, t_max=0.5, n_unitary_steps=3, n_seeds=20, n_samples=5, seed=7)
@example(gap=1.0, rate=0.05, t_max=0.1, n_unitary_steps=3, n_seeds=3, n_samples=5, seed=7)
# 18 of the 40 members have more collapses than one block of clock uniforms
# holds (up to 15 against 8).
@example(gap=1.0, rate=2.0, t_max=4.0, n_unitary_steps=3, n_seeds=40, n_samples=17, seed=7)
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


def _last_pinching_input(params, seed, member):
    """The state the per-member loop pinches at ``member``'s last collapse."""
    rate, t_max = params["collapse_rate"], params["t_max"]
    counts = []
    for child in np.random.SeedSequence(seed).spawn(member + 1):
        rng = np.random.default_rng(child)
        counts.append(0)
        t = -math.log1p(-rng.random()) / rate
        while t <= t_max:
            counts[-1] += 1
            t += -math.log1p(-rng.random()) / rate
    assert counts[-1] > 0
    inputs = []

    def recorded(a, b):
        inputs.append(a.copy())
        return decohere(a, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(collapse_oracle, "decohere", recorded)
        unitary_vs_collapse(params, seed)
    return inputs[sum(counts) - 1]


def _non_hermitian(state, _basis):
    return state + np.array([[0.0, 1e-3], [0.0, 0.0]])


def _wrong_trace(state, _basis):
    return 1.5 * state


def _negative_eigenvalue(state, basis):
    # the pinched state is diagonal in the basis: shift its weights by -1.5 and +1.5
    down, up = (np.outer(basis[:, k], basis[:, k].conj()) for k in (0, 1))
    return state + 1.5 * (up - down)


@pytest.mark.parametrize("member", [37, 300], ids=["first-block", "second-block"])
@pytest.mark.parametrize("corrupt", [_non_hermitian, _wrong_trace, _negative_eigenvalue])
def test_bad_final_state_fails_as_in_the_member_loop(tmp_path, member, corrupt):
    # the scenario screens each block's final states stacked and validates only
    # the flagged ones; a member whose last pinching breaks the density-matrix
    # invariants must end the run with the member loop's error text
    params = {
        "gap": 1.0, "collapse_rate": 1.0, "t_max": 3.0,
        "n_unitary_steps": 3, "n_seeds": 320, "n_samples": 5,
    }
    target = _last_pinching_input(params, 11, member)

    def pinching(a, b):
        out = decohere(a, b)
        return corrupt(out, b) if np.array_equal(a, target) else out

    errors = []
    for module, run in (
        (collapse_oracle, lambda: unitary_vs_collapse(params, 11)),
        (scenarios, lambda: run_scenario(
            ScenarioConfig("unitary-vs-collapse", 11, tmp_path, params, write_timestamp=False)
        )),
    ):
        with pytest.MonkeyPatch.context() as patch, pytest.raises(ValueError) as info:
            patch.setattr(module, "decohere", pinching)
            run()
        errors.append(str(info.value))
    assert errors[0] == errors[1]
    assert errors[0].startswith(f"collapse member {member} final state")
