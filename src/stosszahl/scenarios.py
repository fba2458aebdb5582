"""Registered experiment scenarios: thin compositions of the core modules.

Each scenario executes a fixed, versioned set of named checks and emits CSV
data files plus a machine-readable ``report.json``. Check thresholds are
pinned here as constants, not configurable, so a passing report means the
same thing in every run. A scenario passes raw numbers to
:func:`stosszahl.csvio.write_csv`, which formats the floats, and returns the
names of its outputs. The only nondeterministic output line is the timestamp
comment: :func:`run_scenario` makes one stamp per run and prepends it to each
output, unless ``write_timestamp`` is off for byte-identical regression runs.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import gas as gas_mod
from . import master as master_mod
from .config import ConfigError, ScenarioConfig, check_params
from .csvio import write_csv
# The benchmark's call spans (perfbench/spans.py) wrap ``evolve_unitary``,
# ``decohere`` and ``vn_entropy`` as attributes of this module and count
# collapse events as calls to ``decohere``; so all three stay importable from
# here, and the lockstep collapse ensemble looks ``decohere`` up here once per
# collapse, one member's state per call, even though it stacks the evolution
# and the entropies of the members.
from .evolution import Propagator, apply_unitary, evolve_unitary  # noqa: F401
from .measurement import as_measurement_basis, decohere, sample_outcome_counts, spawn_generators
from .states import (
    as_density_matrix,
    as_probability_vector,
    density_from_pure,
    suspect_density_matrices,
    vn_entropy,
)

SCHEMA_VERSION = 1

# Pinned check thresholds.
CLOSED_FORM_TOL = 1e-8
EQUILIBRIUM_TOL = 1e-10
UNITARY_DRIFT_TOL = 1e-8
COLLAPSE_ENTROPY_FRACTION = 0.95
CHI_SQUARE_SIGNIFICANCE = 0.001
# Cochran's rule: Pearson's statistic is trusted over bins that expect this many draws or more.
CHI_SQUARE_MIN_EXPECTED = 5.0
MEAN_K_TOL = 1.0
MACRO_ENTROPY_REL_TOL = 0.05
CROSS_PREDICTION_TV_TOL = 0.1

# Bounds on a run's work, checked before any member is stepped. A batch of
# members (256 at most: a gas.iter_ensemble batch or a collapse block of
# _STACK) holds all of their events at once. A gas batch peaks at ~100 B per
# transaction (80 to 97 B in tracemalloc, 39k and 1e6 events, either coupling),
# so near 1 GB at the limit.
MAX_BATCH_EVENTS = 1e7
# The run's stepping time is estimated from costs measured on a 2-core x86 VM
# and rounded up: a gas transaction takes 1 us plus, per molecule, 2.5 ns with
# uniform weights or 8 ns with a coupling table (0.9 to 1.4 us at 100
# molecules, 8.8 and 31 us at 4000); a collapse 13 us, plus 40 us for each
# lockstep step of its block and 0.05 us per member and sample time read.
MAX_RUN_SECONDS = 600.0
_GAS_US, _GAS_US_PER_MOLECULE, _GAS_US_PER_COUPLED_MOLECULE = 1.0, 0.0025, 0.008
_COLLAPSE_US, _COLLAPSE_STEP_US, _COLLAPSE_SAMPLE_US = 13.0, 40.0, 0.05
# The two-state solve breaks the unit sum of p(t) once (rate_to_1 + rate_to_2)
# * t_max reaches 1.1e6 (the least found in a sweep of rate splits and
# p1_initial at 0, 0.5 and 1).
_MAX_RELAXATION_TIMES = 1e5
# The gas-equilibrium ensemble holds one int64 k per member and sample time.
_MAX_GAS_SAMPLES = 10**7
# A collapse member's stepped state is never renormalized: its trace drifts by
# at most 3.78e-16 per collapse (measured at gap / collapse_rate from 1e-6 to
# 1e3, seeds 1-3), so lam + 7 sqrt(lam) collapses at a mean of lam = 2.5e5 stay
# within NORM_TOL = 1e-10. A closed form of each member's state would keep no
# state to drift, and no need for this bound.
_MAX_MEMBER_COLLAPSES = 2.5e5

# The phases +-(gap / 2) * t of the qubit's U(t) overflow, and its states turn
# NaN, once their difference |gap| * t passes 3.6e308 (twice the largest double).
_MAX_RELATIVE_PHASE = 1e307

# The most states one stacked numpy call of unitary-vs-collapse takes: a
# block of collapse members or of the sample grid.
_STACK = 256
# Uniforms a collapse member draws from its generator at a time.
_CLOCK_DRAWS = 8

@dataclass(frozen=True)
class CheckResult:
    """One named pass/fail verdict with the measured value and requirement."""

    name: str
    passed: bool
    measured: float | str
    requirement: str


@dataclass
class RunReport:
    """Machine-readable outcome of one scenario run."""

    scenario: str
    seed: int
    parameters: dict
    checks: list[CheckResult]
    outputs: list[str]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_json(self) -> str:
        payload = {
            "scenario": self.scenario,
            "schema_version": SCHEMA_VERSION,
            "seed": self.seed,
            "passed": self.passed,
            "parameters": self.parameters,
            "checks": [asdict(check) for check in self.checks],
            "outputs": self.outputs,
        }
        return json.dumps(payload, indent=2)


def run_scenario(config: ScenarioConfig) -> RunReport:
    """Execute one registered scenario and write its outputs and report.

    An output location that cannot be written is unusable input: an OSError
    from creating ``out_dir``, or one on a path in ``out_dir`` while the run
    writes, becomes a ConfigError that names the path.
    """
    if config.scenario not in _SCENARIOS:
        raise ConfigError(f"run.scenario: unknown scenario {config.scenario!r}")
    check_params(config.scenario, config.params)
    try:
        config.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"run.out: cannot create the output directory ({exc})") from exc
    run, expected = _SCENARIOS[config.scenario]
    try:
        checks, outputs = run(config)
        produced = tuple(check.name for check in checks)
        if produced != expected:
            raise RuntimeError(
                f"scenario {config.scenario} produced checks {produced}, registered {expected}"
            )

        if config.write_timestamp:
            # The one stamp of the run; bytes, as the rows end in \r\n.
            stamp = f"# generated {datetime.now(timezone.utc).isoformat()}\n".encode()
            for name in outputs:
                path = config.out_dir / name
                path.write_bytes(stamp + path.read_bytes())

        report = RunReport(
            scenario=config.scenario,
            seed=config.seed,
            parameters=dict(config.params),
            checks=list(checks),
            outputs=list(outputs),
        )
        (config.out_dir / "report.json").write_text(report.to_json() + "\n")
    except OSError as exc:
        if exc.filename is None or Path(exc.filename).parent != config.out_dir:
            raise
        raise ConfigError(f"run.out: cannot write an output ({exc})") from exc
    return report


def _require_at_most(scenario: str, product: str, value: float, what: str, limit: float) -> None:
    """Reject a run whose ``product`` of its keys (or estimate from them), ``value``, is above ``limit``."""
    if value > limit:
        raise ConfigError(f"{scenario}: {product} = {value:.15g} {what}, above the limit of {limit:g}")


# --- scenario 1: two-state relaxation ---------------------------------------

def _two_state_relaxation(config: ScenarioConfig):
    p = config.params
    total = p["rate_to_1"] + p["rate_to_2"]
    _require_at_most("two-state-relaxation", "(rate_to_1 + rate_to_2) * t_max", total * p["t_max"],
                     "relaxation times", _MAX_RELAXATION_TIMES)
    rates = np.array([[0.0, p["rate_to_1"]], [p["rate_to_2"], 0.0]])
    m = master_mod.build_master_operator(rates)
    p0 = np.array([p["p1_initial"], 1.0 - p["p1_initial"]])
    grid = np.linspace(0.0, p["t_max"], p["n_points"])

    p_eq = master_mod.equilibrium(m)
    p_solver = master_mod.evolve_probabilities(m, p0, grid)
    p_closed = master_mod.two_state_closed_form(p["rate_to_1"], p["rate_to_2"], p0, grid)
    worst = float(np.max(np.abs(p_solver - p_closed), initial=0.0))
    # (t, Shannon entropy, relative entropy to p_eq) of each grid point.
    series = master_mod._entropy_records(grid, p_solver, p_eq)

    expected_eq = np.array([p["rate_to_1"] / total, p["rate_to_2"] / total])
    eq_gap = float(np.max(np.abs(p_eq - expected_eq)))

    out_file = config.out_dir / "two_state_relaxation.csv"
    rows = ((t, *p_t, entropy, divergence) for (t, entropy, divergence), p_t in zip(series, p_solver))
    write_csv(out_file, ["t", "p1", "p2", "shannon_entropy", "relative_entropy_to_equilibrium"], rows)
    checks = [
        CheckResult(
            "solver_matches_closed_form",
            worst <= CLOSED_FORM_TOL,
            worst,
            f"max |p_solver - p_closed| <= {CLOSED_FORM_TOL:g} on the grid",
        ),
        CheckResult(
            "equilibrium_matches_rates",
            eq_gap <= EQUILIBRIUM_TOL,
            eq_gap,
            f"max |p_eq - rates ratio| <= {EQUILIBRIUM_TOL:g}",
        ),
    ]
    return checks, [out_file.name]


# --- scenario 2: unitary vs collapse -----------------------------------------

def _unitary_vs_collapse(config: ScenarioConfig):
    p = config.params
    gap = p["gap"]
    rate = p["collapse_rate"]
    t_max = p["t_max"]
    n_seeds, collapses = p["n_seeds"], rate * t_max
    _require_at_most("unitary-vs-collapse", f"min(n_seeds, {_STACK}) * collapse_rate * t_max",
                     min(n_seeds, _STACK) * collapses, "expected events in one batch", MAX_BATCH_EVENTS)
    us = n_seeds * (collapses * _COLLAPSE_US + p["n_samples"] * _COLLAPSE_SAMPLE_US)
    us += -(-n_seeds // _STACK) * collapses * _COLLAPSE_STEP_US
    _require_at_most("unitary-vs-collapse", "estimated stepping time", round(us / 1e6), "s", MAX_RUN_SECONDS)
    _require_at_most("unitary-vs-collapse", "collapse_rate * t_max", collapses,
                     "expected collapses per member", _MAX_MEMBER_COLLAPSES)
    _require_at_most("unitary-vs-collapse", "|gap| * t_max", abs(gap) * t_max,
                     "radians of relative phase", _MAX_RELATIVE_PHASE)

    # Everything is validated here once; the loops below step through the
    # unchecked kernels, and each final state is checked as a density matrix.
    unitary = Propagator(np.array([[gap / 2.0, 0.0], [0.0, -gap / 2.0]], dtype=complex))
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    rho0 = density_from_pure(plus)
    # Collapse basis deliberately non-commuting with the Hamiltonian.
    basis = as_measurement_basis(
        np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
    )

    # Branch A: pure Liouville evolution, entropy must stay put. Each step
    # starts from the last, so the states are stepped one by one, by one
    # U(dt) formed once, and only their entropies are stacked.
    entropy_0 = vn_entropy(rho0)  # validates rho0
    rho = rho0
    dt = t_max / p["n_unitary_steps"]
    u = unitary.unitary(dt)
    u_dagger = u.conj().swapaxes(-1, -2)
    steps = np.empty((p["n_unitary_steps"], 2, 2), dtype=complex)
    for i in range(steps.shape[0]):
        rho = apply_unitary(u, u_dagger, rho)
        steps[i] = rho
    as_density_matrix(rho, name="unitary branch final state")
    drift = float(np.max(np.abs(_qubit_entropies(steps) - entropy_0)))

    # Branch B: same Hamiltonian, interrupted by Poisson-clocked collapses.
    grid = np.linspace(0.0, t_max, p["n_samples"])
    mean_entropy = np.zeros(grid.size)
    for first in range(0, p["n_seeds"], _STACK):
        block = spawn_generators(config.seed, first, min(first + _STACK, p["n_seeds"]))
        clock, entropies, states = _collapse_members(
            unitary, basis, rho0, entropy_0, rate, t_max, block
        )
        for row in suspect_density_matrices(states):
            as_density_matrix(states[row], name=f"collapse member {first + row} final state")
        # The mean runs in member order, as the float sums need; the inf
        # that pads a member's times lies past every grid point.
        for row in range(len(block)):
            idx = np.searchsorted(clock[row], grid, side="right") - 1
            mean_entropy += entropies[row][idx]
    mean_entropy /= p["n_seeds"]

    unitary_entropy = np.concatenate(
        [
            _qubit_entropies(unitary.evolve(rho0, grid[first : first + _STACK]))
            for first in range(0, grid.size, _STACK)
        ]
    )
    out_file = config.out_dir / "unitary_vs_collapse.csv"
    columns = ["t", "entropy_unitary", "mean_entropy_collapse"]
    write_csv(out_file, columns, zip(grid, unitary_entropy, mean_entropy))

    target = COLLAPSE_ENTROPY_FRACTION * math.log(2.0)
    final_mean = float(mean_entropy[-1])
    checks = [
        CheckResult(
            "unitary_entropy_drift",
            drift < UNITARY_DRIFT_TOL,
            drift,
            f"max |S(t) - S(0)| < {UNITARY_DRIFT_TOL:g} over {p['n_unitary_steps']} steps",
        ),
        CheckResult(
            "collapse_entropy_reaches_threshold",
            final_mean >= target,
            final_mean,
            f"ensemble-mean S at t = {t_max:g} >= {COLLAPSE_ENTROPY_FRACTION} * ln 2",
        ),
    ]
    return checks, [out_file.name]


def _collapse_members(unitary, basis, rho0, entropy_0, rate, t_max, rngs):
    """Run one collapse member per generator in ``rngs``, in lockstep.

    Each member draws its Poisson collapse times from its own generator
    first. The members are then ordered by descending collapse count, so
    the members that have a collapse j are a prefix of the rows, and step j
    is one stacked evolution of that prefix, one ``decohere`` call per
    member (the benchmark counts collapses as calls of this module's
    ``decohere``) and one stacked entropy. Returns, one row per member in
    member order, its times (0.0, its collapse times, then inf), the entropy
    after each of its collapses (after entropy_0), and its final state.
    """
    times = [_collapse_times(rng, rate, t_max) for rng in rngs]
    order = np.argsort([-len(member) for member in times], kind="stable")
    steps = np.array([len(times[member]) for member in order])
    clock = np.full((order.size, steps[0] + 1), np.inf)
    clock[:, 0] = 0.0
    for row, member in enumerate(order):
        clock[row, 1 : steps[row] + 1] = times[member]
    entropies = np.empty_like(clock)
    entropies[:, 0] = entropy_0
    states = np.broadcast_to(rho0, (order.size, 2, 2)).copy()
    for j in range(steps[0]):
        live = int(np.count_nonzero(steps > j))
        evolved = unitary.evolve(states[:live], clock[:live, j + 1] - clock[:live, j])
        for row in range(live):
            states[row] = decohere(evolved[row], basis)
        entropies[:live, j + 1] = _qubit_entropies(states[:live])
    rows = np.argsort(order)
    return clock[rows], entropies[rows], states[rows]


def _collapse_times(rng, rate: float, t_max: float) -> list[float]:
    """Poisson-clocked collapse times up to ``t_max``, one uniform per gap.

    ``Generator.random(k)`` yields the same doubles as k scalar draws, and
    the caller discards ``rng`` afterwards, so unused uniforms change nothing.
    """
    times = []
    t = 0.0
    while True:
        for u in rng.random(_CLOCK_DRAWS).tolist():
            t += -math.log1p(-u) / rate
            if t > t_max:
                return times
            times.append(t)


def _qubit_entropies(states: np.ndarray) -> np.ndarray:
    """:func:`stosszahl.states.vn_entropy`, unvalidated, of each 2 x 2 matrix of a stack, bit for bit.

    Clamped eigenvalues are kept as zeros whose x ln x term is 0 rather than
    dropped. The row sums then equal the sums over the positive eigenvalues
    alone only because numpy adds fewer than 8 terms in order; for larger
    matrices its pairwise summation would regroup them.
    """
    eigenvalues = np.linalg.eigh(states)[0]
    x = np.sort(np.where(eigenvalues > 0.0, eigenvalues, 0.0), axis=-1)
    return -np.sum(x * np.log(np.where(x > 0.0, x, 1.0)), axis=-1)


# --- scenario 3: born statistics ---------------------------------------------

def _chi_square_tail(dof: int, x: float) -> float:
    """P(X >= x) for X chi-square with a positive integer dof: Q(dof / 2, x / 2).

    Q(a + 1, y) = Q(a, y) + y^a e^-y / Gamma(a + 1) from Q(1/2, y) = erfc(sqrt(y))
    or Q(0, y) = 0; each term is the exp of its logarithm, so e^-y cannot underflow alone.
    """
    y = x / 2.0
    if y <= 0.0:
        return 1.0
    exponents = [dof % 2 / 2.0 + i for i in range(dof // 2)]
    terms = [math.exp(a * math.log(y) - y - math.lgamma(a + 1.0)) for a in exponents]
    return math.fsum([math.erfc(math.sqrt(y)) if dof % 2 else 0.0, *terms])


def _chi_square(expected: np.ndarray, observed: np.ndarray) -> tuple[float, float]:
    """(Pearson's statistic, its chi-square tail) over the bins left by merging outcomes.

    The bin of the smallest expected count (the lower outcome's on a tie) merges into
    the next smallest until each expects ``CHI_SQUARE_MIN_EXPECTED`` draws or more; the
    k bins left give k - 1 degrees of freedom. Raises ValueError if one bin is left.
    """
    bins = list(zip(expected.tolist(), range(expected.size), observed.tolist()))
    heapq.heapify(bins)
    while len(bins) > 1 and bins[0][0] < CHI_SQUARE_MIN_EXPECTED:
        smallest, _outcome, smallest_count = heapq.heappop(bins)
        expect, into, count = heapq.heappop(bins)
        heapq.heappush(bins, (expect + smallest, into, count + smallest_count))
    if len(bins) < 2:
        raise ValueError(
            f"the chi-square test needs two or more bins that expect {CHI_SQUARE_MIN_EXPECTED:g} "
            "draws or more, and the expected counts merge into one"
        )
    e, _outcomes, o = (np.array(column) for column in zip(*sorted(bins, key=lambda b: b[1])))
    statistic = float(np.sum((o - e) ** 2 / e))
    return statistic, _chi_square_tail(e.size - 1, statistic)


def _born_statistics(config: ScenarioConfig):
    p = config.params
    try:
        weights = as_probability_vector(p["weights"], name="weights")
    except ValueError as exc:
        raise ConfigError(f"born-statistics.weights: {exc}") from exc
    n_draws = p["n_draws"]
    rng = np.random.default_rng(config.seed)
    counts = sample_outcome_counts(weights, n_draws, rng)
    expected = weights * n_draws
    try:
        statistic, p_value = _chi_square(expected, counts)
    except ValueError as exc:
        raise ConfigError(f"born-statistics: {exc}") from exc

    out_file = config.out_dir / "born_statistics.csv"
    columns = ["outcome", "weight", "observed", "expected", "frequency"]
    write_csv(out_file, columns, zip(range(weights.size), weights, counts, expected, counts / n_draws))
    checks = [
        CheckResult(
            "chi_square_significance",
            p_value >= CHI_SQUARE_SIGNIFICANCE,
            p_value,
            f"chi-square p-value >= {CHI_SQUARE_SIGNIFICANCE} "
            f"(statistic {statistic:.6g}, {n_draws} draws)",
        ),
    ]
    return checks, [out_file.name]


# --- scenario 4: gas equilibrium ---------------------------------------------

def _gas_equilibrium(config: ScenarioConfig):
    p = config.params
    if p["n_excited"] >= p["n_molecules"]:
        raise ConfigError(
            "gas-equilibrium.n_excited: must lie in 1..n_molecules - 1 for a transfer to form"
        )
    n_seeds = p["n_seeds"]
    _require_at_most("gas-equilibrium", "n_seeds * (n_samples + len(check_times))",
                     n_seeds * (p["n_samples"] + len(p["check_times"])), "k samples", _MAX_GAS_SAMPLES)
    transactions, batch = p["n_excited"] * p["decay_rate"] * p["t_max"], gas_mod._MEMBERS_PER_RUN
    _require_at_most("gas-equilibrium", f"min(n_seeds, {batch}) * n_excited * decay_rate * t_max",
                     min(n_seeds, batch) * transactions, "expected events in one batch", MAX_BATCH_EVENTS)
    per_molecule = _GAS_US_PER_COUPLED_MOLECULE if p["coupling_table"] else _GAS_US_PER_MOLECULE
    us = n_seeds * transactions * (_GAS_US + p["n_molecules"] * per_molecule)
    _require_at_most("gas-equilibrium", "estimated stepping time", round(us / 1e6), "s", MAX_RUN_SECONDS)
    coupling = None
    if p["coupling_table"]:
        try:
            _labels, coupling = master_mod.rate_matrix_from_csv(p["coupling_table"])
        except OSError as exc:
            raise ConfigError(f"gas-equilibrium.coupling_table: cannot read ({exc})") from exc
        except ValueError as exc:
            raise ConfigError(f"gas-equilibrium.coupling_table: {exc}") from exc
    try:
        gas_config = gas_mod.GasConfig(
            n_molecules=p["n_molecules"],
            n_excited=p["n_excited"],
            decay_rate=p["decay_rate"],
            t_max=p["t_max"],
            seed=config.seed,
            delay=p["delay"],
            coupling=coupling,
        )
    except ValueError as exc:
        raise ConfigError(f"gas-equilibrium: {exc}") from exc
    check_times = np.asarray(p["check_times"], dtype=float)
    if np.any(check_times > gas_config.t_max):
        raise ConfigError("gas-equilibrium.check_times: must lie in [0, t_max]")
    grid = np.linspace(0.0, gas_config.t_max, p["n_samples"])
    # The equilibrium band checks read the late-time samples.
    late = grid >= p["equilibration_time"]
    if not np.any(late):
        raise ConfigError("gas-equilibrium.equilibration_time: beyond every sample time")

    queries = np.concatenate((grid, check_times))
    counts = np.empty((n_seeds, queries.size), dtype=int)
    pooled = None
    # With uniform coupling the kernel writes exactly 1 / (N - n) as every winner weight.
    uniform_weight = None
    if coupling is None:
        uniform_weight = 1.0 / (gas_config.n_molecules - gas_config.n_excited)
    violation_count = 0
    n_events = 0
    events0 = None
    done = 0

    batches = gas_mod.iter_ensemble(gas_config, n_seeds)
    try:
        for bounds, ledger in batches:
            counts[done : done + bounds.size - 1] = gas_mod.batch_left_counts(
                gas_config, ledger, bounds, queries
            )
            done += bounds.size - 1
            audit = gas_mod.audit_ledger(
                ledger,
                n_molecules=gas_config.n_molecules,
                n_excited=gas_config.n_excited,
                bounds=bounds,
            )
            violation_count += len(audit.violations)
            if uniform_weight is not None:
                violation_count += int(np.count_nonzero(ledger.winner_weight != uniform_weight))
            n_events += len(ledger)
            pooled = gas_mod.empirical_rates(gas_config, ledger, bounds, pooled)
            if events0 is None:
                events0 = ledger[bounds[0] : bounds[1]]
            # Free this batch before the next one is stepped.
            del ledger, bounds, audit
    except gas_mod.ZeroCouplingError as exc:
        raise ConfigError(f"gas-equilibrium.coupling_table: {exc}") from exc
    if not n_events:
        raise ConfigError(
            "gas-equilibrium.t_max: no member records an event by t_max, "
            "so there are no rates to estimate"
        )
    counts_grid, counts_check = counts[:, : grid.size], counts[:, grid.size :]

    series = gas_mod.summarize_ensemble(gas_config, counts_grid)

    target_k = gas_config.n_excited * (gas_config.n_molecules // 2) / gas_config.n_molecules
    mean_k_gap = float(np.max(np.abs(series.mean_left_count[late] - target_k)))

    entropy_max = gas_mod._entropy_table(gas_config.n_molecules, gas_config.n_excited)[1].max()
    entropy_gap = float(
        np.max(np.abs(series.mean_macro_entropy[late] - entropy_max)) / entropy_max
    )

    # Master-equation cross-prediction from the pooled empirical rates.
    m_hat = master_mod.build_master_operator(pooled.rates)
    n_labels = pooled.n_labels
    # The prediction starts from the k distribution the ensemble sampled at grid[0] = 0.
    p0 = np.bincount(counts_grid[:, 0], minlength=n_labels) / n_seeds
    predicted = master_mod.evolve_probabilities(m_hat, p0, check_times)
    empirical = np.stack([np.bincount(k, minlength=n_labels) for k in counts_check.T]) / n_seeds
    tv_worst = float(np.max(0.5 * np.abs(predicted - empirical).sum(axis=1), initial=0.0))

    ledger_file = config.out_dir / "gas_ledger_member0.csv"
    trajectory_file = config.out_dir / "gas_trajectory_member0.csv"
    series_file = config.out_dir / "gas_ensemble_series.csv"
    rates_file = config.out_dir / "gas_empirical_rates.csv"
    gas_mod.write_ledger_csv(ledger_file, events0)
    gas_mod.write_trajectory_csv(trajectory_file, gas_config, events0)
    write_csv(
        series_file,
        ["t", "k_distribution_entropy", "mean_macrostate_entropy", "mean_k"],
        zip(grid, series.k_entropy, series.mean_macro_entropy, series.mean_left_count),
    )
    write_csv(rates_file, [f"k{j}" for j in range(n_labels)], pooled.rates)

    checks = [
        CheckResult(
            "mean_left_count_in_band",
            mean_k_gap <= MEAN_K_TOL,
            mean_k_gap,
            f"|mean k - {target_k:g}| <= {MEAN_K_TOL:g} at t >= {p['equilibration_time']:g}",
        ),
        CheckResult(
            "macro_entropy_near_max",
            entropy_gap <= MACRO_ENTROPY_REL_TOL,
            entropy_gap,
            f"mean macrostate entropy within {MACRO_ENTROPY_REL_TOL:.0%} of the scan maximum",
        ),
        CheckResult(
            "ledger_audits_clean",
            violation_count == 0,
            float(violation_count),
            "zero invariant violations across every member ledger",
        ),
        CheckResult(
            "master_equation_cross_prediction",
            tv_worst <= CROSS_PREDICTION_TV_TOL,
            tv_worst,
            f"total variation <= {CROSS_PREDICTION_TV_TOL:g} at t in "
            f"{{{', '.join(f'{t:g}' for t in check_times)}}}",
        ),
    ]
    outputs = [ledger_file.name, trajectory_file.name, series_file.name, rates_file.name]
    return checks, outputs


# --- scenario 5: ledger audit --------------------------------------------------

def _ledger_audit(config: ScenarioConfig):
    p = config.params
    try:
        audit = gas_mod.audit_ledger_file(p["ledger"], p["n_molecules"])
    except OSError as exc:
        raise ConfigError(f"ledger-audit.ledger: cannot read ({exc})") from exc
    except ValueError as exc:
        raise ConfigError(f"ledger-audit: {exc}") from exc
    detail = "; ".join(audit.violations[:5])
    checks = [
        CheckResult(
            "ledger_invariants",
            audit.passed,
            f"{len(audit.violations)} violations in {audit.n_events} events"
            + (f": {detail}" if detail else ""),
            "conservation chain, t_e < t_a, ordered emissions, valid weights; with n_molecules, "
            "ids in range, every confirmation set size N - n and first roles matching "
            "molecules 0..n - 1 excited",
        ),
    ]
    return checks, []


# Each scenario's function and the names of its checks, in report order.
_SCENARIOS = {
    "two-state-relaxation": (
        _two_state_relaxation, ("solver_matches_closed_form", "equilibrium_matches_rates"),
    ),
    "unitary-vs-collapse": (
        _unitary_vs_collapse, ("unitary_entropy_drift", "collapse_entropy_reaches_threshold"),
    ),
    "born-statistics": (_born_statistics, ("chi_square_significance",)),
    "gas-equilibrium": (_gas_equilibrium, (
        "mean_left_count_in_band",
        "macro_entropy_near_max",
        "ledger_audits_clean",
        "master_equation_cross_prediction",
    )),
    "ledger-audit": (_ledger_audit, ("ledger_invariants",)),
}
# The registered check names alone, as the tests read them.
SCENARIO_CHECKS = {name: checks for name, (_run, checks) in _SCENARIOS.items()}


def list_scenarios() -> list[str]:
    return sorted(_SCENARIOS)
