"""Registered experiment scenarios: thin compositions of the core modules.

Each scenario executes a fixed, versioned set of named checks and emits CSV
data files plus a machine-readable ``report.json``. Check thresholds are
pinned here as constants, not configurable, so a passing report means the
same thing in every run. Every CSV is written by
:func:`stosszahl.csvio.write_csv` with 17-significant-digit floats; the only
nondeterministic output line is the timestamp comment, one stamp per run,
which can be suppressed for byte-identical regression runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import gas as gas_mod
from . import master as master_mod
from .config import ConfigError, ScenarioConfig
from .csvio import fmt, write_csv
# The benchmark's call spans (perfbench/spans.py) wrap ``evolve_unitary``,
# ``decohere`` and ``vn_entropy`` as attributes of this module and count
# collapse events as calls to ``decohere``; so all three stay importable from
# here, and the collapse loop looks ``decohere`` up here on every collapse.
from .evolution import Propagator, evolve_unitary  # noqa: F401
from .measurement import as_measurement_basis, decohere, sample_outcome_counts
from .states import (
    as_density_matrix,
    as_probability_vector,
    density_from_pure,
    shannon_entropy,
    spectral_entropy,
    vn_entropy,
)

SCHEMA_VERSION = 1

# Pinned check thresholds.
CLOSED_FORM_TOL = 1e-8
EQUILIBRIUM_TOL = 1e-10
UNITARY_DRIFT_TOL = 1e-8
COLLAPSE_ENTROPY_FRACTION = 0.95
CHI_SQUARE_SIGNIFICANCE = 0.001
MEAN_K_TOL = 1.0
MACRO_ENTROPY_REL_TOL = 0.05
CROSS_PREDICTION_TV_TOL = 0.1

SCENARIO_CHECKS: dict[str, tuple[str, ...]] = {
    "two-state-relaxation": ("solver_matches_closed_form", "equilibrium_matches_rates"),
    "unitary-vs-collapse": ("unitary_entropy_drift", "collapse_entropy_reaches_threshold"),
    "born-statistics": ("chi_square_significance",),
    "gas-equilibrium": (
        "mean_left_count_in_band",
        "macro_entropy_near_max",
        "ledger_audits_clean",
        "master_equation_cross_prediction",
    ),
    "ledger-audit": ("ledger_invariants",),
}


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
    schema_version: int
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
            "schema_version": self.schema_version,
            "seed": self.seed,
            "passed": self.passed,
            "parameters": {k: _jsonable(v) for k, v in self.parameters.items()},
            "checks": [asdict(check) for check in self.checks],
            "outputs": self.outputs,
        }
        return json.dumps(payload, indent=2)


def _jsonable(value):
    if isinstance(value, (tuple, list)):
        return list(value)
    if isinstance(value, Path):
        return str(value)
    return value


def run_scenario(config: ScenarioConfig) -> RunReport:
    """Execute one registered scenario and write its outputs and report."""
    if config.scenario not in _SCENARIOS:
        raise ConfigError(f"run.scenario: unknown scenario {config.scenario!r}")
    config.out_dir.mkdir(parents=True, exist_ok=True)
    stamp = None
    if config.write_timestamp:
        stamp = f"generated {datetime.now(timezone.utc).isoformat()}"
    checks, outputs = _SCENARIOS[config.scenario](config, stamp)

    expected = SCENARIO_CHECKS[config.scenario]
    produced = tuple(check.name for check in checks)
    if produced != expected:
        raise RuntimeError(
            f"scenario {config.scenario} produced checks {produced}, registered {expected}"
        )

    report = RunReport(
        scenario=config.scenario,
        schema_version=SCHEMA_VERSION,
        seed=config.seed,
        parameters=dict(config.params),
        checks=list(checks),
        outputs=list(outputs),
    )
    report_path = config.out_dir / "report.json"
    report_path.write_text(report.to_json() + "\n")
    return report


# --- scenario 1: two-state relaxation ---------------------------------------

def _two_state_relaxation(config: ScenarioConfig, stamp: str | None):
    p = config.params
    if p["n_points"] < 1:
        raise ConfigError("two-state-relaxation.n_points: must be >= 1")
    rates = np.array([[0.0, p["rate_to_1"]], [p["rate_to_2"], 0.0]])
    m = master_mod.build_master_operator(rates)
    p0 = np.array([p["p1_initial"], 1.0 - p["p1_initial"]])
    grid = np.linspace(0.0, p["t_max"], p["n_points"])

    p_eq = master_mod.equilibrium(m)
    rows = []
    worst = 0.0
    for t in grid:
        p_solver = master_mod.evolve_probabilities(m, p0, float(t))
        p_closed = master_mod.two_state_closed_form(p["rate_to_1"], p["rate_to_2"], p0, float(t))
        worst = max(worst, float(np.max(np.abs(p_solver - p_closed))))
        rows.append(
            [
                fmt(t),
                fmt(p_solver[0]),
                fmt(p_solver[1]),
                fmt(shannon_entropy(p_solver)),
                fmt(master_mod.relative_entropy(p_solver, p_eq)),
            ]
        )

    total = p["rate_to_1"] + p["rate_to_2"]
    expected_eq = np.array([p["rate_to_1"] / total, p["rate_to_2"] / total])
    eq_gap = float(np.max(np.abs(p_eq - expected_eq)))

    out_file = config.out_dir / "two_state_relaxation.csv"
    write_csv(
        out_file,
        ["t", "p1", "p2", "shannon_entropy", "relative_entropy_to_equilibrium"],
        rows,
        stamp,
    )
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

def _unitary_vs_collapse(config: ScenarioConfig, stamp: str | None):
    p = config.params
    gap = p["gap"]
    rate = p["collapse_rate"]
    t_max = p["t_max"]
    if rate <= 0.0 or gap == 0.0 or t_max <= 0.0:
        raise ConfigError("unitary-vs-collapse: gap, collapse_rate and t_max must be nonzero")
    for key in ("n_unitary_steps", "n_seeds", "n_samples"):
        if p[key] < 1:
            raise ConfigError(f"unitary-vs-collapse.{key}: must be >= 1")

    # Everything is validated here once; the loops below step through the
    # unchecked kernels, and each final state is checked as a density matrix.
    unitary = Propagator(np.array([[gap / 2.0, 0.0], [0.0, -gap / 2.0]], dtype=complex))
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    rho0 = density_from_pure(plus)
    # Collapse basis deliberately non-commuting with the Hamiltonian.
    basis = as_measurement_basis(
        np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
    )

    # Branch A: pure Liouville evolution, entropy must stay put.
    entropy_0 = vn_entropy(rho0)  # validates rho0
    rho = rho0
    drift = 0.0
    dt = t_max / p["n_unitary_steps"]
    for _ in range(p["n_unitary_steps"]):
        rho = unitary.evolve(rho, dt)
        drift = max(drift, abs(spectral_entropy(rho) - entropy_0))
    as_density_matrix(rho, name="unitary branch final state")

    # Branch B: same Hamiltonian, interrupted by Poisson-clocked collapses.
    grid = np.linspace(0.0, t_max, p["n_samples"])
    mean_entropy = np.zeros(grid.size)
    children = np.random.SeedSequence(config.seed).spawn(p["n_seeds"])
    for member, child in enumerate(children):
        rng = np.random.default_rng(child)
        times = [0.0]
        entropies = [entropy_0]
        rho = rho0
        t = 0.0
        while True:
            t += -math.log1p(-rng.random()) / rate
            if t > t_max:
                break
            rho = decohere(unitary.evolve(rho, t - times[-1]), basis)
            times.append(t)
            entropies.append(spectral_entropy(rho))
        as_density_matrix(rho, name=f"collapse member {member} final state")
        idx = np.searchsorted(times, grid, side="right") - 1
        mean_entropy += np.asarray(entropies)[idx]
    mean_entropy /= p["n_seeds"]

    unitary_entropy = [spectral_entropy(unitary.evolve(rho0, float(t))) for t in grid]
    out_file = config.out_dir / "unitary_vs_collapse.csv"
    write_csv(
        out_file,
        ["t", "entropy_unitary", "mean_entropy_collapse"],
        [[fmt(t), fmt(su), fmt(sc)] for t, su, sc in zip(grid, unitary_entropy, mean_entropy)],
        stamp,
    )

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


# --- scenario 3: born statistics ---------------------------------------------

def _born_statistics(config: ScenarioConfig, stamp: str | None):
    p = config.params
    try:
        weights = as_probability_vector(p["weights"], name="weights")
    except ValueError as exc:
        raise ConfigError(f"born-statistics.weights: {exc}") from exc
    support = weights > 0.0
    if np.count_nonzero(support) < 2:
        raise ConfigError(
            "born-statistics.weights: the chi-square test needs two or more nonzero weights"
        )
    n_draws = p["n_draws"]
    if n_draws < 1:
        raise ConfigError("born-statistics.n_draws: must be >= 1")
    # Imported here: scipy.special is the only heavy import this scenario alone needs.
    from scipy.special import chdtrc

    rng = np.random.default_rng(config.seed)
    counts = sample_outcome_counts(weights, n_draws, rng)
    expected = weights * n_draws
    # Pearson's statistic and its chi-square tail with k - 1 degrees of freedom,
    # over the k outcomes of nonzero weight: a weight-0 outcome is never drawn.
    statistic = np.sum((counts[support] - expected[support]) ** 2 / expected[support])
    p_value = chdtrc(np.count_nonzero(support) - 1, statistic)

    out_file = config.out_dir / "born_statistics.csv"
    write_csv(
        out_file,
        ["outcome", "weight", "observed", "expected", "frequency"],
        [
            [k, fmt(weights[k]), int(counts[k]), fmt(expected[k]), fmt(counts[k] / n_draws)]
            for k in range(weights.size)
        ],
        stamp,
    )
    checks = [
        CheckResult(
            "chi_square_significance",
            bool(p_value >= CHI_SQUARE_SIGNIFICANCE),
            float(p_value),
            f"chi-square p-value >= {CHI_SQUARE_SIGNIFICANCE} "
            f"(statistic {statistic:.6g}, {n_draws} draws)",
        ),
    ]
    return checks, [out_file.name]


# --- scenario 4: gas equilibrium ---------------------------------------------

def _gas_equilibrium(config: ScenarioConfig, stamp: str | None):
    p = config.params
    if p["n_molecules"] % 2 != 0:
        raise ConfigError("gas-equilibrium.n_molecules: must be even for the k macrostate")
    if not 0 < p["n_excited"] < p["n_molecules"]:
        raise ConfigError(
            "gas-equilibrium.n_excited: must lie in 1..n_molecules - 1 for a transfer to form"
        )
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
    n_seeds = p["n_seeds"]
    if n_seeds < 100:
        raise ConfigError("gas-equilibrium.n_seeds: ensemble statistics need >= 100")
    check_times = np.asarray(p["check_times"], dtype=float)
    if np.any(check_times > gas_config.t_max) or np.any(check_times < 0.0):
        raise ConfigError("gas-equilibrium.check_times: must lie in [0, t_max]")

    grid = np.linspace(0.0, gas_config.t_max, p["n_samples"])
    queries = np.concatenate((grid, check_times))
    counts = np.empty((n_seeds, queries.size), dtype=int)
    # Rate tallies are pooled member by member, in member order (the float sums of
    # the dwell times depend on it); no per-member rate matrix is kept.
    pooled = None
    # With uniform coupling the kernel writes exactly 1 / (N - n) as every winner weight.
    uniform_weight = None
    if coupling is None:
        uniform_weight = 1.0 / (gas_config.n_molecules - gas_config.n_excited)
    violation_count = 0
    first_member = None
    done = 0

    batches = gas_mod.iter_ensemble(gas_config, n_seeds)
    try:
        for trajectories, ledger, bounds in batches:
            counts[done : done + len(trajectories)] = gas_mod.batch_left_counts(
                gas_config, ledger, bounds, queries
            )
            done += len(trajectories)
            audit = gas_mod.audit_ledger(
                ledger,
                n_molecules=gas_config.n_molecules,
                initial_excited=range(gas_config.n_excited),
                bounds=bounds,
            )
            violation_count += len(audit.violations)
            if uniform_weight is not None:
                violation_count += int(np.count_nonzero(ledger.winner_weight != uniform_weight))
            for part in gas_mod.empirical_rates(gas_config, ledger, bounds):
                if part is None:
                    continue
                if pooled is None:
                    pooled = gas_mod.EmpiricalRates(
                        part.transition_counts.copy(), part.dwell_times.copy()
                    )
                else:
                    pooled.transition_counts += part.transition_counts
                    pooled.dwell_times += part.dwell_times
            if first_member is None:
                first_member = (trajectories[0], ledger[bounds[0] : bounds[1]])
    except gas_mod.ZeroCouplingError as exc:
        raise ConfigError(f"gas-equilibrium.coupling_table: {exc}") from exc
    if pooled is None:
        raise ConfigError(
            "gas-equilibrium.t_max: no member records an event by t_max, "
            "so there are no rates to estimate"
        )
    counts_grid, counts_check = counts[:, : grid.size], counts[:, grid.size :]

    series = gas_mod.summarize_ensemble(gas_config, grid, counts_grid)

    # Equilibrium band checks on the late-time samples.
    late = grid >= p["equilibration_time"]
    if not np.any(late):
        raise ConfigError("gas-equilibrium.equilibration_time: beyond every sample time")
    target_k = gas_config.n_excited * (gas_config.n_molecules // 2) / gas_config.n_molecules
    mean_k_gap = float(np.max(np.abs(series.mean_left_count[late] - target_k)))

    entropy_max = gas_mod._entropy_table(gas_config.n_molecules, gas_config.n_excited)[1].max()
    entropy_gap = float(
        np.max(np.abs(series.mean_macro_entropy[late] - entropy_max)) / entropy_max
    )

    # Master-equation cross-prediction from the pooled empirical rates.
    m_hat = master_mod.build_master_operator(pooled.rates)
    n_labels = pooled.n_labels
    p0 = np.zeros(n_labels)
    # Molecules 0..n - 1 start excited, so k starts at min(n, N / 2).
    p0[min(gas_config.n_excited, gas_config.n_molecules // 2)] = 1.0
    tv_worst = 0.0
    for j, t in enumerate(check_times):
        predicted = master_mod.evolve_probabilities(m_hat, p0, float(t))
        empirical = np.bincount(counts_check[:, j], minlength=n_labels) / n_seeds
        tv_worst = max(tv_worst, 0.5 * float(np.abs(predicted - empirical).sum()))

    trajectory0, events0 = first_member
    ledger_file = config.out_dir / "gas_ledger_member0.csv"
    trajectory_file = config.out_dir / "gas_trajectory_member0.csv"
    series_file = config.out_dir / "gas_ensemble_series.csv"
    rates_file = config.out_dir / "gas_empirical_rates.csv"
    gas_mod.write_ledger_csv(ledger_file, events0, header_comment=stamp)
    gas_mod.write_trajectory_csv(trajectory_file, trajectory0, header_comment=stamp)
    write_csv(
        series_file,
        ["t", "k_distribution_entropy", "mean_macrostate_entropy", "mean_k"],
        [
            [fmt(t), fmt(s), fmt(sm), fmt(mk)]
            for t, s, sm, mk in zip(
                series.times, series.k_entropy, series.mean_macro_entropy, series.mean_left_count
            )
        ],
        stamp,
    )
    write_csv(
        rates_file,
        [f"k{j}" for j in range(n_labels)],
        [[fmt(x) for x in row] for row in pooled.rates],
        stamp,
    )

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

def _ledger_audit(config: ScenarioConfig, stamp: str | None):
    p = config.params
    try:
        rows = gas_mod.read_ledger_raw(p["ledger"])
    except OSError as exc:
        raise ConfigError(f"ledger-audit.ledger: cannot read ({exc})") from exc
    except ValueError as exc:
        raise ConfigError(f"ledger-audit.ledger: {exc}") from exc
    audit = gas_mod.audit_ledger(rows, n_molecules=p["n_molecules"])
    detail = "; ".join(audit.violations[:5])
    checks = [
        CheckResult(
            "ledger_invariants",
            audit.passed,
            f"{len(audit.violations)} violations in {audit.n_events} events"
            + (f": {detail}" if detail else ""),
            "conservation chain, t_e < t_a, ordered emissions, valid weights",
        ),
    ]
    return checks, []


_SCENARIOS = {
    "two-state-relaxation": _two_state_relaxation,
    "unitary-vs-collapse": _unitary_vs_collapse,
    "born-statistics": _born_statistics,
    "gas-equilibrium": _gas_equilibrium,
    "ledger-audit": _ledger_audit,
}


def list_scenarios() -> list[str]:
    return sorted(_SCENARIOS)
