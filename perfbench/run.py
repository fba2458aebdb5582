#!/usr/bin/env python3
"""Closed-loop benchmark of stosszahl, run from the root of a checkout.

    python3 perfbench/run.py --workload gas-uniform --seed 20260809 --seconds 15 --trace 0

The inputs of the workload (config file, coupling table, generators) are made
from --seed alone in a scratch directory under perfbench/.work, which is
removed at the end. One caller then runs the workload again and again in a
single process, each run starting after the previous one ends, until
--seconds have passed. Every run is checked: the CLI exit code and the
scenario checks in report.json, the invariants of dense-relax, and the sha256
of every output against perfbench/digests.json (for a recorded seed) or
against the first run. A run that raises or fails a check counts as failed
and the loop goes on.

The table printed before the last line gives each metric with its unit and
sample count. The last line is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1, where untraced and traced runs alternate.

--record-digests stores the digests of the first run for this workload and
seed in perfbench/digests.json, replacing any recorded before, when no run
failed in the program or its checks.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
WORKER = BENCH_DIR / "worker.py"
DIGESTS = BENCH_DIR / "digests.json"

# Fresh processes that only import stosszahl.cli; the workload process adds
# one more set-up sample.
SETUP_PROBES = 4
PROCESS_TIMEOUT_S = 150.0
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

GAS_MEMBERS = 1000
GAS_CONFIG = """\
[run]
scenario = gas-equilibrium
seed = {seed}

[gas-equilibrium]
n_molecules = 100
n_excited = 50
decay_rate = 1.0
t_max = 3.0
n_seeds = {members}
n_samples = 51
equilibration_time = 2.5
check_times = 1, 2, 3
delay = 1e-12
"""

COLLAPSE_MEMBERS = 500
COLLAPSE_CONFIG = """\
[run]
scenario = unitary-vs-collapse
seed = {seed}

[unitary-vs-collapse]
gap = 1.0
collapse_rate = 1.0
t_max = 20.0
n_unitary_steps = 1000
n_seeds = {members}
n_samples = 81
"""

DENSE_SPEC = {
    "generators": 8,
    "states": 51,
    "master_points": 200,
    "master_t_max": 1.0,
    "dimension": 64,
    "members": 16,
    "collapses": 10,
    "t_max": 10.0,
    "samples": 41,
}

WORKLOADS = ("gas-uniform", "gas-coupled", "collapse-qubit", "dense-relax")

PER_LAYER_CALLS = (
    "measurement.collapse_sample",
    "measurement.decohere",
    "evolution.evolve_unitary",
    "states.vn_entropy",
    "master.evolve_probabilities",
)


def write_rate_csv(path: Path, matrix: np.ndarray, prefix: str) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"{prefix}{i}" for i in range(matrix.shape[0])])
        writer.writerows([f"{x:.17g}" for x in row] for row in matrix)


def make_inputs(workload: str, seed: int, work: Path) -> int:
    """Write the workload's inputs into ``work``; returns its ensemble members."""
    # Input streams are keyed apart from the seed the program itself uses.
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload.startswith("gas-"):
        config = GAS_CONFIG.format(seed=seed, members=GAS_MEMBERS)
        if workload == "gas-coupled":
            # Symmetric, so rows-as-sources and rows-as-targets read the same.
            raw = rng.uniform(0.5, 1.5, size=(100, 100))
            coupling = (raw + raw.T) / 2.0
            np.fill_diagonal(coupling, 0.0)
            write_rate_csv(work / "coupling.csv", coupling, "m")
            config += "coupling_table = coupling.csv\n"
        (work / "workload.cfg").write_text(config)
        return GAS_MEMBERS
    if workload == "collapse-qubit":
        config = COLLAPSE_CONFIG.format(seed=seed, members=COLLAPSE_MEMBERS)
        (work / "workload.cfg").write_text(config)
        return COLLAPSE_MEMBERS

    spec = dict(DENSE_SPEC, seed=seed)
    for i in range(spec["generators"]):
        rates = rng.uniform(0.0, 1.0, size=(spec["states"], spec["states"]))
        np.fill_diagonal(rates, 0.0)
        write_rate_csv(work / f"rates_{i}.csv", rates, "k")
    d = spec["dimension"]
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    np.save(work / "hamiltonian.npy", (a + a.conj().T) / 2.0)
    basis, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    np.save(work / "basis.npy", basis)
    (work / "dense.json").write_text(json.dumps(spec))
    return spec["generators"] + spec["members"]


def spawn(args: list[str], cwd: Path, env: dict) -> tuple[float, subprocess.CompletedProcess]:
    """Run one child to completion; returns its start time and outcome."""
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=PROCESS_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"workload process exited {done.returncode}: {done.stderr[-2000:]}")
    return started, done


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_state(root: Path) -> dict:
    sources = sorted((root / "src" / "stosszahl").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def end_to_end(setup: list[float], runs: list[dict], members: int, rss_kb: int) -> dict:
    ok = [run for run in runs if run["error"] is None] or runs
    walls = [run["wall_s"] for run in ok]
    return {
        "setup_s": (setup, "s"),
        "wall_s": (walls, "s"),
        "events_per_s": ([run["events"] / run["wall_s"] for run in ok], "events/s"),
        "members_per_s": ([members / run["wall_s"] for run in ok], "members/s"),
        "peak_rss_mb": ([rss_kb / 1024.0], "MB"),
        "failed_ratio": ([sum(run["error"] is not None for run in runs) / len(runs)], "1"),
    }


def per_layer(spans: dict, runs: list[dict]) -> dict:
    traced = [run["wall_s"] for run in runs if run["traced"]]
    untraced = [run["wall_s"] for run in runs if not run["traced"]]
    n = len(traced)

    def stat(name: str) -> list:
        return spans.get(name, [0, 0.0, 0.0, 0])

    def per(total: float, count: float) -> float:
        return 1e6 * total / count if count else 0.0

    events = stat("gas.run")[3]
    metrics = {
        "gas.run.events": ([events / n], "count"),
        "gas.run.self_us_per_event": ([per(stat("gas.run")[2], events)], "us"),
        "gas.empirical_rates.us_per_event": ([per(stat("gas.empirical_rates")[1], events)], "us"),
        "gas.audit_ledger.us_per_event": ([per(stat("gas.audit_ledger")[1], events)], "us"),
        "gas.write_csv_s": ([stat("gas.write_csv")[1] / n], "s"),
    }
    for name in PER_LAYER_CALLS:
        calls, total = stat(name)[:2]
        metrics[f"{name}.calls"] = ([calls / n], "count")
        metrics[f"{name}.us_per_call"] = ([per(total, calls)], "us")
    for name in ("master.expm", "master.equilibrium"):
        metrics[f"{name}.us_per_call"] = ([per(stat(name)[1], stat(name)[0])], "us")
    series = stat("master.entropy_series")
    metrics["master.entropy_series.us_per_point"] = ([per(series[1], series[3])], "us")
    metrics["scenarios.run_scenario.self_s"] = ([stat("scenarios.run_scenario")[2] / n], "s")
    metrics["trace.overhead_ratio"] = (
        [statistics.median(traced) / statistics.median(untraced) - 1.0],
        "1",
    )
    # Self times partition the time inside spans, so their sum over the
    # traced wall time is the share of it that the layers account for.
    metrics["trace.accounted_ratio"] = (
        [sum(s[2] for s in spans.values()) / sum(traced)],
        "1",
    )
    return metrics


def check_digests(workload: str, seed: int, runs: list[dict], env: dict) -> str:
    """Mark runs whose outputs differ from the reference; returns the reference used."""
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    reference = recorded.get("workloads", {}).get(workload, {}).get(str(seed))
    if reference is not None and recorded["environment"] != env:
        differs = sorted(k for k in env if recorded["environment"].get(k) != env[k])
        source = f"first run (recorded digests are for another environment: {differs})"
        reference = None
    elif reference is not None:
        source = "perfbench/digests.json"
    else:
        source = "first run (no digests recorded for this seed)"
    for run in runs:
        if run["error"] is not None:
            continue
        if reference is None:
            reference = run["digests"]
        if run["digests"] != reference:
            changed = sorted(
                name for name in reference.keys() | run["digests"].keys()
                if reference.get(name) != run["digests"].get(name)
            )
            run["error"] = f"output digests differ from {source}: {changed}"
    return source


def record_digests(workload: str, seed: int, runs: list[dict], env: dict) -> None:
    if any(run["error"] is not None for run in runs):
        sys.exit("not recording digests: a run failed")
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    if recorded.get("environment", env) != env:
        sys.exit("not recording digests: the recorded ones are for another environment")
    recorded["environment"] = env
    recorded.setdefault("workloads", {}).setdefault(workload, {})[str(seed)] = runs[0]["digests"]
    DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()

    root = Path.cwd().resolve()
    if not (root / "src" / "stosszahl" / "cli.py").is_file():
        print(f"error: {root} holds no src/stosszahl to benchmark", file=sys.stderr)
        return 2

    (BENCH_DIR / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=BENCH_DIR / ".work"))
    try:
        members = make_inputs(args.workload, args.seed, work)
        env = dict(os.environ, **BLAS_THREADS)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
        )
        setup = []
        for _ in range(SETUP_PROBES):
            started, done = spawn(["--probe"], work, env)
            setup.append(float(done.stdout) - started)
        started, _ = spawn(
            ["--workload", args.workload, "--seconds", str(args.seconds), "--trace", str(args.trace)],
            work,
            env,
        )
        result = json.loads((work / "result.json").read_text())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not Path(result["stosszahl_file"]).resolve().is_relative_to(root / "src"):
        print(f"error: imported {result['stosszahl_file']}, not this checkout", file=sys.stderr)
        return 2
    setup.append(result["imported_at"] - started)
    runs = result["runs"]
    fingerprint = dict(result["environment"], cpu=cpu_model())
    fingerprint.pop("blas_threads")
    if args.record_digests:
        record_digests(args.workload, args.seed, runs, fingerprint)
    digest_source = check_digests(args.workload, args.seed, runs, fingerprint)

    if args.trace:
        metrics = per_layer(result["spans"], runs)
    else:
        metrics = end_to_end(setup, runs, members, result["peak_rss_kb"])
    failed = [run for run in runs if run["error"] is not None]

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(
        "environment",
        json.dumps(
            dict(
                result["environment"],
                nproc=os.cpu_count(),
                cpu=fingerprint["cpu"],
                seed=args.seed,
                **source_state(root),
            )
        ),
    )
    print(f"output digests checked against {digest_source}")
    for run in failed:
        print(f"failed run: {run['error']}")
    for name, (values, unit) in metrics.items():
        q1, q3 = quartiles(values)
        print(
            f"{name:<40} {statistics.median(values):>14.6g} {unit:<10}"
            f" n={len(values):<3} q1={q1:.6g} q3={q3:.6g}"
        )
    if args.trace:
        print("spans (summed over traced runs): name calls inclusive_s self_s work")
        for name, (calls, total, own, work_count) in sorted(result["spans"].items()):
            print(f"  {name:<36} {calls:>9} {total:>10.4f} {own:>10.4f} {work_count:>9}")
    metrics.pop("failed_ratio", None)
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(runs),
                "failed": len(failed),
                "metrics": {
                    name: {"value": statistics.median(values), "unit": unit}
                    for name, (values, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
