"""Workload process of the stosszahl benchmark; run.py starts it.

``import stosszahl.cli`` comes first, so the moment it returns marks the end
of set-up as a user of the CLI would pay it. With ``--probe`` the process
prints that moment and exits. Otherwise it runs one workload from the inputs
in the current directory in a closed loop until ``--seconds`` have passed and
writes ``result.json``: per-run wall time, failure reason and output digests,
the call spans of traced runs, peak memory and the library versions.
"""

import time

import stosszahl.cli as cli

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from spans import COUNT_POINTS, Tracer  # noqa: E402
from stosszahl import evolution, master, measurement, states  # noqa: E402

OUT = Path("out")
# Round-off allowed when checking that an entropy series is monotone.
MONOTONE_TOL = 1e-9


def run_cli_scenario() -> str | None:
    """One ``stosszahl run`` of workload.cfg; returns why it failed, if it did."""
    captured = io.StringIO()
    with redirect_stdout(captured), redirect_stderr(captured):
        code = cli.main(
            ["run", "--config", "workload.cfg", "--out", str(OUT), "--no-header-timestamp"]
        )
    if code != 0:
        return f"exit code {code}: {captured.getvalue().strip()}"
    report = json.loads((OUT / "report.json").read_text())
    missing = [name for name in report["outputs"] if not (OUT / name).is_file()]
    if not report["passed"] or missing:
        return f"report passed={report['passed']}, missing outputs {missing}"
    return None


def run_dense_relax() -> str | None:
    """Master part, then the d = 64 Poisson-collapse ensemble, from dense.json."""
    spec = json.loads(Path("dense.json").read_text())
    problems = []

    grid = np.linspace(0.0, spec["master_t_max"], spec["master_points"])
    equilibria = []
    for i in range(spec["generators"]):
        _labels, rates = master.rate_matrix_from_csv(f"rates_{i}.csv")
        generator = master.build_master_operator(rates)
        p0 = np.zeros(generator.shape[0])
        p0[0] = 1.0
        equilibria.append(master.equilibrium(generator))
        series = master.entropy_series(generator, p0, grid)
        master.entropy_series_to_csv(OUT / f"master_series_{i}.csv", series)
        relative = np.array([record[2] for record in series])
        if np.any(np.diff(relative) > MONOTONE_TOL):
            problems.append(f"generator {i}: relative entropy to equilibrium rose")

    np.savetxt(OUT / "master_equilibria.csv", equilibria, fmt="%.17g", delimiter=",")

    hamiltonian = np.load("hamiltonian.npy")
    basis = np.load("basis.npy")
    t_max = spec["t_max"]
    rho0 = states.density_from_pure(np.eye(hamiltonian.shape[0])[0])
    s0 = states.vn_entropy(rho0)
    sample_times = np.linspace(0.0, t_max, spec["samples"])
    mean_entropy = np.zeros(sample_times.size)
    for member, child in enumerate(np.random.SeedSequence(spec["seed"]).spawn(spec["members"])):
        rng = np.random.default_rng(child)
        times, entropies, rho = [0.0], [s0], rho0
        # A Poisson process conditioned on its count: uniform times, so every
        # seed does the same number of collapses and the same work.
        for t in np.sort(rng.uniform(0.0, t_max, spec["collapses"])).tolist():
            rho = measurement.decohere(
                evolution.evolve_unitary(rho, hamiltonian, t - times[-1]), basis
            )
            times.append(t)
            entropies.append(states.vn_entropy(rho))
        if np.any(np.diff(entropies) < -MONOTONE_TOL):
            problems.append(f"member {member}: entropy fell across a collapse")
        mean_entropy += np.asarray(entropies)[np.searchsorted(times, sample_times, "right") - 1]
    mean_entropy /= spec["members"]
    np.savetxt(
        OUT / "collapse_mean_entropy.csv",
        np.column_stack([sample_times, mean_entropy]),
        fmt="%.17g",
        delimiter=",",
        header="t,mean_entropy",
        comments="",
    )
    return "; ".join(problems) or None


def output_digests() -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(OUT.iterdir())
    }


def run_once(workload: str, traced: bool) -> tuple[dict, Tracer]:
    """Run the workload once from a clean output directory and check it."""
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir()
    tracer = Tracer() if traced else Tracer(COUNT_POINTS, timed=False)
    body = run_dense_relax if workload == "dense-relax" else run_cli_scenario
    with tracer:
        start = time.perf_counter()
        try:
            error = body()
        except Exception as exc:  # a program failure is counted, never fatal
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
    # Ledger events on the gas workloads, collapse events on the others.
    events = tracer.stats["gas.run"][3] or tracer.stats["measurement.decohere"][0]
    record = {
        "wall_s": wall,
        "traced": traced,
        "error": error,
        "events": events,
        "digests": output_digests() if error is None else {},
    }
    return record, tracer


def environment() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.probe:
        print(repr(IMPORTED_AT))
        return

    runs = []
    spans: dict[str, list] = {}
    start = time.monotonic()
    # With tracing, untraced and traced runs alternate so both see the same
    # machine state; the traced ones give the spans, the pair the overhead.
    while True:
        traced = bool(args.trace) and len(runs) % 2 == 1
        record, tracer = run_once(args.workload, traced)
        runs.append(record)
        if traced:
            for name, stat in tracer.stats.items():
                total = spans.setdefault(name, [0, 0.0, 0.0, 0])
                for k, value in enumerate(stat):
                    total[k] += value
        if time.monotonic() - start >= args.seconds and len(runs) >= 1 + args.trace:
            break

    Path("result.json").write_text(
        json.dumps(
            {
                "imported_at": IMPORTED_AT,
                "stosszahl_file": cli.__file__,
                "runs": runs,
                "spans": spans,
                "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "environment": environment(),
            }
        )
    )


if __name__ == "__main__":
    main()
