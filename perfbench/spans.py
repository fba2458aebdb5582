"""Call spans around the stosszahl functions the workloads reach.

Each wrapper is installed at the module attribute that its caller looks up at
call time, so the package itself is not modified: ``gas.run`` is found by
``iter_ensemble`` through the ``gas`` module, ``scenarios`` binds
``evolve_unitary``, ``decohere`` and ``vn_entropy`` at import (so patching
``stosszahl.evolution`` alone would miss those calls), and ``cli`` binds
``run_scenario`` the same way.

Spans are not kept one by one: each named span folds into running totals of
calls, inclusive time, self time (inclusive time minus the time of the
wrapped calls made inside it) and a work count, all held in memory until the
workload process writes them out at its end.
"""

from __future__ import annotations

import importlib
import time


def _ledger_events(_args, result) -> int:
    return len(result[1])


def _series_points(_args, result) -> int:
    return len(result)


# (module, attribute, span name, work count taken from (args, result)).
# Two attributes that reach the same library function share one span name.
TRACE_POINTS = (
    ("stosszahl.cli", "run_scenario", "scenarios.run_scenario", None),
    ("stosszahl.gas", "run", "gas.run", _ledger_events),
    ("stosszahl.gas", "collapse_sample", "measurement.collapse_sample", None),
    ("stosszahl.gas", "audit_ledger", "gas.audit_ledger", None),
    ("stosszahl.gas", "empirical_rates", "gas.empirical_rates", None),
    ("stosszahl.gas", "write_ledger_csv", "gas.write_csv", None),
    ("stosszahl.gas", "write_trajectory_csv", "gas.write_csv", None),
    ("stosszahl.scenarios", "evolve_unitary", "evolution.evolve_unitary", None),
    ("stosszahl.scenarios", "decohere", "measurement.decohere", None),
    ("stosszahl.scenarios", "vn_entropy", "states.vn_entropy", None),
    ("stosszahl.master", "expm", "master.expm", None),
    ("stosszahl.master", "evolve_probabilities", "master.evolve_probabilities", None),
    ("stosszahl.master", "equilibrium", "master.equilibrium", None),
    ("stosszahl.master", "entropy_series", "master.entropy_series", _series_points),
    # The dense-relax workload calls the quantum layers through their own modules.
    ("stosszahl.evolution", "evolve_unitary", "evolution.evolve_unitary", None),
    ("stosszahl.measurement", "decohere", "measurement.decohere", None),
    ("stosszahl.states", "vn_entropy", "states.vn_entropy", None),
)

# The counters an untraced run keeps: ledger events and collapse events.
COUNT_POINTS = tuple(
    point for point in TRACE_POINTS if point[2] in ("gas.run", "measurement.decohere")
)


class Tracer:
    """Wraps module attributes for the life of a ``with`` block.

    With ``timed`` false the wrappers only count calls and work, which is what
    an untraced run needs to report events per second.
    """

    def __init__(self, points=TRACE_POINTS, timed: bool = True):
        self.points = points
        self.timed = timed
        # name -> [calls, inclusive seconds, self seconds, work]
        self.stats: dict[str, list] = {}
        self._open: list[float] = []  # child time of each open span
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, name, work in self.points:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, work))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, original, name, work):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])

        if not self.timed:
            def counted(*args, **kwargs):
                result = original(*args, **kwargs)
                stat[0] += 1
                if work is not None:
                    stat[3] += work(args, result)
                return result

            return counted

        open_spans = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - children
            if work is not None:
                stat[3] += work(args, result)
            return result

        return traced
