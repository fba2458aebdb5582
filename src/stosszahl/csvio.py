"""The one CSV format of the package: every file it writes or reads.

A file is a header row of column names, then data rows, written by
:mod:`csv` with its default ``\\r\\n`` row terminator. Callers pass raw
numbers: :func:`write_csv` formats every float value (a Python float or a
numpy float64, NaN and -0.0 included) by :func:`fmt` with 17 significant
digits, so it reads back bit for bit, and writes ints and strings as they
are. A run may prepend one ``# generated <UTC time>`` line to a file it
wrote (:func:`~stosszahl.scenarios.run_scenario` does, once per run), so
readers skip every line that starts with ``#`` and every blank row.
"""

from __future__ import annotations

import csv


def fmt(x) -> str:
    """A float with 17 significant digits."""
    return f"{float(x):.17g}"


def write_csv(path, columns, rows) -> None:
    """Write the header row ``columns`` and ``rows``, each float formatted by :func:`fmt`."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows([fmt(x) if isinstance(x, float) else x for x in row] for row in rows)


def read_csv(path) -> list[list[str]]:
    """All rows of a CSV file, header included, without comment lines or blank rows."""
    with open(path, newline="") as handle:
        reader = csv.reader(line for line in handle if not line.startswith("#"))
        return [row for row in reader if row]
