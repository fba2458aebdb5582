"""The one CSV format of the package: every file it writes or reads.

A file is an optional ``# <comment>`` line (the run's timestamp stamp), a
header row of column names, then data rows, written by :mod:`csv` with its
default ``\\r\\n`` row terminator. Floats are formatted by :func:`fmt` with 17
significant digits, so they read back bit for bit. Readers skip every line
that starts with ``#`` and every blank row.
"""

from __future__ import annotations

import csv


def fmt(x) -> str:
    """A float with 17 significant digits."""
    return f"{float(x):.17g}"


def write_csv(path, columns, rows, header_comment: str | None = None) -> None:
    """Write the header row ``columns`` and ``rows``, after ``# header_comment`` if given."""
    with open(path, "w", newline="") as handle:
        if header_comment:
            handle.write(f"# {header_comment}\n")
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows(rows)


def read_csv(path) -> list[list[str]]:
    """All rows of a CSV file, header included, without comment lines or blank rows."""
    with open(path, newline="") as handle:
        reader = csv.reader(line for line in handle if not line.startswith("#"))
        return [row for row in reader if row]
