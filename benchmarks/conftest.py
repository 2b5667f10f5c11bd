"""Shared helpers for the substrate's performance suites (P1–P3).

Each module charts one performance question, which its docstring
states, and prints the table it measured (``pytest benchmarks/ -s``
shows them).  The paper's claims (E1–E12, A1–A3, F1–F3) live in one
table, :mod:`repro.report`, gated by ``tests/test_results.py``.

Nothing here writes a record or gates a timing.  Wall-clock
performance is measured by ``bench/`` (``bench/run.py`` +
``bench/compare.py``); the work a round does is gated exactly by
``BENCH_work.json`` (``tests/engine/test_hot_path.py``).
"""

from __future__ import annotations

import pytest


def print_table(title: str, columns: list[str], rows: list[list]) -> None:
    """Print a small aligned table to the terminal (shown with -s, or in
    the report when a row assertion fails)."""
    widths = [max(len(str(column)), *(len(str(row[index])) for row in rows)) if rows else len(str(column))
              for index, column in enumerate(columns)]
    line = "  ".join(str(column).ljust(widths[index]) for index, column in enumerate(columns))
    separator = "-" * len(line)
    print(f"\n{title}\n{separator}\n{line}\n{separator}")
    for row in rows:
        print("  ".join(str(cell).ljust(widths[index]) for index, cell in enumerate(row)))
    print(separator)


@pytest.fixture(scope="session")
def report():
    """The table printer, as a fixture so the suites stay terse."""
    return print_table
