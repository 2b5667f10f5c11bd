"""Shared helpers for the experiment/benchmark harness.

Every benchmark module reproduces one experiment, which its module
docstring names and states (E1–E12 the paper's claims, F1–F3 its
figures, A1–A3 the ablations, P1–P3 the substrate's performance).
Besides the pytest-benchmark timings, each module prints the table or
series the experiment is about (workload → measured values) so that
running ``pytest benchmarks/ --benchmark-only`` regenerates the
figures' data; the module docstring says how to read it.

Nothing here writes a record or gates a timing.  Wall-clock
performance is measured by ``bench/`` (``bench/run.py`` +
``bench/compare.py``); the work a round does is gated exactly by
``BENCH_work.json`` (``tests/engine/test_hot_path.py``).
"""

from __future__ import annotations

import pytest


def print_table(title: str, columns: list[str], rows: list[list]) -> None:
    """Print a small aligned table to the terminal (captured by -s or shown
    in the benchmark summary when a row assertion fails)."""
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
    """The table printer, as a fixture so benchmarks stay terse."""
    return print_table
