"""Shared helpers for the experiment/benchmark harness.

Every benchmark module reproduces one experiment, which its module
docstring names and states (E1–E12 the paper's claims, F1–F3 its
figures, A1–A3 the ablations, P1–P3 the substrate's performance).
Besides the pytest-benchmark timings, each module prints the table or
series the experiment is about (workload → measured values) so that
running ``pytest benchmarks/ --benchmark-only`` regenerates the
figures' data; the module docstring says how to read it.
"""

from __future__ import annotations

import json
import pathlib

import pytest


REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
#: the committed record; refresh it with a plain
#: ``cp .benchmarks/BENCH_perf.json BENCH_perf.json``
COMMITTED_PERF_PATH = REPO_ROOT / "BENCH_perf.json"
#: where benchmark runs write: gitignored, so tier-1 leaves the tree clean
PERF_PATH = REPO_ROOT / ".benchmarks" / "BENCH_perf.json"


def read_perf_record() -> dict:
    """The scratch record — the committed one until the first write, so
    a capped grid (CI's ``P2_MAX_POPULATION``) keeps every committed key."""
    path = PERF_PATH if PERF_PATH.exists() else COMMITTED_PERF_PATH
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


def write_perf_record(updates: dict) -> None:
    """Merge ``updates`` into the scratch perf record and write it.

    Each benchmark suite owns a disjoint set of top-level keys (p1 the
    hot-path samples, e9 the ``membership`` section); merging instead
    of overwriting lets the modules run — and rewrite — in any order.
    """
    merged = read_perf_record()
    merged.update(updates)
    PERF_PATH.parent.mkdir(exist_ok=True)
    PERF_PATH.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n",
                         encoding="utf-8")


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
