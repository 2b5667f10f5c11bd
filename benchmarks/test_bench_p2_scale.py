"""P2 — population scale-out: msgs/s and peak RSS vs population × shards.

The ROADMAP's north star is populations orders of magnitude beyond the
~200 peers the E-series measures.  This suite charts the scale grid —
population (200 / 2k / 10k) × shard count (1 / 2 / 4) — through the
process-per-shard island runner (:mod:`repro.workloads.scale`),
recording wall-clock message throughput and peak resident memory per
cell — with the slowest island's wall split into scenario build and
query run, so set-up is not read as kernel throughput — plus the
*windowed determinism contract* cell: a 200-peer scenario run on the
in-process ``ShardedSimulator`` with ``shards=4`` must reproduce the
``shards=1`` counters bit-for-bit (the cheap always-on echo of the full
contract suite).

Grid capping: ``P2_MAX_POPULATION`` bounds the populations measured;
without it, runs stop at 2k.  The 10k rows cost minutes and are
measured only on request::

    P2_MAX_POPULATION=10000 PYTHONPATH=src python -m pytest \
        benchmarks/test_bench_p2_scale.py -q -s
"""

from __future__ import annotations

import os

import pytest

from repro.workloads.scale import run_population
from repro.workloads.scenario import ScenarioConfig, build_scenario

POPULATIONS = (200, 2_000, 10_000)
SHARD_COUNTS = (1, 2, 4)
GRID = [(population, shards) for population in POPULATIONS
        for shards in SHARD_COUNTS]

#: collected by the tests below; the last one prints it
RECORD: dict = {"grid": {}}


def max_population() -> int:
    # Without explicit opt-in, runs stop at 2k: the 10k rows cost
    # minutes (see the module docstring).
    return int(os.environ.get("P2_MAX_POPULATION") or 2_000)


def cell_label(population: int, shards: int) -> str:
    return f"gnutella/p{population}/s{shards}"


@pytest.mark.parametrize("population,shards", GRID,
                         ids=[cell_label(*cell) for cell in GRID])
def test_bench_p2_grid_cell(population, shards):
    """One grid cell: run the population, record throughput and RSS."""
    if population > max_population():
        pytest.skip(f"population {population} beyond P2_MAX_POPULATION")
    report = run_population(population, shards=shards, protocol="gnutella",
                            seed=11, queries_per_island=8)
    assert report.results > 0, "a scale run must produce search hits"
    assert report.messages > 0
    assert len(report.islands) == shards
    RECORD["grid"][cell_label(population, shards)] = {
        "population": population,
        "shards": shards,
        "parallel": report.parallel,
        "messages": report.messages,
        "bytes": report.bytes,
        "queries": report.queries,
        "results": report.results,
        "wall_s": round(report.wall_s, 3),
        # Islands run side by side, so the slowest one sets the wall.
        "build_s": round(max(island.build_s for island in report.islands), 3),
        "run_s": round(max(island.run_s for island in report.islands), 3),
        "messages_per_s": round(report.messages_per_s, 1),
        "peak_rss_mb": round(report.peak_rss_bytes / (1 << 20), 1),
    }


def test_bench_p2_windowed_contract():
    """The in-process sharded simulator reproduces shards=1 exactly
    (every generated cell of tests/network/test_contract.py checks it;
    this cell is the benchmark suite's sample of it)."""

    def signature(shards):
        scenario = build_scenario(ScenarioConfig(
            protocol="gnutella", peers=200, members=24, publishers=12,
            corpus_size=90, queries=16, ttl=6, seed=11, concurrency=8,
            query_interarrival_ms=20.0, shards=shards))
        counts = scenario.run_queries(max_results=50)
        stats = scenario.network.stats
        return {"counts": counts,
                "messages": dict(stats.messages_by_type),
                "bytes": dict(stats.bytes_by_type)}

    single, sharded = signature(1), signature(4)
    assert single == sharded


def test_bench_p2_write_record(report):
    """Print the scale grid measured by this run."""
    rows = [[label,
             sample["population"], sample["shards"],
             f"{sample['wall_s']:.2f}",
             f"{sample['build_s']:.2f}",
             f"{sample['run_s']:.2f}",
             f"{sample['messages_per_s']:.0f}",
             f"{sample['peak_rss_mb']:.1f}"]
            for label, sample in sorted(RECORD["grid"].items())]
    report("P2  scale grid",
           ["cell", "population", "shards", "wall s", "build s", "run s",
            "msgs/s", "peak RSS MB"],
           rows)
