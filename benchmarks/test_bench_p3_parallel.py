"""P3 — process-parallel shard execution: throughput and per-worker RSS.

P2 scales *out* by splitting the population into disconnected islands;
P3 keeps **one connected topology** and splits its event queue across
worker processes (:mod:`repro.engine.parallel`), so the measured runs
are bit-identical to ``shards=1`` — every cell here is an exactness
echo as well as a perf sample.

The grid charts population × shard count × execution mode (serial
drive loop vs. ``workers=2`` barrier lockstep), recording wall-clock
message throughput and each worker's peak resident set, printed as
one table at the end of the module.

Hardware honesty: the table's title carries the cores available.  On a
single-core host the parallel cells pay the full barrier/serialization
cost with zero overlap to show for it, so their throughput reads
*below* serial — that is the honest number, not a bug; the speedup
column only means anything when ``cores_available >= workers``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.engine.parallel import run_parallel_scenario
from repro.workloads.scenario import ScenarioConfig, build_scenario

POPULATIONS = (30, 60)
SHARD_COUNTS = (2, 4)
WORKERS = 2

#: collected by the cell tests; the last test prints it
RECORD: dict = {"grid": {}}


def scenario_config(population: int, shards: int, *, parallel: bool) -> ScenarioConfig:
    return ScenarioConfig(
        protocol="gnutella", peers=population,
        members=max(8, population // 3), publishers=max(4, population // 5),
        corpus_size=population + 10, queries=16, ttl=6, seed=23,
        concurrency=8, query_interarrival_ms=20.0,
        shards=shards, parallel=parallel)


def signature(stats, counts) -> dict:
    return {
        "counts": counts,
        "messages": dict(stats.messages_by_type),
        "bytes": dict(stats.bytes_by_type),
        "latencies": [round(query.latency_ms, 6) for query in stats.queries],
    }


def cell_label(population: int, shards: int, mode: str) -> str:
    return f"gnutella/p{population}/s{shards}/{mode}"


@pytest.mark.parametrize(
    "population,shards",
    [(population, shards) for population in POPULATIONS
     for shards in SHARD_COUNTS],
    ids=[f"p{population}-s{shards}" for population in POPULATIONS
         for shards in SHARD_COUNTS])
def test_bench_p3_cell(population, shards):
    """One grid cell: serial and parallel runs of the same scenario,
    asserted bit-identical, both timed."""
    scenario = build_scenario(scenario_config(population, 1, parallel=False))
    started = time.perf_counter()
    counts = scenario.run_queries(max_results=100)
    serial_wall = time.perf_counter() - started
    serial_sig = signature(scenario.network.stats, counts)
    serial_messages = scenario.network.stats.total_messages

    report = run_parallel_scenario(
        scenario_config(population, shards, parallel=True),
        workers=WORKERS, max_results=100)
    parallel_sig = signature(report.stats, report.counts)
    assert parallel_sig == serial_sig, (
        f"parallel run diverged from serial at p{population}/s{shards}")
    assert report.windows > 0 and report.cross_shard_messages > 0

    RECORD["grid"][cell_label(population, 1, "serial")] = {
        "population": population, "shards": 1, "mode": "serial",
        "messages": serial_messages,
        "wall_s": round(serial_wall, 3),
        "messages_per_s": round(serial_messages / serial_wall, 1),
    }
    RECORD["grid"][cell_label(population, shards, f"workers{WORKERS}")] = {
        "population": population, "shards": shards,
        "mode": f"workers{WORKERS}",
        "messages": report.stats.total_messages,
        "wall_s": round(report.query_wall_s, 3),
        "messages_per_s": round(
            report.stats.total_messages / report.query_wall_s, 1),
        "windows": report.windows,
        "barriers": report.barriers,
        "cross_shard_messages": report.cross_shard_messages,
        "bytes_shipped": report.bytes_shipped,
        "worker_peak_rss_mb": [round(rss / (1 << 20), 1)
                               for rss in report.worker_peak_rss_bytes],
    }


def test_bench_p3_write_record(report):
    """Print the parallel-execution grid measured by this run."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    rows = [[label, sample["population"], sample["shards"], sample["mode"],
             f"{sample['wall_s']:.2f}", f"{sample['messages_per_s']:.0f}",
             "/".join(str(rss) for rss in sample.get("worker_peak_rss_mb", []))
             or "-"]
            for label, sample in sorted(RECORD["grid"].items())]
    report(f"P3  parallel shard execution ({cores} core(s) available)",
           ["cell", "population", "shards", "mode", "wall s", "msgs/s",
            "worker RSS MB"],
           rows)
