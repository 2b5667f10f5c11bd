"""E10 — query-result caching: hit ratio, messages saved, staleness paid.

Every network organisation re-pays its full discovery cost when a
popular query is re-issued.  With ``result_caching`` on, finished
result sets are cached where each organisation concentrates traffic —
the central server, flooding peers along the query path, super-peers
for their leaf fan-in, rendezvous edges — and repeats are answered
from the cache within TTL / version / membership-invalidation bounds.

This experiment sweeps cache size x TTL x churn per protocol over a
repeat-heavy workload (``query_repeat_alpha``) and records, per cell:

* **hit ratio** — cached answers / cache lookups;
* **messages saved** — total messages versus a caching-off run of the
  same seed and churn (the discovery cost the cache avoided);
* **stale served per hit** — cached results served whose provider
  was already offline (counted per result, so a single hit can
  contribute several), the bounded staleness the TTL pays for
  coverage.

Churn strikes everyone but two searchers — publishers included — so
cached entries genuinely go stale; membership stays in the instant
(off) mode so the message delta is purely the cache's doing.

At this workload's scale the capacity dimension binds only at the
centralized server (the one site that sees all 48 queries); per-peer
sites (gnutella origins, entry supers, rendezvous edges) hold too few
distinct keys for eviction to occur, so their capacity-8 and
capacity-256 cells are identical — itself a placement finding the
record reports honestly rather than a knob left unexercised.
"""

from __future__ import annotations

import time

import pytest

from repro.network.membership import PopulationModel
from repro.workloads.scenario import ScenarioConfig, build_scenario

PROTOCOLS = ("centralized", "gnutella", "super-peer", "rendezvous")

CACHE_SIZES = (8, 256)
CACHE_TTLS_MS = (400.0, 4_000.0)
#: mean online-session length per churn level (None = static population)
CHURN_LEVELS = {"static": None, "churny": 1_200.0}

BASE = dict(
    peers=30,
    members=12,
    publishers=6,
    corpus_size=40,
    queries=48,
    community="design-patterns",
    ttl=6,
    seed=29,
    concurrency=6,
    query_interarrival_ms=20.0,
    query_repeat_alpha=0.6,
)

#: collected by the grid tests; the last test prints it
RECORD: dict = {"protocols": {}}


def run_cell(
    protocol: str, session_ms, *, caching: bool, capacity: int = 128, ttl_ms: float = 2_000.0
) -> dict:
    """One grid cell: a repeat-heavy workload, churn on everyone but two
    searchers, caching per the cell's knobs."""
    scenario = build_scenario(
        ScenarioConfig(
            protocol=protocol,
            result_caching=caching,
            cache_capacity=capacity,
            cache_ttl_ms=ttl_ms,
            **BASE,
        )
    )
    if session_ms is not None:
        population = PopulationModel(
            scenario.network,
            mean_session_ms=session_ms,
            mean_absence_ms=session_ms * 0.6,
            seed=5,
        )
        population.start([servent.peer_id for servent in scenario.servents[2:]])
    start = time.perf_counter()
    counts = scenario.run_queries(max_results=100)
    wall = time.perf_counter() - start
    stats = scenario.network.stats
    return {
        "wall_s": round(wall, 6),
        "messages": stats.total_messages,
        "bytes": stats.total_bytes,
        "hit_rate": round(sum(1 for count in counts if count > 0) / len(counts), 4),
        "cache_hits": stats.cache_hits,
        "cache_misses": stats.cache_misses,
        "cache_hit_ratio": round(stats.cache_hit_ratio(), 4),
        "stale_served": stats.cache_stale_served,
        # Mean stale results per cache hit (a hit can serve several
        # offline-provider results, so this can exceed 1.0).
        "stale_per_hit": round(stats.cache_stale_served / max(1, stats.cache_hits), 4),
        "queries_per_s": round(len(counts) / wall, 1),
    }


def sweep_protocol(protocol: str) -> dict:
    """The full cache-size x TTL x churn grid for one protocol, plus a
    caching-off baseline per churn level for the messages-saved delta."""
    baselines = {
        level: run_cell(protocol, session_ms, caching=False)
        for level, session_ms in CHURN_LEVELS.items()
    }
    cells = []
    for level, session_ms in CHURN_LEVELS.items():
        for capacity in CACHE_SIZES:
            for ttl_ms in CACHE_TTLS_MS:
                sample = run_cell(
                    protocol, session_ms, caching=True, capacity=capacity, ttl_ms=ttl_ms
                )
                sample.update(
                    churn=level,
                    cache_capacity=capacity,
                    cache_ttl_ms=ttl_ms,
                    messages_saved=baselines[level]["messages"] - sample["messages"],
                )
                cells.append(sample)
    return {"baseline": baselines, "cells": cells}


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_bench_e10_caching_grid(benchmark, protocol):
    """Cache knob sweep for one protocol; the headline cell is timed."""
    samples = {}

    def measure_headline():
        samples["sweep"] = sweep_protocol(protocol)
        return samples["sweep"]

    benchmark.pedantic(measure_headline, rounds=1, iterations=1)
    sweep = samples["sweep"]
    RECORD["protocols"][protocol] = sweep
    for cell in sweep["cells"]:
        assert cell["cache_hits"] > 0, f"{protocol}: a repeat-heavy workload must hit the cache"
        assert cell["hit_rate"] > 0.0, f"{protocol}: every query failed"
    best = max(cell["messages_saved"] for cell in sweep["cells"])
    if protocol in ("gnutella", "super-peer"):
        assert best > 0, f"{protocol}: caching must save broadcast traffic on repeats"


def test_bench_e10_write_record(benchmark, report):
    """Print the sweep table."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert set(RECORD["protocols"]) == set(PROTOCOLS), (
        "run the whole module so every protocol is measured"
    )
    rows = []
    for protocol in PROTOCOLS:
        for cell in RECORD["protocols"][protocol]["cells"]:
            rows.append(
                [
                    protocol,
                    cell["churn"],
                    cell["cache_capacity"],
                    int(cell["cache_ttl_ms"]),
                    f"{cell['cache_hit_ratio']:.3f}",
                    cell["messages_saved"],
                    f"{cell['stale_per_hit']:.3f}",
                    f"{cell['hit_rate']:.2f}",
                ]
            )
    report(
        "E10  query-result caching: hit ratio / messages saved / staleness "
        "(30 peers, repeat-heavy workload)",
        ["protocol", "churn", "size", "ttl ms", "hit ratio", "msgs saved", "stale/hit", "success"],
        rows,
    )
