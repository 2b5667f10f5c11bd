#!/usr/bin/env python3
"""Sharding is an execution detail, never an observable.

The in-process `ShardedSimulator` executes one topology across
shard-local event queues joined by a conservative time-window barrier.
A 200-peer scenario run with ``shards=4`` reproduces the ``shards=1``
hit counts *bit-for-bit*; the script prints both, with the windows and
cross-shard messages the sharded run took.

Run with:  python examples/sharded_population.py
"""

from __future__ import annotations

from repro.workloads.scenario import ScenarioConfig, build_scenario

SEED = 42


def determinism_contract() -> None:
    print("== windowed determinism: shards=4 vs shards=1 on one topology")

    def hits(shards: int) -> dict:
        scenario = build_scenario(ScenarioConfig(
            protocol="gnutella", peers=200, members=24, publishers=12,
            corpus_size=90, queries=12, ttl=6, seed=SEED, concurrency=8,
            query_interarrival_ms=20.0, shards=shards))
        counts = scenario.run_queries(max_results=50)
        simulator = scenario.network.simulator
        windows = getattr(simulator, "windows", 0)
        crossings = getattr(simulator, "cross_shard_messages", 0)
        return {"counts": counts, "windows": windows, "crossings": crossings}

    single, sharded = hits(1), hits(4)
    assert sum(single["counts"]) > 0, "contract run produced no hits"
    assert single["counts"] == sharded["counts"], (
        "shard count changed observable results")
    print(f"  shards=1: {sum(single['counts']):,} hits")
    print(f"  shards=4: {sum(sharded['counts']):,} hits over "
          f"{sharded['windows']:,} windows, "
          f"{sharded['crossings']:,} cross-shard messages")
    print("  identical hit counts -- sharding is unobservable")


if __name__ == "__main__":
    determinism_contract()
