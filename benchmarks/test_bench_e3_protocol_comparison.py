"""E3 — protocol independence: the same workload over three networks.

The paper (§IV-B): U-P2P "is meant to be layered on top of any
peer-to-peer network organization", naming Napster, Gnutella and
FastTrack in the community schema.  The experiment runs an identical
design-pattern workload over the three organisations and reports the
cost/recall trade-off each one makes.
"""

from __future__ import annotations

import pytest

from repro.workloads.scenario import ScenarioConfig, build_scenario

PROTOCOLS = ("centralized", "gnutella", "super-peer")
BASE = dict(peers=60, members=24, publishers=12, corpus_size=90, queries=30,
            community="design-patterns", ttl=6, seed=11)


def run_protocol(protocol: str):
    scenario = build_scenario(ScenarioConfig(protocol=protocol, **BASE))
    counts = scenario.run_queries(max_results=200)
    stats = scenario.network.stats
    recall_samples = []
    for found, expected in zip(counts, scenario.workload.expected_matches, strict=True):
        if expected:
            recall_samples.append(min(found, expected) / expected)
    recall = sum(recall_samples) / len(recall_samples) if recall_samples else 0.0
    return scenario, {
        "msgs_per_query": stats.mean_messages_per_query(),
        "bytes_per_query": stats.total_bytes / max(1, len(stats.queries)),
        "latency_ms": stats.mean_latency_ms(),
        "recall": recall,
        "success": stats.success_rate(),
    }


@pytest.fixture(scope="module")
def results():
    return {protocol: run_protocol(protocol)[1] for protocol in PROTOCOLS}


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_bench_e3_protocol_query_phase(benchmark, protocol):
    scenario = build_scenario(ScenarioConfig(protocol=protocol, **{**BASE, "queries": 10}))

    def query_phase():
        return scenario.run_queries(max_results=200)

    counts = benchmark(query_phase)
    assert len(counts) == 10


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_bench_e3_concurrent_query_load(benchmark, protocol):
    """The same workload with eight queries in flight at once on the
    event kernel: later queries launch while earlier floods are still
    travelling, so elapsed virtual time undercuts the latency sum."""
    scenario = build_scenario(ScenarioConfig(
        protocol=protocol, concurrency=8, query_interarrival_ms=20.0,
        **{**BASE, "queries": 16}))

    def concurrent_phase():
        return scenario.run_queries(max_results=200)

    counts = benchmark.pedantic(concurrent_phase, rounds=1, iterations=1)
    assert len(counts) == 16
    stats = scenario.network.stats
    assert len(stats.queries) == 16


def test_bench_e3_concurrent_load_is_deterministic(benchmark):
    """Two identical concurrent runs produce identical message and byte
    counts — the repeatability the event kernel guarantees."""

    def run_once():
        scenario = build_scenario(ScenarioConfig(
            protocol="super-peer", concurrency=8, query_interarrival_ms=20.0,
            **{**BASE, "queries": 16}))
        counts = scenario.run_queries(max_results=200)
        stats = scenario.network.stats
        return counts, stats.total_messages, stats.total_bytes

    first = benchmark.pedantic(run_once, rounds=1, iterations=1)
    second = run_once()
    assert first == second


def test_bench_e3_report(benchmark, results, report):
    benchmark.pedantic(lambda: dict(results), rounds=1, iterations=1)
    rows = [[protocol,
             f"{values['msgs_per_query']:.1f}",
             f"{values['bytes_per_query']:.0f}",
             f"{values['latency_ms']:.0f}",
             f"{values['recall']:.2f}",
             f"{values['success']:.2f}"]
            for protocol, values in results.items()]
    report("E3  the same workload over the three network organisations",
           ["protocol", "msgs/query", "bytes/query", "latency ms", "recall", "success rate"], rows)

    centralized, gnutella, superpeer = (results[p] for p in PROTOCOLS)
    # Shape of the trade-off the paper's protocol table implies:
    # the centralized index answers with the fewest messages; flooding
    # pays an order of magnitude more messages; super-peers sit between.
    assert centralized["msgs_per_query"] <= superpeer["msgs_per_query"] < gnutella["msgs_per_query"]
    assert gnutella["msgs_per_query"] > 10 * centralized["msgs_per_query"]
    # All three organisations answer the non-miss queries (U-P2P works on
    # each of them — the protocol-independence claim).
    for values in results.values():
        assert values["success"] >= 0.6
        assert values["recall"] >= 0.5
