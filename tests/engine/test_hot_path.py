"""Guards on the transport hot path: what it must compute, and how often.

* *Golden digests.*  ``NetworkStats.digest`` of one toy-size round of
  each benchmark workload, serial and ``shards=4``, against constants
  taken before the transport was reworked.  A simulator-only change
  that moves one of them fails here in seconds, not only in the bench
  pipeline; a change that means to move one rebases the constant and
  says so.  ``flood`` was rebased once, when the flood stopped echoing
  a QUERY back to the neighbour that delivered it.  The bench's own
  ``counters_digest`` is pinned equal to the ``src/`` spelling.
* *Golden query evaluation.*  Per protocol, a digest of a concurrent
  search scenario's observables and the hits of one direct search,
  taken while a switch could still send every query through the
  reference ``Query.evaluate`` path instead of ``CompiledQuery`` — and
  checked equal between the two paths then.  ``gnutella``'s digest and
  direct-search message and byte counts were rebased with ``flood``;
  its hits were not.
* *Count guards with no clock in them.*  The transport pays per hop, not
  per copy: one ``NetworkStats.record`` per re-flooding peer, no handler
  frame for a duplicate QUERY delivery, no message id drawn for a QUERY
  copy, and no QUERY copy sent back to the peer it came from.
"""

import hashlib
import json

import pytest

from bench import measure
from bench.trace import Tracer
from bench.workloads import BATCH_OPS, INTERARRIVAL_MS, MAX_RESULTS, operations, scenario_config
from repro.engine.driver import QueryDriver
from repro.engine.kernel import EventKernel
from repro.network import messages as messages_module
from repro.network.base import PeerNetwork
from repro.network.gnutella import GnutellaProtocol
from repro.network.messages import MessageType
from repro.network.stats import NetworkStats
from repro.storage.query import Query
from repro.workloads.scenario import ScenarioConfig, build_scenario
from tests.network.test_contract import make_network, publish_pattern

SEED = 7

#: workload -> digest of the toy round at seed 7 (serial and sharded alike)
GOLDEN = {
    "flood": "3bf86cf2e40d994994dc581a2b1793a7e20779e3da955ba69c9720a0d18e4a5e",
    "directory": "b2ac0be0afd8c487b30e50094a11057c61717639d43d8460fc59548dc841e5d8",
    "bootstrap": "9d1b9f5733f1a0cc0114a605727ec3e0e3ad4d93cfe84f735f0065b66f20c316",
    "dynamic": "756a5c46bcf7fec2641e9968d9d60303a121bc373890ccf4cdaf2887176d9953",
}


def toy_round(name, shards=1):
    """One toy-size round of workload ``name``, batched the way the bench
    batches it; returns the scenario and each search's result count."""
    scenario = build_scenario(scenario_config(name, SEED, toy=True, shards=shards))
    ops = operations(scenario)
    driver = QueryDriver(scenario.network)
    counts = []
    for start in range(0, len(ops), BATCH_OPS):
        outcome = driver.run_mixed(ops[start:start + BATCH_OPS], max_results=MAX_RESULTS,
                                   interarrival_ms=INTERARRIVAL_MS)
        assert outcome.failed == outcome.retrieve_failures == outcome.starved == 0
        counts.extend(outcome.result_counts)
    return scenario, counts


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_toy_round_reproduces_the_golden_digest(name, shards):
    scenario, counts = toy_round(name, shards)
    assert scenario.network.stats.digest(counts) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stats_digest_is_the_bench_counters_digest(name):
    """``NetworkStats.digest`` and ``bench.measure.counters_digest`` are one
    definition of "same behaviour": equal on the round itself, and on the
    bench's own first round."""
    scenario, counts = toy_round(name)
    stats = scenario.network.stats
    assert stats.digest(counts) == measure.counters_digest(counts, stats)
    bench_scenario = build_scenario(scenario_config(name, SEED, toy=True))
    phase = measure.run_ops(bench_scenario, 0.0, measure.HostSpeed())
    assert phase.failed == 0
    assert phase.first.digest == stats.digest(counts)


#: eight searches in flight at once, over every protocol
PLAN_SCENARIO = dict(peers=30, members=12, publishers=6, corpus_size=40, queries=16,
                     ttl=6, seed=23, concurrency=8, query_interarrival_ms=20.0)

#: protocol -> (sha256 of ``plan_observables``, ``direct_search`` outcome)
GOLDEN_PLAN = {
    "centralized": (
        "67d29e4b31f78af16b6dd8ebf219c32206ddfc2de1a07615b7c2fdced9f9e922",
        ([("p2", "55e29fe5f28c6a97ad86", 1), ("p3", "f059f6a5518481657d48", 1)], 2, 276)),
    "gnutella": (
        "43d23c2986257b703cfc9a35475962d567501649929f4f0380e7b2febd2fc5d8",
        ([("p2", "55e29fe5f28c6a97ad86", 2), ("p3", "f059f6a5518481657d48", 3)], 12, 1324)),
    "super-peer": (
        "95d84c93b6def3583c44db0e719368ba020ab75e47ae33dcf6e98629429992a4",
        ([("p2", "55e29fe5f28c6a97ad86", 1), ("p3", "f059f6a5518481657d48", 1)], 1, 154)),
    "rendezvous": (
        "e1c9807d8b7c06c5f7cfda00020e2081907a9fbb6691e18e94af0a26bd1a5c02",
        ([("p2", "55e29fe5f28c6a97ad86", 1), ("p3", "f059f6a5518481657d48", 1)], 1, 154)),
}


def plan_observables(protocol):
    """Results, message and byte counts and latencies of every search."""
    scenario = build_scenario(ScenarioConfig(protocol=protocol, **PLAN_SCENARIO))
    counts = scenario.run_queries(max_results=100)
    stats = scenario.network.stats
    return {
        "counts": counts,
        "total_messages": stats.total_messages,
        "total_bytes": stats.total_bytes,
        "by_type": dict(stats.messages_by_type),
        "bytes_by_type": dict(stats.bytes_by_type),
        "results": [record.results for record in stats.queries],
        "messages": [record.messages for record in stats.queries],
        "bytes": [record.bytes for record in stats.queries],
        "probed": [record.peers_probed for record in stats.queries],
        "latencies": [round(record.latency_ms, 6) for record in stats.queries],
    }


def direct_search(protocol):
    """``(provider, resource, hops)`` hits, messages and bytes of one search."""
    network = make_network(protocol)
    for index in range(6):
        network.create_peer(f"p{index}")
    publish_pattern(network, "p1", "Observer", "decouple subject from observers")
    publish_pattern(network, "p2", "Abstract Factory", "create families of objects")
    publish_pattern(network, "p3", "Factory Method", "defer creation to subclasses")
    if protocol == "gnutella":
        network.build_overlay()
    response = network.search("p0", Query("patterns").where("name", "factory"),
                              max_results=50)
    return sorted((r.provider_id, r.resource_id, r.hops) for r in response.results), \
        response.messages_sent, response.bytes_sent


@pytest.mark.parametrize("protocol", sorted(GOLDEN_PLAN))
def test_query_evaluation_reproduces_the_golden_observables(protocol):
    digest, _ = GOLDEN_PLAN[protocol]
    observables = plan_observables(protocol)
    assert observables["total_messages"] > 0
    encoded = json.dumps(observables, sort_keys=True).encode()
    assert hashlib.sha256(encoded).hexdigest() == digest


@pytest.mark.parametrize("protocol", sorted(GOLDEN_PLAN))
def test_direct_search_reproduces_the_golden_hits(protocol):
    """Beyond counts: the actual (provider, resource, hops) hits."""
    _, direct = GOLDEN_PLAN[protocol]
    assert direct_search(protocol) == direct


class _CountingIds:
    """Stands in for ``messages._message_counter``: counts the draws."""

    def __init__(self, counter):
        self.counter = counter
        self.draws = 0

    def __next__(self):
        self.draws += 1
        return next(self.counter)


@pytest.fixture()
def tracer():
    tracer = Tracer()
    yield tracer
    tracer.uninstall()


def test_a_flood_pays_per_hop_not_per_copy(tracer, monkeypatch):
    def counted(name):
        return lambda function: tracer.counted(name, function)

    # Patched before the build: handlers are registered as bound methods.
    tracer.patch_method((NetworkStats,), "record", counted("record"))
    tracer.patch_method((GnutellaProtocol,), "_on_query", counted("on_query"))
    tracer.patch_method((PeerNetwork,), "_send_hit", counted("send_hit"))
    ids = _CountingIds(messages_module._message_counter)
    monkeypatch.setattr(messages_module, "_message_counter", ids)

    scenario = build_scenario(ScenarioConfig(
        protocol="gnutella", peers=60, degree=4, ttl=5, members=10, publishers=5,
        corpus_size=40, queries=12, concurrency=4, seed=23))
    tracer.counts.clear()   # the set-up's discovery floods are not the subject
    ids.draws = 0
    scenario.run_queries()

    records = scenario.network.stats.queries
    searches = len(records)
    probed = sum(record.peers_probed for record in records)
    copies = scenario.network.stats.messages_by_type["query"]
    hits = tracer.counts["send_hit"]
    assert searches == 12 and hits > 0
    assert copies > 2 * probed   # the flood is duplicate-heavy: the guards bite
    # one record per fan-out (the origin's and each accepting peer's), one per hit
    assert tracer.counts["record"] <= probed + searches + hits
    # a duplicate delivery never reaches a handler frame
    assert tracer.counts["on_query"] == probed
    # every copy of one flood carries the flood's id: none is drawn per copy
    assert ids.draws <= searches + hits


def test_a_flood_never_echoes(monkeypatch):
    """Gnutella forwards a descriptor to every neighbour *except the one
    that delivered it*: no QUERY copy goes back to the peer it came from."""
    scenario = build_scenario(ScenarioConfig(
        protocol="gnutella", peers=60, degree=4, ttl=5, members=10, publishers=5,
        corpus_size=40, queries=12, concurrency=4, seed=23))
    delivered_by = {}   # forwarder -> the neighbour whose copy it is re-flooding
    sent = []           # (forwarder, recipient, delivered by) per QUERY copy
    flood_from = GnutellaProtocol._flood_from
    send_many = EventKernel.send_many

    def recording_flood_from(self, peer, message, context):
        delivered_by[peer.peer_id] = message.sender
        flood_from(self, peer, message, context)

    def recording_send_many(self, messages, *, context=None):
        # A fan-out runs inside the ``_flood_from`` that just booked its sender.
        sent.extend((copy.sender, copy.recipient, delivered_by[copy.sender])
                    for copy in messages if copy.type is MessageType.QUERY)
        send_many(self, messages, context=context)

    monkeypatch.setattr(GnutellaProtocol, "_flood_from", recording_flood_from)
    monkeypatch.setattr(EventKernel, "send_many", recording_send_many)
    scenario.run_queries()

    probed = sum(record.peers_probed for record in scenario.network.stats.queries)
    assert len(sent) == scenario.network.stats.messages_by_type["query"] > 2 * probed
    assert [copy for copy in sent if copy[1] == copy[2]] == []
