"""Guards on the transport hot path: what it must compute, and how often.

* *Golden digests.*  ``bench.measure.counters_digest`` of one toy-size
  round of each benchmark workload, serial and ``shards=4``, against constants
  taken before the transport was reworked.  A simulator-only change
  that moves one of them fails here in seconds, not only in the bench
  pipeline; a change that means to move one rebases the constant and
  says so.  ``flood`` was rebased once, when the flood stopped echoing
  a QUERY back to the neighbour that delivered it, ``dynamic`` once,
  when fault rolls became BLAKE2b lanes, and ``directory`` once, when
  the index server's store became a ``HubCatalog`` and the origin began
  answering its own matches locally.  The bench's own first round is
  pinned equal to the toy round.
* *Golden query evaluation.*  Per protocol, a digest of a concurrent
  search scenario's observables and the hits of one direct search,
  taken while a switch could still send every query through the
  reference ``Query.evaluate`` path instead of ``CompiledQuery`` — and
  checked equal between the two paths then.  ``gnutella``'s digest and
  direct-search message and byte counts were rebased with ``flood``;
  its hits were not.  ``centralized``'s digest was rebased with
  ``directory``: every search kept its result count and message count,
  and only the bytes moved (the origin's own matches no longer ride the
  QUERY-HIT); its direct-search triples, messages and bytes are literal.
* *Work ledger.*  The work of the four toy rounds, as ``bench.trace``
  and three test-side counters see it — each traced call count,
  executed events, hits and messages built, copies fanned out — against
  the committed ``BENCH_work.json``, by equality.
  A change that means to move work rewrites the file (``python -m
  tests.engine.test_hot_path``) and the JSON diff is its work claim.
* *Quiescence.*  A drained toy round leaves no queued event, no un-ACKed
  reliable send and no result cache on a departed node.
* *Count guards with no clock in them.*  The transport pays per hop, not
  per copy: one ``NetworkStats.record`` per re-flooding peer, no handler
  frame for a duplicate QUERY delivery, no message id drawn for a QUERY
  copy, no QUERY copy sent back to the peer it came from, and one
  ``Message`` per fan-out that queues an event (shared by its copies,
  none for a fan-out wholly absorbed).  A peer that stores
  nothing in a query's community never evaluates its plan.  An index
  point builds each hit once per record and depth: a repeated
  ``directory`` round constructs no ``SearchResult`` in ``HubCatalog.take``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from bench import measure
from bench.trace import Tracer, install
from bench.workloads import BATCH_OPS, INTERARRIVAL_MS, MAX_RESULTS, operations, scenario_config
from repro.core import community, stylesheets
from repro.engine.driver import QueryDriver
from repro.engine.kernel import EventKernel
from repro.network import messages as messages_module
from repro.network import twotier
from repro.network.base import PeerNetwork, SearchResult
from repro.network.gnutella import GnutellaProtocol
from repro.network.messages import Message, MessageType
from repro.network.stats import NetworkStats
from repro.storage.plan import CompiledQuery
from repro.storage.query import Query
from repro.storage.repository import LocalRepository
from repro.workloads.scenario import ScenarioConfig, build_scenario
from tests.network.test_contract import BASE_CELL, make_network, publish_pattern

SEED = 7

#: workload -> digest of the toy round at seed 7 (serial and sharded alike).
#: ``dynamic`` is the one workload with a fault plan; it was rebased when
#: fault rolls moved from a Mersenne Twister seeded per message to BLAKE2b
#: lanes over the same content key, which re-draws every message's fate.
#: ``directory`` was rebased when the index server's private catalog became
#: a ``HubCatalog`` and every search began answering its origin locally: each
#: search's result count (137 in all) and the 32 messages stayed, and bytes
#: fell 67 599 -> 61 022; shards=1 and shards=4 still agree.
GOLDEN = {
    "flood": "3bf86cf2e40d994994dc581a2b1793a7e20779e3da955ba69c9720a0d18e4a5e",
    "directory": "ace821caed15ce4f6b1736dc429c7e488393661e6f10d0ae3bd365e2f848d24f",
    "bootstrap": "9d1b9f5733f1a0cc0114a605727ec3e0e3ad4d93cfe84f735f0065b66f20c316",
    "dynamic": "ff34508003cfa91562c5c186fd612188e2b2f7d751879a05424eed74cba782d3",
}


def toy_round(name, shards=1, **overrides):
    """One toy-size round of workload ``name``, batched the way the bench
    batches it; returns the scenario and each search's result count."""
    scenario = build_scenario(scenario_config(name, SEED, toy=True, shards=shards,
                                              **overrides))
    return scenario, run_round(scenario)


def run_round(scenario):
    """One round of the bench's operations on ``scenario``; returns each
    search's result count."""
    ops = operations(scenario)
    driver = QueryDriver(scenario.network)
    counts = []
    for start in range(0, len(ops), BATCH_OPS):
        outcome = driver.run_mixed(ops[start:start + BATCH_OPS], max_results=MAX_RESULTS,
                                   interarrival_ms=INTERARRIVAL_MS)
        assert outcome.failed == outcome.retrieve_failures == outcome.starved == 0
        counts.extend(outcome.result_counts)
    return counts


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_toy_round_reproduces_the_golden_digest(name, shards):
    scenario, counts = toy_round(name, shards)
    assert measure.counters_digest(counts, scenario.network.stats) == GOLDEN[name]


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_a_drained_round_leaves_no_state_behind(name, shards):
    """No leaked state at quiescence: once the timers are cancelled and the
    queue has run dry, nothing is queued, no reliable send is un-ACKed and
    every result-cache site is a live node.  ``dynamic`` runs without churn:
    a churning ``PopulationModel`` is an event chain that never ends."""
    overrides = {"churn_session_ms": None} if name == "dynamic" else {}
    scenario, _ = toy_round(name, shards, **overrides)
    network = scenario.network
    network.kernel.cancel_timers()
    network.simulator.run()
    assert network.simulator.pending_events() == 0
    assert network.channel.pending == {}
    live = {peer.peer_id for peer in network.online_peers()} | network.kernel.virtual_nodes
    assert set(network.caches.sites) <= live


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_the_bench_first_round_is_the_toy_round(name):
    """The bench's own first round does what the toy round does."""
    scenario, counts = toy_round(name)
    bench_scenario = build_scenario(scenario_config(name, SEED, toy=True))
    phase = measure.run_ops(bench_scenario, 0.0, measure.HostSpeed())
    assert phase.failed == 0
    assert phase.first.digest == measure.counters_digest(counts, scenario.network.stats)


#: the committed work ledger; ``python -m tests.engine.test_hot_path``
#: (with ``PYTHONPATH=src:.``) rewrites it from the tree as it stands
WORK_LEDGER = Path(__file__).resolve().parents[2] / "BENCH_work.json"


def work_ledger(name):
    """Unit of work -> count, over the ``GOLDEN`` toy round of ``name``.

    The units are every call count ``bench.trace`` takes (one per span,
    plus its plain counters), the events the simulator executed, and
    three counts the tracer does not take: ``SearchResult`` and
    ``Message`` constructions and the copies sent through
    ``EventKernel.send_many``.  The process-wide parse caches are
    emptied first, so no count depends on what ran earlier.
    """
    community._shared_schema.cache_clear()
    stylesheets._compile.cache_clear()
    tracer = Tracer()
    install(tracer)

    def counted(unit):
        return lambda function: tracer.counted(unit, function)

    def note_copies(args, _result):
        tracer.counts["engine.kernel.send_many.copies"] += len(args[3])

    tracer.patch_method((SearchResult,), "__init__", counted("network.base.SearchResult.init"))
    tracer.patch_method((Message,), "__init__", counted("network.messages.Message.init"))
    tracer.patch_method((EventKernel,), "send_many", lambda function: tracer.span(
        "engine.kernel.send_many", function, note_copies))
    try:
        scenario, _ = toy_round(name)
    finally:
        tracer.uninstall()
    units = {span: tracer.totals(span)[0] for span, _parent in tracer.spans}
    units.update(tracer.counts)
    units["network.simulator.events_processed"] = scenario.network.simulator.events_processed
    return dict(sorted(units.items()))


def committed_work():
    return json.loads(WORK_LEDGER.read_text(encoding="utf-8"))


def test_the_ledger_covers_exactly_the_golden_workloads():
    assert sorted(committed_work()) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_the_toy_rounds_do_the_committed_work(name):
    """Work is gated by equality, with no clock in it: a change that adds
    or removes work on any toy round moves a count here, and lands only
    with the rewritten ``BENCH_work.json`` as its reviewed diff."""
    committed = committed_work().get(name, {})
    units = work_ledger(name)
    moved = [(unit, committed.get(unit), units.get(unit))
             for unit in sorted(set(units) | set(committed))
             if units.get(unit) != committed.get(unit)]
    assert units == committed, moved   # (unit, committed, now)


#: protocol -> (sha256 of ``plan_observables``, ``direct_search`` outcome)
GOLDEN_PLAN = {
    # Rebased with ``GOLDEN["directory"]``: counts and messages unchanged,
    # bytes 74 999 -> 66 482 once the origin answers its own matches.
    "centralized": (
        "56e7b0f58335d490aac3a710130734f67cd3b8b4f7f7badc9b93e3fae102a85b",
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
    """Results, message and byte counts and latencies of every search of
    the contract suite's base cell: eight searches in flight at once."""
    scenario = build_scenario(ScenarioConfig(protocol=protocol, **BASE_CELL))
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

    def recording_send_many(self, message, sender, recipients, *, context=None):
        # A fan-out runs inside the ``_flood_from`` that just booked its sender.
        if message.type is MessageType.QUERY:
            sent.extend((sender, recipient, delivered_by[sender]) for recipient in recipients)
        send_many(self, message, sender, recipients, context=context)

    monkeypatch.setattr(GnutellaProtocol, "_flood_from", recording_flood_from)
    monkeypatch.setattr(EventKernel, "send_many", recording_send_many)
    scenario.run_queries()

    probed = sum(record.peers_probed for record in scenario.network.stats.queries)
    assert len(sent) == scenario.network.stats.messages_by_type["query"] > 2 * probed
    assert [copy for copy in sent if copy[1] == copy[2]] == []


def test_a_flood_builds_one_message_per_hop_that_queues(monkeypatch):
    """On the ``flood`` toy round ``Message.__init__`` runs once per
    fan-out that queues an event, once per point-to-point ``send`` and
    once per search's origin QUERY — never per copy.  A fan-out's one
    message is built inside it, addressed to nobody (``recipient`` is
    empty), and rides every delivery event the fan-out queued, each of
    which names its own recipient; a fan-out whose every copy is
    absorbed builds nothing."""
    built = []          # every message constructed, in order
    hops = {}           # id(hop message) -> recipients its fan-out queued
    delivered = {}      # id(hop message) -> recipients of its executed events
    calls = {"queuing fan-outs": 0, "absorbed fan-outs": 0, "queued copies": 0,
             "send": 0, "start_search": 0}
    init, send, send_many = Message.__init__, EventKernel.send, EventKernel.send_many
    deliver, start_search = EventKernel._deliver, GnutellaProtocol.start_search

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    def counted_send(self, *args, **kwargs):
        calls["send"] += 1
        send(self, *args, **kwargs)

    def counted_send_many(self, message, sender, recipients, *, context=None):
        assert message.type is MessageType.QUERY   # the only fan-out of the round
        queued = [recipient for recipient in recipients if recipient not in context.visited]
        before = len(built)
        send_many(self, message, sender, recipients, context=context)
        new = built[before:]
        if queued:
            calls["queuing fan-outs"] += 1
            calls["queued copies"] += len(queued)
            [hop] = new
            assert (hop.sender, hop.recipient, hop.ttl) == (sender, "", message.ttl - 1)
            hops[id(hop)] = sorted(queued)
        else:
            calls["absorbed fan-outs"] += 1
            assert new == []

    def counted_deliver(self, message, recipient, context):
        if id(message) in hops:
            delivered.setdefault(id(message), []).append(recipient)
        deliver(self, message, recipient, context)

    def counted_start_search(self, *args, **kwargs):
        calls["start_search"] += 1
        return start_search(self, *args, **kwargs)

    monkeypatch.setattr(Message, "__init__", counted_init)
    monkeypatch.setattr(EventKernel, "send", counted_send)
    monkeypatch.setattr(EventKernel, "send_many", counted_send_many)
    monkeypatch.setattr(EventKernel, "_deliver", counted_deliver)
    monkeypatch.setattr(GnutellaProtocol, "start_search", counted_start_search)
    toy_round("flood")

    # the guard bites: copies outnumber hops, and some fan-outs are all absorbed
    assert calls["queued copies"] > 2 * calls["queuing fan-outs"] > 0
    assert calls["absorbed fan-outs"] > 0
    assert len(built) == calls["queuing fan-outs"] + calls["send"] + calls["start_search"]
    assert len(built) == committed_work()["flood"]["network.messages.Message.init"]
    # the flood runs without faults: one delivery event per queued copy
    assert {key: sorted(recipients) for key, recipients in delivered.items()} == hops


def test_a_peer_storing_nothing_in_the_community_never_evaluates(monkeypatch):
    """On the ``flood`` toy round every ``CompiledQuery.evaluate`` runs
    inside a ``LocalRepository.search`` whose repository stores at least
    one object of the plan's community; most searches reach a repository
    that stores none."""
    searching = []   # the repository whose search is running
    verdicts = []    # per evaluate: does the searched repository hold the community?
    empty_searches = 0
    search, evaluate = LocalRepository.search, CompiledQuery.evaluate

    def holds(repository, community_id):
        return any(stored.community_id == community_id for stored in repository.documents)

    def recording_search(self, plan):
        nonlocal empty_searches
        empty_searches += not holds(self, plan.community_id)
        searching.append(self)
        try:
            return search(self, plan)
        finally:
            searching.pop()

    def recording_evaluate(self, index):
        repository = searching[-1]
        assert index is repository.index
        verdicts.append(holds(repository, self.community_id))
        return evaluate(self, index)

    monkeypatch.setattr(LocalRepository, "search", recording_search)
    monkeypatch.setattr(CompiledQuery, "evaluate", recording_evaluate)
    toy_round("flood")

    assert verdicts and empty_searches > len(verdicts)   # the guard bites
    assert all(verdicts)


def test_a_repeated_directory_round_builds_no_new_hit(monkeypatch):
    """The index server's catalog shares one frozen hit per record and
    depth: a second round of the same searches on the same scenario gets
    the same answers without ``HubCatalog.take`` building one result."""
    built = []
    search_result = twotier.SearchResult

    def counting(*args):
        built.append(args)
        return search_result(*args)

    monkeypatch.setattr(twotier, "SearchResult", counting)
    scenario, counts = toy_round("directory")
    assert built   # the first round builds the hits: the guard bites
    built.clear()
    assert run_round(scenario) == counts
    assert built == []


if __name__ == "__main__":
    ledger = {name: work_ledger(name) for name in sorted(GOLDEN)}
    WORK_LEDGER.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n", encoding="utf-8")
