"""Gnutella's forwarding rule, and what it must leave alone.

A servent forwards a descriptor to every neighbour *except the one that
delivered it*.  That copy could only ever arrive as a duplicate, so
dropping it changes message and byte counts and nothing a search
returns:

* the discovery PING re-flood never echoes either (its ``visited`` set
  holds the delivering neighbour);
* under faults, every surviving copy keeps its fate — decisions are
  keyed by sender, recipient and send instant — so searches issued at
  fixed instants return the hits frozen before the rule was enforced;
* every QUERY copy sent meets exactly one fate, and nothing of a flood
  is left queued or pending at quiescence.
"""

import collections
import hashlib
import json

import pytest

from repro.engine.kernel import EventKernel, MembershipContext
from repro.network.config import MembershipConfig
from repro.network.faults import FaultPlan
from repro.network.gnutella import GnutellaProtocol
from repro.network.messages import MessageType
from repro.workloads.scenario import ScenarioConfig, build_scenario

#: absolute virtual instant the fault plan is armed at, well past the
#: bootstrap of :func:`fixed_scenario` (≈ 154 s); searches start from it
EPOCH_MS = 300_000.0
SPACING_MS = 40.0
FAULTS = FaultPlan(seed=41, loss_rate=0.1, duplicate_rate=0.1,
                   extra_delay_rate=0.2, extra_delay_ms=30.0)

#: sha256 of the per-search ``(provider, resource, hops)`` hits of
#: :func:`searches_at_fixed_instants` under ``FAULTS``, frozen while the
#: flood still echoed every QUERY back to its sender
GOLDEN_FAULTED_HITS = "2ab91aaf1c7d8db272a0789e2943ef1f86edfd3d34b03ed16cc537ca39aeaa57"


def fixed_scenario(**knobs):
    return build_scenario(ScenarioConfig(
        protocol="gnutella", peers=60, members=12, publishers=6, corpus_size=40,
        queries=24, ttl=5, seed=3, **knobs))


def searches_at_fixed_instants(scenario, plan):
    """Arm ``plan`` at :data:`EPOCH_MS`, start every workload search at its
    own fixed instant after it, and run them all to completion.

    Fixed instants keep the fault keys independent of how long bootstrap
    and earlier searches took: a flood that sends fewer messages may end
    sooner, which in a driver that starts each batch when the last one
    finished moves every later send instant — and with it every draw.
    """
    network = scenario.network
    assert network.simulator.now < EPOCH_MS
    network.simulator.run(until_ms=EPOCH_MS)
    if plan is not None:
        network.install_faults(plan)
    contexts = []
    members = scenario.members()
    for index, query in enumerate(scenario.workload):
        origin_id = members[index % len(members)].peer_id
        network.simulator.schedule_at(
            EPOCH_MS + SPACING_MS * index,
            lambda origin_id=origin_id, query=query: contexts.append(
                network.start_search(origin_id, query, max_results=100)))
    network.simulator.run(until_ms=EPOCH_MS + SPACING_MS * (len(scenario.workload) - 1))
    network.kernel.run_until_complete(contexts)
    return contexts


def test_surviving_copies_keep_their_fault_fates():
    """Faults are keyed by sender, recipient and send instant, so dropping
    the echoes leaves every other copy's fate — and every hit — alone.

    The exception is the occurrence index: two sends on one link at one
    instant draw as ``#0`` and ``#1``, and an echo holding ``#0`` hands
    its slot to the next send when it goes.  With searches 40 ms apart
    no such pair forms here; started at one instant, a handful do.
    """
    scenario = fixed_scenario()
    contexts = searches_at_fixed_instants(scenario, FAULTS)
    network = scenario.network
    hits = [sorted((result.provider_id, result.resource_id, result.hops)
                   for result in network.finish_search(context).results)
            for context in contexts]
    assert len(hits) == 24 and sum(map(len, hits)) > 0
    assert network.stats.dropped > 0 and network.stats.duplicated > 0
    assert hashlib.sha256(json.dumps(hits).encode()).hexdigest() == GOLDEN_FAULTED_HITS


class _QueryFates:
    """Test-side wrappers on the kernel that book every QUERY copy sent
    and every arrival-time event of one, by copy.  The kernel looks its
    methods up per send, so wrapping a built network catches every
    later copy."""

    def __init__(self, monkeypatch):
        self.sent = {}                               # id(copy) -> copy
        self.duplicated = collections.Counter()      # id(copy) -> extra deliveries
        self.events = collections.Counter()          # id(copy) -> arrival events
        self.fates = collections.Counter()           # fate -> arrival events
        send_many = EventKernel.send_many
        post_faulted = EventKernel._post_faulted
        deliver = EventKernel._deliver
        drop = EventKernel._drop
        fates = self

        def counting_send_many(kernel, messages, *, context=None):
            for copy in messages:
                if copy.type is MessageType.QUERY:
                    fates.sent[id(copy)] = copy
            send_many(kernel, messages, context=context)

        def counting_post_faulted(kernel, delay, message, context):
            duplicated = kernel.stats.duplicated
            post_faulted(kernel, delay, message, context)
            if message.type is MessageType.QUERY:
                fates.duplicated[id(message)] += kernel.stats.duplicated - duplicated

        def counting_deliver(kernel, message, context):
            if message.type is MessageType.QUERY:
                peer = kernel.peers.get(message.recipient)
                if peer is None or not peer.online:
                    fates.book(message, "offline")
                elif message.recipient in context.visited:
                    fates.book(message, "duplicate")
                else:
                    fates.book(message, "handled")
            deliver(kernel, message, context)

        def counting_drop(kernel, message, context):
            if message.type is MessageType.QUERY:
                fates.book(message, "dropped")
            drop(kernel, message, context)

        monkeypatch.setattr(EventKernel, "send_many", counting_send_many)
        monkeypatch.setattr(EventKernel, "_post_faulted", counting_post_faulted)
        monkeypatch.setattr(EventKernel, "_deliver", counting_deliver)
        monkeypatch.setattr(EventKernel, "_drop", counting_drop)

    def book(self, message, fate):
        self.events[id(message)] += 1
        self.fates[fate] += 1


@pytest.mark.parametrize("plan", [None, FAULTS], ids=["clean", "faults"])
def test_every_query_copy_meets_exactly_one_fate(monkeypatch, plan):
    """Handled at its first arrival, filtered as a duplicate, delivered to
    an offline peer, or dropped by a fault — one of the four per copy
    (plus one more per extra delivery the duplication fault made), and
    nothing of any flood left queued or pending at quiescence."""
    scenario = fixed_scenario(churn_session_ms=3_000.0, churn_absence_ms=1_500.0)
    fates = _QueryFates(monkeypatch)
    contexts = searches_at_fixed_instants(scenario, plan)
    network = scenario.network

    assert len(fates.sent) == network.stats.messages_by_type["query"]
    assert {key: fates.events[key] for key in fates.sent} \
        == {key: 1 + fates.duplicated[key] for key in fates.sent}
    assert set(fates.events) <= set(fates.sent)
    assert sum(fates.fates.values()) == len(fates.sent) + sum(fates.duplicated.values())
    assert fates.fates["handled"] == sum(context.peers_probed for context in contexts)
    assert fates.fates["duplicate"] > 0 and fates.fates["offline"] > 0
    if plan is not None:
        assert fates.fates["dropped"] > 0 and sum(fates.duplicated.values()) > 0
    else:
        assert fates.fates["dropped"] == 0 and not fates.duplicated

    assert all(context.done and not context.starved and context.pending == 0
               for context in contexts)
    assert not [entry for entry in network.simulator._queue
                if entry[3] and getattr(entry[3][0], "type", None) is MessageType.QUERY]


def test_a_discovery_ping_never_echoes(monkeypatch):
    """The discovery re-flood skips every peer already in the exchange's
    ``visited`` set — the delivering neighbour included."""
    delivered_by = {}   # forwarder -> the neighbour whose discovery PING it handled
    sent = []           # (forwarder, recipient, delivered by) per re-flooded copy
    on_ping = GnutellaProtocol._on_ping
    send_many = EventKernel.send_many

    def recording_on_ping(self, peer, message, context):
        if peer is not None and isinstance(context, MembershipContext):
            delivered_by[peer.peer_id] = message.sender
        on_ping(self, peer, message, context)

    def recording_send_many(self, messages, *, context=None):
        # A re-flood runs inside the handler that just booked its sender.
        if isinstance(context, MembershipContext):
            sent.extend((copy.sender, copy.recipient, delivered_by[copy.sender])
                        for copy in messages if copy.type is MessageType.PING)
        send_many(self, messages, context=context)

    monkeypatch.setattr(GnutellaProtocol, "_on_ping", recording_on_ping)
    monkeypatch.setattr(EventKernel, "send_many", recording_send_many)
    network = GnutellaProtocol(seed=5, degree=3, default_ttl=6,
                               membership=MembershipConfig(maintenance_interval_ms=200.0))
    for index in range(16):
        network.create_peer(f"peer-{index:03d}")
    network.build_overlay()
    network.go_live()
    for index in range(6):   # joins, each one a TTL-2 discovery flood
        network.create_peer(f"zz-newcomer-{index}")
        network.simulator.run(until_ms=network.simulator.now + 150.0)
    network.set_online("peer-001", False)   # its neighbours repair below degree
    network.simulator.run(until_ms=network.simulator.now + 3_000.0)

    assert len(sent) > 6
    assert [copy for copy in sent if copy[1] == copy[2]] == []
