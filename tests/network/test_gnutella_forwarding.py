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
* every QUERY copy sent meets exactly one fate — absorbed at send, or
  held at send behind an earlier copy, among them — and nothing of a
  flood is left queued or pending at quiescence;
* a peer forwards to its *online* neighbours only, and the cached
  fan-out follows a neighbour offline and back.
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
from repro.storage.query import Query
from repro.workloads.scenario import ScenarioConfig, build_scenario
from tests.network.test_contract import GNUTELLA_ONCE_PER_NODE, HoldOracle

#: absolute virtual instant the fault plan is armed at, well past the
#: bootstrap of :func:`fixed_scenario` (≈ 154 s); searches start from it
EPOCH_MS = 300_000.0
SPACING_MS = 40.0
FAULTS = FaultPlan(seed=41, loss_rate=0.1, duplicate_rate=0.1,
                   extra_delay_rate=0.2, extra_delay_ms=30.0)

#: sha256 of the per-search ``(provider, resource, hops)`` hits of
#: :func:`searches_at_fixed_instants` under ``FAULTS``.  First frozen
#: while the flood still echoed every QUERY back to its sender; rebased
#: once since, when fault rolls moved from a Mersenne Twister seeded per
#: message to BLAKE2b lanes over the same content key (every fate is
#: re-drawn, so the hits move with them).  The echoing flood, run under
#: the new rolls, reproduces the rebased hits too.
GOLDEN_FAULTED_HITS = "1314340b13470936821e6aa03784744a5b0ecf78741de3d15bd6361f0f53cf25"


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
        network.simulator.post(
            SPACING_MS * index,
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
    and every arrival-time event of one, by copy.  A copy is keyed by its
    flood's descriptor id, its sender and its recipient — a peer forwards
    a flood once, so the key names one copy, built, absorbed or held.
    A held copy a delivery releases is queued after all, and meets the
    fate of its arrival instead.  The kernel looks its methods up per
    send, so wrapping a built network catches every later copy."""

    def __init__(self, monkeypatch):
        self.sent = set()                            # keys of the copies sent
        self.duplicated = collections.Counter()      # key -> extra deliveries
        self.events = collections.Counter()          # key -> arrival events
        self.fates = collections.Counter()           # fate -> arrival events
        self.released = 0                            # held copies re-queued
        self.hop = None                              # the message being fanned out
        self.oracle = None                           # HoldOracle of the kernel
        send_many = EventKernel.send_many
        post_faulted = EventKernel._post_faulted
        deliver = EventKernel._deliver
        drop = EventKernel._drop
        fates = self

        def oracle(kernel):
            if fates.oracle is None:
                fates.oracle = HoldOracle(kernel, GNUTELLA_ONCE_PER_NODE)
            return fates.oracle

        def counting_send_many(kernel, message, sender, fan_out, *, exclude="", context=None):
            # QUERY is delivered once per node: a copy to a node the flood
            # already visited is absorbed at send, its fault duplicates
            # with it, and one queued behind an earlier copy is held.
            absorbed, held = oracle(kernel).fan_out(message, sender, fan_out, exclude, context)
            if message.type is MessageType.QUERY:
                fates.sent.update((message.message_id, sender, recipient)
                                  for recipient, _latency in fan_out
                                  if recipient != exclude)   # the deliverer gets none
            fates.hop = message
            send_many(kernel, message, sender, fan_out, exclude=exclude, context=context)
            fates.hop = None
            if message.type is MessageType.QUERY:
                for recipient in absorbed:
                    key = (message.message_id, sender, recipient)
                    for _ in range(1 + fates.duplicated[key]):
                        fates.book(key, "absorbed")
                for recipient in held:
                    fates.book((message.message_id, sender, recipient), "held")

        def counting_post_faulted(kernel, delay, sender, recipient, hop, context,
                                  decision=None):
            duplicated = kernel.stats.duplicated
            post_faulted(kernel, delay, sender, recipient, hop, context, decision)
            message = hop if hop is not None else fates.hop   # None: absorbed
            if message.type is MessageType.QUERY:
                fates.duplicated[(message.message_id, sender, recipient)] += (
                    kernel.stats.duplicated - duplicated)

        def counting_deliver(kernel, message, recipient, context):
            for message_id, sender in oracle(kernel).arrive(recipient, context):
                # Released into the queue: it meets its arrival's fate.
                fates.events[(message_id, sender, recipient)] -= 1
                fates.fates["held"] -= 1
                fates.released += 1
            if message.type is MessageType.QUERY:
                peer = kernel.peers.get(recipient)
                if peer is None or not peer.online:
                    fates.book(key_of(message, recipient), "offline")
                elif recipient in context.visited:
                    fates.book(key_of(message, recipient), "duplicate")
                else:
                    fates.book(key_of(message, recipient), "handled")
            deliver(kernel, message, recipient, context)

        def counting_drop(kernel, message, recipient, context):
            if message.type is MessageType.QUERY:
                fates.book(key_of(message, recipient), "dropped")
            drop(kernel, message, recipient, context)

        monkeypatch.setattr(EventKernel, "send_many", counting_send_many)
        monkeypatch.setattr(EventKernel, "_post_faulted", counting_post_faulted)
        monkeypatch.setattr(EventKernel, "_deliver", counting_deliver)
        monkeypatch.setattr(EventKernel, "_drop", counting_drop)

    def book(self, key, fate):
        self.events[key] += 1
        self.fates[fate] += 1


def key_of(message, recipient):
    """The key of the copy of ``message`` a delivery or drop event
    carries to ``recipient`` (a fan-out's copies share one message)."""
    return message.message_id, message.sender, recipient


@pytest.mark.parametrize("plan", [None, FAULTS], ids=["clean", "faults"])
def test_every_query_copy_meets_exactly_one_fate(monkeypatch, plan):
    """Absorbed at send (its recipient already visited), held at send
    behind an earlier copy and never released, handled at its first
    arrival, filtered as a duplicate, delivered to an offline peer, or
    dropped by a fault — one of the six per copy (plus one more per
    extra delivery the duplication fault made), and nothing of any flood
    left queued or pending at quiescence.  A held copy that a delivery
    to its offline recipient releases meets its arrival's fate."""
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
    assert fates.fates["absorbed"] > 0
    if plan is not None:
        assert fates.fates["dropped"] > 0 and sum(fates.duplicated.values()) > 0
        assert fates.fates["held"] == fates.released == 0   # a faulted flood holds nothing
    else:
        assert fates.fates["dropped"] == 0 and not fates.duplicated
        assert fates.fates["held"] > 0 and fates.released > 0

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

    def recording_send_many(self, message, sender, fan_out, *, exclude="", context=None):
        # A re-flood runs inside the handler that just booked its sender.
        if isinstance(context, MembershipContext) and message.type is MessageType.PING:
            sent.extend((sender, recipient, delivered_by[sender])
                        for recipient, _latency in fan_out if recipient != exclude)
        send_many(self, message, sender, fan_out, exclude=exclude, context=context)

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


def test_a_neighbour_offline_between_two_searches_leaves_the_fan_out_and_returns(monkeypatch):
    """A peer's online fan-out is cached across floods, and an online
    transition of one neighbour is seen by the next search: offline, it
    gets no copy from anyone; back online, the origin sends it one again."""
    network = GnutellaProtocol(seed=1, degree=4, default_ttl=3)
    for index in range(16):
        network.create_peer(f"peer-{index:02d}")
    network.build_overlay()
    origin = network.peers["peer-00"]
    neighbours = sorted(origin.neighbors)
    leaver = neighbours[0]
    fan_outs = []   # per search: (sender, recipients) of every QUERY fan-out
    send_many = EventKernel.send_many

    def recording_send_many(self, message, sender, fan_out, *, exclude="", context=None):
        fan_outs[-1].append((sender, [recipient for recipient, _latency in fan_out
                                      if recipient != exclude]))
        send_many(self, message, sender, fan_out, exclude=exclude, context=context)

    monkeypatch.setattr(EventKernel, "send_many", recording_send_many)

    def search():
        fan_outs.append([])
        network.search("peer-00", Query("patterns"))
        sender, recipients = fan_outs[-1][0]
        assert sender == "peer-00"
        return recipients, {recipient for _, sent in fan_outs[-1] for recipient in sent}

    assert len(neighbours) >= 2
    first, reached = search()
    assert first == neighbours and leaver in reached
    network.set_online(leaver, False)
    second, reached = search()
    assert second == neighbours[1:] and leaver not in reached
    assert network._fan_out(origin) == network.kernel.fan_out("peer-00", neighbours[1:])
    network.set_online(leaver, True)
    third, reached = search()
    assert third == neighbours and leaver in reached
    assert network._fan_out(origin) == network.kernel.fan_out("peer-00", neighbours)
