"""A super-peer heartbeat costs its sends, fault decisions and events only.

* Heartbeat rows: each leaf keeps one row ``[super id, link latency,
  PING, PONG or None]`` (``SuperPeerProtocol._heartbeats``).  After each
  way a leaf changes super (its lease lapsing, its super departing, a
  re-election) its next PING goes to its current super at the link's
  latency, and the row equals a fresh build.  Only the row's own PING is
  answered from the row; any other PING gets a fresh PONG.  The table
  holds at most one row per peer, however often leaves re-home.
* A live re-election is kept: for a lease after it nobody sends a
  LEAF-ATTACH, and each moved leaf heartbeats the super it was given.
* Over churn schedules (with loss, and with re-elections that attach
  leaves unstamped), the tick purges the same ``(hub, leaf)`` pairs and
  queues the same sends and drops, in the same order and at the same
  instants, as the tick before heartbeat rows, kept below as the
  reference.
"""

import dataclasses
import types
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.faults import FaultPlan
from repro.network.messages import MessageType, ping_message, pong_message
from tests.network.harness import INTERVAL_MS, live_network, settle

def record_sends(network):
    """Every ``(message, latency_ms, the sender's super then)`` the kernel
    is asked to send."""
    sent = []
    send = network.kernel.send

    def recording(message, **kwargs):
        sent.append((message, kwargs.get("latency_ms"),
                     network.peers[message.sender].super_peer_id))
        send(message, **kwargs)

    network.kernel.send = recording
    return sent


def assert_row_is_fresh(network, leaf_id):
    row = network._heartbeats[leaf_id]
    super_id = network.peers[leaf_id].super_peer_id
    ping = row[2]
    assert row[:2] == [super_id, network.simulator.link_latency(leaf_id, super_id)]
    assert ping == dataclasses.replace(ping_message(leaf_id, super_id),
                                       message_id=ping.message_id)
    assert row[3] is None or row[3] == pong_message(super_id, leaf_id,
                                                    message_id=ping.message_id)


def lapse_the_lease(network, leaf_id):
    """The leaf's super has been silent for a lease: the tick re-homes it."""
    network.peers[leaf_id].last_pong_ms.clear()
    network._on_maintenance_tick(network.simulator.now)


def depart_the_super(network, leaf_id):
    network.depart(network.peers[leaf_id].super_peer_id)
    settle(network, 5 * network.heartbeat_lease_ms)


def re_elect(network, leaf_id):
    network.elect_super_peers(len(network.hub_ids()) + 1)


#: each way a leaf changes super: the change, given the network and a leaf
REHOMES = {"lease lapse": lapse_the_lease, "super departs": depart_the_super,
           "re-election": re_elect}


@pytest.mark.parametrize("name", sorted(REHOMES))
def test_after_a_rehome_the_next_ping_goes_to_the_current_super(name):
    rehome = REHOMES[name]
    moved = 0
    for leaf_id in sorted(live_network("super-peer").peers)[2:]:    # the two supers are 000 and 001
        network = live_network("super-peer")
        network.go_live()
        settle(network, 2 * INTERVAL_MS)
        old_super = network._heartbeats[leaf_id][0]
        assert_row_is_fresh(network, leaf_id)
        rehome(network, leaf_id)
        sent = record_sends(network)
        settle(network, 3 * INTERVAL_MS)
        pings = [sent_ping for sent_ping in sent
                 if sent_ping[0].type is MessageType.PING and sent_ping[0].sender == leaf_id]
        if not pings:
            assert leaf_id in network._hubs    # promoted by the re-election
            continue
        message, latency, super_id = pings[0]
        moved += super_id != old_super
        assert message.recipient == super_id
        assert latency == network.simulator.link_latency(leaf_id, super_id)
        assert message is network._heartbeats[leaf_id][2]
        assert_row_is_fresh(network, leaf_id)
    assert moved    # some leaf's next PING went to another super


def test_a_live_re_election_is_not_undone_by_the_next_lease():
    """The election's move grants the leaf's lease like a LEAF-ATTACH
    does: nobody re-homes, and each moved leaf heartbeats (and stays
    listed at) the super the election gave it."""
    network = live_network("super-peer")
    network.go_live()
    settle(network, 2 * INTERVAL_MS)
    leaves = sorted(network.peers)[3:]    # the supers are 000, 001 and 002 after it
    before = {leaf_id: network.peers[leaf_id].super_peer_id for leaf_id in leaves}
    re_elect(network, None)
    elected = {leaf_id: network.peers[leaf_id].super_peer_id for leaf_id in leaves}
    moved = [leaf_id for leaf_id in leaves if elected[leaf_id] != before[leaf_id]]
    assert moved
    attaches = network.stats.messages_of(MessageType.LEAF_ATTACH)
    sent = record_sends(network)
    settle(network, network.heartbeat_lease_ms)
    assert network.stats.messages_of(MessageType.LEAF_ATTACH) == attaches
    for leaf_id in moved:
        ping = next(message for message, _latency, _super in sent
                    if message.type is MessageType.PING and message.sender == leaf_id)
        assert ping.recipient == elected[leaf_id]
        assert network.peers[leaf_id].super_peer_id == elected[leaf_id]
        assert leaf_id in network._hubs[elected[leaf_id]].members


def test_only_the_rows_own_ping_is_answered_from_the_row():
    network = live_network("super-peer")
    network.go_live()
    settle(network, 2 * INTERVAL_MS)
    leaf_id = next(leaf for leaf in sorted(network._heartbeats))
    row = network._heartbeats[leaf_id]
    super_peer = network.peers[row[0]]
    row_pong = row[3]
    assert row_pong is not None    # the row's PING was answered already
    sent = record_sends(network)
    network._on_ping(super_peer, row[2], None)
    # A PING the leaf sent before its current row (one in flight across a
    # re-home) is not the row's: it gets its own PONG.
    stale = ping_message(leaf_id, super_peer.peer_id)
    network._on_ping(super_peer, stale, None)
    network._on_ping(super_peer, row[2], None)
    (first, first_latency, _), (fresh, fresh_latency, _), (again, _, _) = sent
    assert first is row_pong and again is row_pong and row[3] is row_pong
    assert first_latency == row[1]
    assert fresh is not row_pong and fresh_latency is None
    assert fresh == pong_message(super_peer.peer_id, leaf_id, message_id=stale.message_id)
    assert fresh.size_bytes == row_pong.size_bytes == 37


def test_the_table_holds_at_most_one_row_per_peer_after_churn():
    network = live_network("super-peer", 16, faults=FaultPlan(seed=3, loss_rate=0.2))
    network.go_live()
    attaches = network.stats.messages_of(MessageType.LEAF_ATTACH)
    for step, peer_id in enumerate(sorted(network.peers)):
        network.simulator.post(step * 150.0, network.set_online, peer_id, False)
        network.simulator.post(step * 150.0 + 900.0, network.set_online, peer_id, True)
    settle(network, 20 * INTERVAL_MS)
    rows = network._heartbeats
    assert network.stats.messages_of(MessageType.LEAF_ATTACH) > attaches + len(network.peers)
    assert set(rows) <= set(network.peers)
    assert all(row[2].sender == leaf_id for leaf_id, row in rows.items())
    assert max(Counter(row[2].sender for row in rows.values()).values()) == 1


# ----------------------------------------------------------------------
# The row tick equals the tick it replaced
# ----------------------------------------------------------------------
def reference_tick(self, now):
    """The tick before heartbeat rows: every heartbeat is a fresh PING,
    answered by a fresh PONG at the link latency looked up again."""
    lease = self.heartbeat_lease_ms
    for peer_id in sorted(self.peers):
        peer = self.peers[peer_id]
        if not peer.online:
            continue
        hub = self._hubs.get(peer_id)
        if hub is not None:
            for leaf_id in sorted(hub.members):
                if hub.last_heard.get(leaf_id, 0.0) <= now - lease:
                    self._purge_leaf(peer_id, leaf_id, now=now)
            continue
        super_id = peer.super_peer_id
        if super_id is None or super_id not in self._hubs \
                or peer.last_pong_ms.get(super_id, 0.0) <= now - lease:
            self._live_attach(peer)
        else:
            self.kernel.send(ping_message(peer_id, super_id))


def trace(network):
    """Record the tick's purges and every queued delivery or drop."""
    purges, sends = [], []
    purge, post = network._purge_leaf, network.simulator.post

    def recording_purge(hub_id, leaf_id, **kwargs):
        purges.append((hub_id, leaf_id))
        purge(hub_id, leaf_id, **kwargs)

    def recording_post(delay, callback, *args):
        if callback.__name__ in ("_deliver", "_drop"):
            message, recipient = args[0], args[1]
            sends.append((callback.__name__, message.type, message.sender, recipient,
                          network.simulator.now + delay))
        return post(delay, callback, *args)

    network._purge_leaf = recording_purge
    network.simulator.post = recording_post
    return purges, sends


schedules = st.lists(st.tuples(st.sampled_from(["offline", "online", "depart", "elect"]),
                               st.integers(0, 11), st.floats(0.0, 2_400.0)),
                     max_size=12)


def run_schedule(schedule, loss_rate, *, reference):
    faults = FaultPlan(seed=5, loss_rate=loss_rate) if loss_rate else None
    network = live_network("super-peer", 12, faults=faults)
    network.go_live()
    if reference:
        network._on_maintenance_tick = types.MethodType(reference_tick, network)
    purges, sends = trace(network)
    ids = sorted(network.peers)
    for action, pick, at_ms in schedule:
        peer_id = ids[pick]
        if action == "elect":
            network.simulator.post(at_ms, network.elect_super_peers, 1 + pick % 3)
        elif action == "depart":
            network.simulator.post(at_ms, network.depart, peer_id)
        else:
            network.simulator.post(at_ms, network.set_online, peer_id, action == "online")
    settle(network, 3_000.0)
    members = {hub_id: sorted(hub.members) for hub_id, hub in network._hubs.items()}
    return purges, sends, members


@settings(max_examples=60, deadline=None, derandomize=True)
@given(schedule=schedules, loss_rate=st.sampled_from([0.0, 0.15]))
def test_the_row_tick_purges_and_sends_as_the_tick_it_replaced(schedule, loss_rate):
    with_rows = run_schedule(schedule, loss_rate, reference=False)
    assert with_rows == run_schedule(schedule, loss_rate, reference=True)
