"""The two views a network caches over its peers stay equal to a scan.

* Gnutella's fan-out rows: after each change that can move a peer's
  online neighbours (a rebuilt overlay, a join, a live join, an online
  transition, a discovery link, a dropped link), every peer's cached
  ``(neighbour, link latency)`` row equals a fresh one.
* ``PeerNetwork.online_peers()``: after any sequence of joins, online
  transitions and departures it lists exactly the online peers, in
  insertion order, and gnutella's join draws the same neighbours from it
  as sampling a fresh list of the other online peers.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.kernel import MembershipContext
from repro.network.config import MembershipConfig
from repro.network.gnutella import GnutellaProtocol
from repro.network.messages import pong_message
from repro.network.peers import Peer
from repro.network.superpeer import SuperPeerProtocol


def gnutella(*, live=False):
    network = GnutellaProtocol(seed=4, degree=3, default_ttl=4,
                               membership=MembershipConfig(maintenance_interval_ms=200.0))
    for index in range(12):
        network.create_peer(f"peer-{index:02d}")
    network.build_overlay()
    if live:
        network.go_live()
    return network


def fresh_row(network, peer):
    """``peer``'s online neighbours sorted by id, each with its latency."""
    peers = network.peers
    return [(neighbor_id, network.simulator.link_latency(peer.peer_id, neighbor_id))
            for neighbor_id in sorted(peer.neighbors)
            if neighbor_id in peers and peers[neighbor_id].online]


def rebuild_overlay(network):
    network.degree = 5
    network.build_overlay()


def join(network):
    network.create_peer("peer-new")


def go_offline(network):
    network.set_online(sorted(network.peers["peer-00"].neighbors)[0], False)


def discovery_link(network):
    joiner = network.peers["peer-new"]
    responder = min((peer for peer in network.peers.values() if peer is not joiner),
                    key=lambda peer: (len(peer.neighbors), peer.peer_id))
    context = MembershipContext(peer_id=joiner.peer_id, kind="join")
    network._on_pong(joiner, pong_message(responder.peer_id, joiner.peer_id, message_id="d-1"),
                     context)
    assert responder.peer_id in joiner.neighbors


def drop_link(network):
    peer = network.peers["peer-00"]
    network._drop_link(peer, sorted(peer.neighbors)[0], network.simulator.now)


def live_with_a_stale_link():
    """Live, and a peer still holds a link to the id ``join`` adds."""
    network = gnutella(live=True)
    network.peers["peer-03"].connect("peer-new")
    return network


def live_with_a_joiner():
    """Live, and a newcomer with no link yet (its discovery PING queued)."""
    network = gnutella(live=True)
    network.create_peer("peer-new")
    return network


#: each place the cache is dropped: (the network before, the change)
CHANGES = {
    "build_overlay": (gnutella, rebuild_overlay),
    "join": (gnutella, join),
    "live join": (live_with_a_stale_link, join),
    "set_online": (gnutella, go_offline),
    "discovery link": (live_with_a_joiner, discovery_link),
    "drop link": (gnutella, drop_link),
}


@pytest.mark.parametrize("name", sorted(CHANGES))
def test_every_cached_row_is_fresh_after_each_change(name):
    build, change = CHANGES[name]
    network = build()
    before = {peer_id: list(network._fan_out(peer)) for peer_id, peer in network.peers.items()}
    assert all(before[peer_id] == fresh_row(network, peer)
               for peer_id, peer in network.peers.items())
    change(network)
    fresh = {peer_id: fresh_row(network, peer) for peer_id, peer in network.peers.items()}
    # the change moved some peer's row, so a row it left stale would show
    assert any(before[peer_id] != fresh[peer_id] for peer_id in before)
    assert {peer_id: network._fan_out(peer) for peer_id, peer in network.peers.items()} == fresh


NETWORKS = {
    "gnutella": lambda: GnutellaProtocol(seed=2, degree=3),
    "super-peer": lambda: SuperPeerProtocol(seed=2, super_peer_ratio=0.25),
}

steps = st.lists(st.tuples(st.sampled_from(["join", "join offline", "online", "offline",
                                            "depart"]),
                           st.integers(0, 40)), max_size=40)


def scan(network):
    return [peer for peer in network.peers.values() if peer.online]


def expected_join_sample(network, peer_id):
    """What gnutella's join drew before the index: a sample of a fresh
    list of the other online peers, from the simulator's RNG as it is."""
    rng = random.Random()
    rng.setstate(network.simulator.random.getstate())
    others = [peer for peer in scan(network) if peer.peer_id != peer_id]
    return {peer.peer_id for peer in rng.sample(others, min(network.degree, len(others)))}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from(sorted(NETWORKS)), steps=steps)
def test_the_online_index_is_a_scan(kind, steps):
    network = NETWORKS[kind]()
    for index in range(4):
        network.create_peer(f"peer-{index:02d}")
    for number, (action, pick) in enumerate(steps):
        ids = sorted(network.peers)
        target = ids[pick % len(ids)]
        if action.startswith("join"):
            peer = Peer(peer_id=f"joiner-{number:02d}", online=action == "join")
            expected = (expected_join_sample(network, peer.peer_id)
                        if kind == "gnutella" else None)
            network.add_peer(peer)
            if expected is not None:
                assert peer.neighbors == expected
        elif action == "depart":
            network.depart(target)
        else:
            network.set_online(target, action == "online")
        assert [id(peer) for peer in network.online_peers()] == [id(peer) for peer in scan(network)]
