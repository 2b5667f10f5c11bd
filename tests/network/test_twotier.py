"""The lifecycle the two two-tier adapters share (``TwoTierNetwork``),
plus the structural constraint the bench tracer puts on every adapter."""

from __future__ import annotations

import pytest

from repro.network.base import PeerNetwork
from repro.network.rendezvous import RendezvousProtocol
from repro.network.superpeer import SuperPeerProtocol
from repro.storage.index import AttributeIndex
from repro.storage.query import Query
from repro.workloads.scenario import PROTOCOLS
from repro.xmlkit.parser import parse


def elect(network, count=None):
    if isinstance(network, SuperPeerProtocol):
        return network.elect_super_peers(count)
    return network.elect_rendezvous(count)


def unelected(name: str):
    if name == "super-peer":
        network = SuperPeerProtocol(seed=3, super_peer_ratio=0.25)
    else:
        network = RendezvousProtocol(seed=3, rendezvous_ratio=0.25)
    for index in range(12):
        network.create_peer(f"peer-{index:02d}")
    return network


def share(network, peer_id: str) -> None:
    """``peer_id`` stores one pattern and publishes it."""
    title = f"Pattern {peer_id}"
    metadata = {"name": [title]}
    document = parse(f"<pattern><name>{title}</name></pattern>").root
    stored = network.peers[peer_id].repository.publish("patterns", document, metadata,
                                                       title=title)
    network.publish(peer_id, "patterns", stored.resource_id, metadata, title=title)


def build(name: str):
    network = unelected(name)
    hubs = elect(network)
    for peer_id in sorted(network.peers):
        if peer_id not in hubs:
            share(network, peer_id)
    return network, hubs


@pytest.fixture
def indexes_built(monkeypatch):
    built = []
    original = AttributeIndex.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(AttributeIndex, "__init__", counting)
    return built


def members_of(network, hub_id):
    return sorted(peer.peer_id for peer in network.peers.values()
                  if peer.super_peer_id == hub_id and peer.peer_id != hub_id)


@pytest.mark.parametrize("name", ("super-peer", "rendezvous"))
class TestTwoTierChurn:
    def test_election_builds_one_index_per_hub(self, name, indexes_built):
        before = len(indexes_built)
        network, hubs = build(name)
        assert hubs == ["peer-00", "peer-01", "peer-02"] == network.hub_ids()
        # (every peer's repository owns an index too)
        assert len(indexes_built) - before == len(network.peers) + len(hubs)
        for peer in network.peers.values():
            assert peer.super_peer_id in hubs
            assert (peer.super_peer_id == peer.peer_id) == (peer.peer_id in hubs)
        # A re-election keeps the surviving hubs' state and builds none.
        del indexes_built[:]
        assert elect(network, 2) == ["peer-00", "peer-01"] == network.hub_ids()
        assert indexes_built == []
        assert "peer-02" not in network.hub_ids()
        assert network.peers["peer-02"].super_peer_id in ("peer-00", "peer-01")

    def test_hub_departure_rehomes_orphans_without_building_hub_state(
            self, name, indexes_built):
        network, hubs = build(name)
        departed = next(hub_id for hub_id in hubs if members_of(network, hub_id))
        orphans = members_of(network, departed)
        del indexes_built[:]
        network.set_online(departed, False)
        assert indexes_built == []  # no throw-away hub state, no throw-away index
        survivors = network.hub_ids()
        assert survivors == [hub_id for hub_id in hubs if hub_id != departed]
        assert departed not in network.hub_ids()
        for orphan_id in orphans:
            assert network.peers[orphan_id].super_peer_id in survivors
        # The departed hub comes back as an ordinary member, and a
        # permanent departure never returns.
        network.set_online(departed, True)
        assert network.peers[departed].super_peer_id in survivors
        network.depart(survivors[0])
        assert network.hub_ids() == survivors[1:]
        assert indexes_built == []

    def test_orphans_stay_searchable_after_their_hub_departs(self, name):
        network, hubs = build(name)
        departed = next(hub_id for hub_id in hubs if members_of(network, hub_id))
        orphan = members_of(network, departed)[0]
        network.set_online(departed, False)
        asker = next(peer_id for peer_id in sorted(network.peers)
                     if peer_id not in (orphan, departed))
        response = network.search(asker, Query.keyword("patterns", orphan), max_results=50)
        assert orphan in {result.provider_id for result in response.results}

    def test_a_promoted_member_leaves_its_old_hub(self, name):
        network, hubs = build(name)
        old_hub = network.peers["peer-03"].super_peer_id
        assert elect(network, 4) == hubs + ["peer-03"]
        # Its old hub's departure re-homes that hub's members, and the
        # promoted peer is none of them any more.
        network.set_online(old_hub, False)
        assert network.peers["peer-03"].super_peer_id == "peer-03"
        response = network.search("peer-11", Query.keyword("patterns", "peer-03"))
        assert {result.provider_id for result in response.results} == {"peer-03"}

    def test_a_publish_that_elects_registers_its_object_once(self, name):
        network = unelected(name)
        # The first publish elects the hubs and attaches the publisher,
        # and the attach is the one registration.
        share(network, "peer-07")
        assert network.hub_ids() == ["peer-00", "peer-01", "peer-02"]
        assert network.stats.registrations == 1

    def test_last_hub_leaving_triggers_a_fresh_election_on_return(self, name):
        network, hubs = build(name)
        for peer_id in sorted(network.peers):
            network.set_online(peer_id, False)
        assert network.hub_ids() == []
        network.set_online("peer-07", True)
        assert network.hub_ids() == ["peer-07"]
        assert network.peers["peer-07"].super_peer_id == "peer-07"


def test_traced_primitives_are_defined_where_the_bench_tracer_looks():
    """``bench/trace.py`` wraps ``publish`` / ``start_search`` /
    ``finish_search`` only on ``PeerNetwork`` and the ``PROTOCOLS``
    classes, and only where the class defines the method itself: a
    primitive inherited from an intermediate base would silently lose
    its span (``network.base.publish_calls`` would read zero)."""
    for adapter in PROTOCOLS.values():
        assert "publish" in vars(adapter), adapter
        assert "start_search" in vars(adapter), adapter
    assert "finish_search" in vars(PeerNetwork)
