"""Index completeness, off mode: whatever churn did, a keyword search
from an online peer that shares nothing finds every object of every
online provider.

Checked by search only, for the three organisations with an index
point (centralized, super-peer, rendezvous), over generated schedules of
offline, online and permanent-departure steps.  The examples below pin
the two schedules that once lost objects: every hub leaving (the next
return elects afresh, and a newly elected hub must index its own
objects) and a rendezvous edge re-homed by its hub's departure (the move
must re-register what the edge shares).
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.network.centralized import CentralizedProtocol
from repro.network.rendezvous import RendezvousProtocol
from repro.network.superpeer import SuperPeerProtocol
from repro.storage.query import Query
from repro.xmlkit.parser import parse

PEERS = 12
#: every third peer shares nothing: the searchers (peer-02 starts as a hub)
SEARCHERS = {f"peer-{index:02d}" for index in range(2, PEERS, 3)}

ORGANISATIONS = {
    "centralized": lambda: CentralizedProtocol(seed=3),
    "super-peer": lambda: SuperPeerProtocol(seed=3, super_peer_ratio=0.25),
    "rendezvous": lambda: RendezvousProtocol(seed=3, rendezvous_ratio=0.25),
}


def build(name):
    network = ORGANISATIONS[name]()
    for index in range(PEERS):
        network.create_peer(f"peer-{index:02d}")
    for peer in network.peers.values():
        if peer.peer_id not in SEARCHERS:
            title = f"Pattern {peer.peer_id}"
            metadata = {"name": [title]}
            document = parse(f"<pattern><name>{title}</name></pattern>").root
            stored = peer.repository.publish("patterns", document, metadata, title=title)
            network.publish(peer.peer_id, "patterns", stored.resource_id, metadata,
                            title=title)
    return network


def apply(network, schedule):
    ids = sorted(network.peers)
    for action, pick in schedule:
        if action == "depart":
            network.depart(ids[pick])
        else:
            network.set_online(ids[pick], action == "online")


def misses(network):
    """(searcher, provider, resource) for every online provider's object a
    keyword search from an online searcher does not find."""
    shared = {(peer.peer_id, stored.resource_id)
              for peer in network.peers.values() if peer.online
              for stored in peer.repository.documents}
    missed = []
    for searcher in sorted(SEARCHERS):
        if not network.peers[searcher].online:
            continue
        response = network.search(searcher, Query.keyword("patterns", "pattern"),
                                  max_results=4 * PEERS)
        found = {(result.provider_id, result.resource_id) for result in response.results}
        missed += [(searcher, *pair) for pair in sorted(shared - found)]
    return missed


steps = st.lists(st.tuples(st.sampled_from(["offline", "online", "depart"]),
                           st.integers(0, PEERS - 1)),
                 max_size=10)


@pytest.mark.parametrize("name", sorted(ORGANISATIONS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(schedule=steps)
# every hub leaves; the first peer back is elected alone
@example(schedule=[("offline", 0), ("offline", 1), ("offline", 2), ("online", 4)])
# every hub departs for good
@example(schedule=[("depart", 0), ("depart", 1), ("depart", 2), ("online", 0)])
# a hub leaves and its members move
@example(schedule=[("offline", 0)])
def test_a_search_finds_every_online_providers_objects(name, schedule):
    network = build(name)
    apply(network, schedule)
    assert misses(network) == []
