"""Tests shared by the three protocol adapters plus protocol-specific tests."""

import pytest

from repro.network.centralized import CentralizedProtocol
from repro.network.errors import DuplicatePeerError, PeerOfflineError, UnknownPeerError
from repro.network.gnutella import GnutellaProtocol
from repro.network.messages import MessageType
from repro.network.rendezvous import RendezvousProtocol
from repro.network.superpeer import SuperPeerProtocol
from repro.storage.query import Query
from tests.network.harness import publish_pattern


def populate(network, peer_count=20, object_every=2):
    for index in range(peer_count):
        network.create_peer(f"peer-{index:03d}")
    if isinstance(network, GnutellaProtocol):
        network.build_overlay()
    if isinstance(network, SuperPeerProtocol):
        network.elect_super_peers()
    if isinstance(network, RendezvousProtocol):
        network.elect_rendezvous()
    resource_ids = []
    for index in range(0, peer_count, object_every):
        resource_ids.append(
            publish_pattern(network, f"peer-{index:03d}", f"Observer {index}", "notify dependents")
        )
    return resource_ids


class TestCommonBehaviour:
    """Behaviour every protocol must share (the generic interface)."""

    def test_search_finds_remote_objects(self, any_network):
        populate(any_network)
        response = any_network.search("peer-001", Query.keyword("patterns", "observer"))
        assert response.result_count > 0
        assert all(result.community_id == "patterns" for result in response.results)

    def test_search_miss_returns_empty(self, any_network):
        populate(any_network)
        response = any_network.search("peer-001", Query.keyword("patterns", "nonexistent zzz"))
        assert response.result_count == 0

    def test_search_results_carry_metadata(self, any_network):
        populate(any_network)
        response = any_network.search("peer-001", Query.keyword("patterns", "observer"))
        result = response.results[0]
        assert "name" in result.metadata
        assert result.metadata_bytes() > 0

    def test_retrieve_replicates_object(self, any_network):
        populate(any_network)
        response = any_network.search("peer-001", Query.keyword("patterns", "observer"))
        hit = next(result for result in response.results if result.provider_id != "peer-001")
        outcome = any_network.retrieve("peer-001", hit.provider_id, hit.resource_id)
        assert outcome.transfer_bytes > 0
        assert any_network.peer("peer-001").repository.documents.contains(hit.resource_id)
        # After replication a new search finds the object on the requester too.
        again = any_network.search("peer-003", Query.keyword("patterns", "observer"),
                                   max_results=500)
        providers = {result.provider_id for result in again.results
                     if result.resource_id == hit.resource_id}
        assert "peer-001" in providers or any_network.protocol_name == "gnutella"

    def test_unknown_peer_rejected(self, any_network):
        populate(any_network)
        with pytest.raises(UnknownPeerError):
            any_network.search("ghost", Query.keyword("patterns", "observer"))

    def test_offline_peer_cannot_search(self, any_network):
        populate(any_network)
        any_network.set_online("peer-001", False)
        with pytest.raises(PeerOfflineError):
            any_network.search("peer-001", Query.keyword("patterns", "observer"))

    def test_offline_providers_do_not_appear(self, any_network):
        populate(any_network)
        provider = "peer-000"
        any_network.set_online(provider, False)
        response = any_network.search("peer-001", Query.keyword("patterns", "observer"),
                                      max_results=500)
        assert provider not in {result.provider_id for result in response.results}

    def test_stats_accumulate(self, any_network):
        populate(any_network)
        any_network.search("peer-001", Query.keyword("patterns", "observer"))
        assert len(any_network.stats.queries) == 1
        assert any_network.stats.queries[0].results > 0

    def test_duplicate_peer_rejected(self, any_network):
        any_network.create_peer("dup")
        with pytest.raises(DuplicatePeerError):
            any_network.create_peer("dup")

    def test_empty_query_browses(self, any_network):
        populate(any_network)
        response = any_network.search("peer-001", Query("patterns"), max_results=500)
        assert response.result_count >= 5


class TestCentralized:
    def test_two_messages_per_query(self, centralized_network):
        populate(centralized_network)
        response = centralized_network.search("peer-001", Query.keyword("patterns", "observer"))
        assert response.messages_sent == 2
        assert response.peers_probed == 1

    def test_registration_messages_counted(self, centralized_network):
        populate(centralized_network)
        assert centralized_network.stats.registrations == 10
        assert centralized_network.stats.messages_of(MessageType.REGISTER) == 10

    def test_catalog_and_replication_count(self, centralized_network):
        resource_ids = populate(centralized_network)
        assert len(centralized_network._server.records) == len(resource_ids)
        assert centralized_network.provider_count(resource_ids[0]) == 1
        centralized_network.retrieve("peer-001", "peer-000", resource_ids[0])
        assert centralized_network.provider_count(resource_ids[0]) == 2

    def test_provider_count_excludes_offline(self, centralized_network):
        resource_ids = populate(centralized_network)
        centralized_network.set_online("peer-000", False)
        assert centralized_network.provider_count(resource_ids[0]) == 0

    def test_departed_peer_withdrawn_from_catalog(self, centralized_network):
        resource_ids = populate(centralized_network)
        centralized_network.depart("peer-000")
        assert centralized_network.provider_count(resource_ids[0]) == 0
        response = centralized_network.search(
            "peer-003", Query.keyword("patterns", "observer"), max_results=100)
        assert "peer-000" not in {result.provider_id for result in response.results}
        assert response.result_count == len(resource_ids) - 1

    def test_two_providers_of_one_object_are_two_records(self, centralized_network):
        """The server keeps one record per (object, provider): one
        provider going offline leaves the other answering."""
        resource_ids = populate(centralized_network)
        resource_id = resource_ids[0]
        centralized_network.retrieve("peer-001", "peer-000", resource_id)
        assert centralized_network.provider_count(resource_id) == 2
        centralized_network.set_online("peer-000", False)
        assert centralized_network.provider_count(resource_id) == 1
        assert len(centralized_network._server.records) == len(resource_ids) + 1
        response = centralized_network.search("peer-003", Query.keyword("patterns", "observer"),
                                              max_results=500)
        assert [result.provider_id for result in response.results
                if result.resource_id == resource_id] == ["peer-001"]

    def test_max_results_cap(self, centralized_network):
        populate(centralized_network, peer_count=20, object_every=1)
        response = centralized_network.search("peer-001", Query.keyword("patterns", "observer"),
                                              max_results=3)
        assert response.result_count == 3


class TestGnutella:
    def test_flooding_costs_many_messages(self, gnutella_network):
        populate(gnutella_network)
        response = gnutella_network.search("peer-001", Query.keyword("patterns", "observer"))
        assert response.messages_sent > 20
        assert response.peers_probed > 5

    def test_ttl_limits_reach(self):
        network = GnutellaProtocol(seed=4, default_ttl=7, degree=2, topology_kind="ring")
        for index in range(30):
            network.create_peer(f"peer-{index:03d}")
        network.build_overlay()
        assert network.reachable_peers("peer-000", ttl=1) == 2
        assert network.reachable_peers("peer-000", ttl=3) == 6
        assert network.reachable_peers("peer-000", ttl=20) == 29

    def test_low_ttl_misses_distant_objects(self):
        network = GnutellaProtocol(seed=4, default_ttl=7, degree=2, topology_kind="ring")
        for index in range(30):
            network.create_peer(f"peer-{index:03d}")
        network.build_overlay()
        publish_pattern(network, "peer-015", "Observer Far", "far away object")
        near = network.search("peer-000", Query.keyword("patterns", "observer"), ttl=2)
        far = network.search("peer-000", Query.keyword("patterns", "observer"), ttl=20)
        assert near.result_count == 0
        assert far.result_count == 1

    def test_publish_costs_no_messages(self, gnutella_network):
        for index in range(10):
            gnutella_network.create_peer(f"peer-{index:03d}")
        gnutella_network.build_overlay()
        before = gnutella_network.stats.total_messages
        publish_pattern(gnutella_network, "peer-000", "Observer")
        assert gnutella_network.stats.total_messages == before

    def test_local_hits_found_without_messages(self, gnutella_network):
        for index in range(5):
            gnutella_network.create_peer(f"peer-{index:03d}")
        gnutella_network.build_overlay()
        publish_pattern(gnutella_network, "peer-000", "Observer")
        response = gnutella_network.search("peer-000", Query.keyword("patterns", "observer"))
        assert response.result_count >= 1
        assert response.results[0].hops == 0

    def test_offline_peers_break_paths(self):
        network = GnutellaProtocol(seed=4, default_ttl=10, degree=2, topology_kind="ring")
        for index in range(10):
            network.create_peer(f"peer-{index:03d}")
        network.build_overlay()
        # Going offline on both ring neighbours isolates peer-000.
        network.set_online("peer-001", False)
        network.set_online("peer-009", False)
        assert network.reachable_peers("peer-000") == 0


    def test_departed_peer_drops_out_of_the_flood(self, gnutella_network):
        populate(gnutella_network)
        reachable = gnutella_network.reachable_peers("peer-000")
        gnutella_network.depart("peer-005")
        assert gnutella_network.reachable_peers("peer-000") < reachable
        response = gnutella_network.search(
            "peer-000", Query.keyword("patterns", "observer"), max_results=100)
        assert "peer-005" not in {result.provider_id for result in response.results}


class TestSuperPeer:
    def test_super_peer_election(self, superpeer_network):
        populate(superpeer_network)
        supers = superpeer_network.hub_ids()
        assert len(supers) == 4  # 20 peers * 0.2 ratio
        for peer in superpeer_network.peers.values():
            if peer.peer_id not in supers:
                assert peer.super_peer_id in supers

    def test_query_cost_between_centralized_and_flooding(self):
        centralized = CentralizedProtocol(seed=5)
        flooding = GnutellaProtocol(seed=5)
        superpeer = SuperPeerProtocol(seed=5, super_peer_ratio=0.2)
        for network in (centralized, flooding, superpeer):
            populate(network)
            network.search("peer-001", Query.keyword("patterns", "observer"))
        c = centralized.stats.mean_messages_per_query()
        s = superpeer.stats.mean_messages_per_query()
        g = flooding.stats.mean_messages_per_query()
        assert c <= s < g

    def test_leaf_departure_reassigns_objects(self, superpeer_network):
        populate(superpeer_network)
        supers = superpeer_network.hub_ids()
        leaf = next(peer for peer in superpeer_network.peers.values()
                    if peer.peer_id not in supers)
        publish_pattern(superpeer_network, leaf.peer_id, "Unique Leaf Pattern", "only here")
        superpeer_network.set_online(leaf.peer_id, False)
        response = superpeer_network.search("peer-001", Query.keyword("patterns", "unique leaf"))
        assert response.result_count == 0

    def test_super_peer_departure_reattaches_leaves(self, superpeer_network):
        populate(superpeer_network)
        super_id = superpeer_network.hub_ids()[0]
        orphans = set(superpeer_network._hubs[super_id].members)
        superpeer_network.set_online(super_id, False)
        for orphan_id in orphans:
            orphan = superpeer_network.peer(orphan_id)
            if orphan.online:
                assert orphan.super_peer_id != super_id

    def test_returning_peer_reattaches(self, superpeer_network):
        populate(superpeer_network)
        supers = superpeer_network.hub_ids()
        leaf = next(peer for peer in superpeer_network.peers.values()
                    if peer.peer_id not in supers)
        superpeer_network.set_online(leaf.peer_id, False)
        superpeer_network.set_online(leaf.peer_id, True)
        assert leaf.super_peer_id in superpeer_network.hub_ids()

    def test_search_still_works_after_reelection(self, superpeer_network):
        populate(superpeer_network)
        superpeer_network.elect_super_peers(count=2)
        response = superpeer_network.search("peer-001", Query.keyword("patterns", "observer"))
        assert response.result_count > 0
