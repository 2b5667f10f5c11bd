"""Tests for the JXTA-style rendezvous protocol adapter (§VI future work)."""

import pytest

from repro.network.config import MembershipConfig
from repro.network.messages import MessageType
from repro.network.rendezvous import RendezvousProtocol
from repro.network.twotier import HubCatalog
from repro.storage.plan import CompiledQuery
from repro.storage.query import Query
from repro.xmlkit.parser import parse


def publish_pattern(network, peer_id, name, intent="notify dependents"):
    peer = network.peer(peer_id)
    document = parse(f"<pattern><name>{name}</name><intent>{intent}</intent></pattern>").root
    metadata = {"name": [name], "intent": [intent]}
    result = peer.repository.publish("patterns", document, metadata, title=name)
    network.publish(peer_id, "patterns", result.resource_id, metadata, title=name)
    return result.resource_id


def populate(network, peer_count=20):
    for index in range(peer_count):
        network.create_peer(f"peer-{index:03d}")
    network.elect_rendezvous()
    ids = []
    for index in range(0, peer_count, 2):
        ids.append(publish_pattern(network, f"peer-{index:03d}", f"Observer {index}"))
    return ids


class TestElectionAndAttachment:
    def test_rendezvous_ratio(self):
        network = RendezvousProtocol(seed=1, rendezvous_ratio=0.2)
        populate(network, 20)
        assert len(network.rendezvous_ids()) == 4

    def test_every_edge_attached(self):
        network = RendezvousProtocol(seed=1, rendezvous_ratio=0.25)
        populate(network, 16)
        rendezvous = set(network.rendezvous_ids())
        for peer in network.peers.values():
            if peer.peer_id not in rendezvous:
                assert peer.super_peer_id in rendezvous

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RendezvousProtocol(rendezvous_ratio=0)
        with pytest.raises(ValueError):
            RendezvousProtocol(lease_ms=0)


class TestSearch:
    def test_search_finds_advertised_objects(self):
        network = RendezvousProtocol(seed=2, rendezvous_ratio=0.2)
        populate(network)
        response = network.search("peer-001", Query.keyword("patterns", "observer"),
                                  max_results=200)
        assert response.result_count == 10
        assert response.messages_sent < 40        # no flooding of edge peers

    def test_walk_limit_bounds_probing(self):
        network = RendezvousProtocol(seed=2, rendezvous_ratio=0.3, walk_limit=1)
        populate(network)
        response = network.search("peer-001", Query.keyword("patterns", "observer"),
                                  max_results=200)
        assert response.peers_probed == 1
        full = RendezvousProtocol(seed=2, rendezvous_ratio=0.3)
        populate(full)
        assert full.search("peer-001", Query.keyword("patterns", "observer"),
                           max_results=200).result_count >= response.result_count

    def test_walk_relays_one_descriptor(self, monkeypatch):
        """Every step forwards the QUERY it was handed: one descriptor id
        along the whole walk, one hop more per step."""
        network = RendezvousProtocol(seed=2, rendezvous_ratio=0.2)
        populate(network)
        sent = []
        send = network.kernel.send

        def spy(message, **kwargs):
            if message.type is MessageType.QUERY:
                sent.append(message)
            send(message, **kwargs)

        monkeypatch.setattr(network.kernel, "send", spy)
        context = network.start_search("peer-011", Query.keyword("patterns", "observer"),
                                       max_results=200)
        network.kernel.run_until_complete([context])
        walk = context.extra["walk"]
        assert len(walk) >= 3
        assert [message.recipient for message in sent] == walk
        assert [message.hops for message in sent] == list(range(1, len(walk) + 1))
        assert {message.message_id for message in sent} == {sent[0].message_id}

    def test_empty_catalog_answers_without_evaluating(self, monkeypatch):
        network = RendezvousProtocol(seed=2, rendezvous_ratio=0.2)
        populate(network)
        context = network.new_context("peer-011", Query.keyword("patterns", "observer"),
                                      max_results=200)

        def evaluate(*_args, **_kwargs):
            raise AssertionError("an empty catalog evaluated the plan")

        monkeypatch.setattr(CompiledQuery, "evaluate", evaluate)
        assert HubCatalog().take(context, network.peers, 0) == ([], 0)

    def test_offline_provider_filtered(self):
        network = RendezvousProtocol(seed=3, rendezvous_ratio=0.2)
        populate(network)
        network.set_online("peer-004", False)
        response = network.search("peer-001", Query.keyword("patterns", "observer"),
                                  max_results=200)
        assert "peer-004" not in {result.provider_id for result in response.results}

    def test_retrieve_after_search(self):
        network = RendezvousProtocol(seed=4, rendezvous_ratio=0.2)
        populate(network)
        hit = network.search("peer-001", Query.keyword("patterns", "observer"),
                             max_results=10).results[0]
        outcome = network.retrieve("peer-001", hit.provider_id, hit.resource_id)
        assert outcome.transfer_bytes > 0
        assert network.peer("peer-001").repository.documents.contains(hit.resource_id)


class TestLeases:
    def test_advertisements_expire_without_renewal(self):
        network = RendezvousProtocol(seed=5, rendezvous_ratio=0.2, lease_ms=1_000)
        populate(network)
        assert network.advertisement_count() == 10
        network.simulator.run(until_ms=network.simulator.now + 2_000)
        response = network.search("peer-001", Query.keyword("patterns", "observer"),
                                  max_results=200)
        # Only local results remain possible; all remote advertisements expired.
        assert network.advertisement_count() == 0
        assert all(result.provider_id == "peer-001" for result in response.results)

    def test_renewal_restores_visibility(self):
        network = RendezvousProtocol(seed=6, rendezvous_ratio=0.2, lease_ms=1_000)
        populate(network)
        network.simulator.run(until_ms=network.simulator.now + 2_000)
        network.expire_advertisements()
        renewed = network.renew("peer-000")
        assert renewed >= 1
        response = network.search("peer-001", Query.keyword("patterns", "observer"),
                                  max_results=200)
        assert any(result.provider_id == "peer-000" for result in response.results)

    def test_ad_expires_while_owner_offline_then_owner_returns(self):
        """Lease expiry under churn: the advertisement of a peer that
        churned offline expires on schedule (nobody renews it), and the
        owner's return re-advertises and restores visibility."""
        network = RendezvousProtocol(seed=9, rendezvous_ratio=0.2, lease_ms=1_000)
        ids = populate(network)
        owner = "peer-000"
        network.set_online(owner, False)
        network.simulator.run(until_ms=network.simulator.now + 2_000)
        expired = network.expire_advertisements()
        assert expired >= 1
        hidden = network.search("peer-001", Query.keyword("patterns", "observer"),
                                max_results=200)
        assert owner not in {result.provider_id for result in hidden.results}

        network.set_online(owner, True)
        assert network.renew(owner) >= 1
        visible = network.search("peer-001", Query.keyword("patterns", "observer"),
                                 max_results=200)
        assert owner in {result.provider_id for result in visible.results}

    def test_ad_expiry_under_churn_live_membership(self):
        """Same property with live membership: expiry happens in the
        recurring sweep (recording the staleness window) and the return
        re-advertises through kernel traffic, with no manual pulls."""
        network = RendezvousProtocol(
            seed=10, rendezvous_ratio=0.25, lease_ms=800,
            membership=MembershipConfig(maintenance_interval_ms=200.0))
        populate(network, 12)
        network.go_live()
        # An *edge* owner: a departed rendezvous peer's own ads die with
        # its RAM (no staleness), but an edge's ads linger on its
        # rendezvous until the lease sweep notices.
        owner = "peer-004"
        network.set_online(owner, False)
        network.simulator.run(until_ms=network.simulator.now + 4_000)
        assert network.stats.staleness_windows_ms
        hidden = network.search("peer-002", Query.keyword("patterns", "observer"),
                                max_results=200)
        assert owner not in {result.provider_id for result in hidden.results}

        network.set_online(owner, True)
        network.simulator.run(until_ms=network.simulator.now + 500)
        visible = network.search("peer-002", Query.keyword("patterns", "observer"),
                                 max_results=200)
        assert owner in {result.provider_id for result in visible.results}

    def test_rendezvous_departure_reattaches_edges(self):
        network = RendezvousProtocol(seed=7, rendezvous_ratio=0.2)
        populate(network)
        victim = network.rendezvous_ids()[0]
        network.set_online(victim, False)
        rendezvous = network.rendezvous_ids()
        for peer in network.online_peers():
            if peer.peer_id not in rendezvous:
                assert peer.super_peer_id != victim
        # Re-publishing after the loss makes objects searchable again.
        publish_pattern(network, "peer-001", "Observer 999")
        response = network.search("peer-003", Query.keyword("patterns", "999"), max_results=10)
        assert response.result_count == 1


class TestServentIntegration:
    def test_full_up2p_stack_runs_on_rendezvous_layer(self):
        from repro.communities.design_patterns import design_pattern_community, gof_pattern_records
        from repro.core.application import Application
        from repro.core.servent import Servent

        network = RendezvousProtocol(seed=8, rendezvous_ratio=0.3)
        alice = Servent("alice", network)
        bob = Servent("bob", network)
        for index in range(6):
            Servent(f"edge-{index}", network)
        network.elect_rendezvous()
        definition = design_pattern_community()
        alice_app = definition.application_on(alice)
        for record in gof_pattern_records()[:6]:
            alice_app.publish(record)
        found = [r for r in bob.search_communities("patterns").results
                 if r.title == definition.name]
        assert found
        community = bob.join_community(found[0])
        bob_app = Application(bob, community)
        response = bob_app.search({"category": "creational"}, max_results=50)
        assert response.result_count >= 1
        downloaded = bob_app.download(response.results[0])
        assert "creational" in bob_app.view(downloaded.resource_id)
