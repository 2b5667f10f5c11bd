"""Tests for the JXTA-style rendezvous protocol adapter (§VI future work)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.config import MembershipConfig
from repro.network.faults import FaultPlan
from repro.network.messages import MessageType
from repro.network.rendezvous import RendezvousProtocol
from repro.network.twotier import HubCatalog
from repro.storage.plan import CompiledQuery
from repro.storage.query import Query
from tests.network.harness import publish_pattern, settle


def populate(network, peer_count=20):
    for index in range(peer_count):
        network.create_peer(f"peer-{index:03d}")
    network.elect_rendezvous()
    ids = []
    for index in range(0, peer_count, 2):
        ids.append(publish_pattern(network, f"peer-{index:03d}", f"Observer {index}"))
    return ids


def reference_walk(network, origin_id):
    """The walk a search from ``origin_id`` submitted at this instant
    takes, derived from the hub set as it stands: the online rendezvous
    in ring order, rotated to start at the origin's entry point, at most
    ``walk_limit`` of them (none for an edge with no rendezvous)."""
    ring = network._online_hubs()
    origin = network.peers[origin_id]
    entry = origin_id if origin_id in network._hubs else origin.super_peer_id
    if entry is None or entry not in network._hubs:
        return []
    start = ring.index(entry) if entry in ring else 0
    ordered = ring[start:] + ring[:start]
    return ordered if network.walk_limit is None else ordered[:network.walk_limit]


class QuerySpy:
    """Records every QUERY ``network``'s kernel sends: (message,
    latency_ms), the latency as passed (``None``: the kernel's own link
    latency).  The spy shadows ``send`` on that one kernel instance."""

    def __init__(self, network):
        self.sent = []
        send = network.kernel.send

        def spy(message, **kwargs):
            if message.type is MessageType.QUERY:
                self.sent.append((message, kwargs.get("latency_ms")))
            send(message, **kwargs)

        network.kernel.send = spy

    def walk(self, context):
        """The QUERYs of ``context``'s walk, in send order."""
        query_id = context.extra["query_id"]
        return [(message, latency) for message, latency in self.sent
                if message.message_id == query_id]


class TestElectionAndAttachment:
    def test_rendezvous_ratio(self):
        network = RendezvousProtocol(seed=1, rendezvous_ratio=0.2)
        populate(network, 20)
        assert len(network.hub_ids()) == 4

    def test_every_edge_attached(self):
        network = RendezvousProtocol(seed=1, rendezvous_ratio=0.25)
        populate(network, 16)
        rendezvous = set(network.hub_ids())
        for peer in network.peers.values():
            if peer.peer_id not in rendezvous:
                assert peer.super_peer_id in rendezvous

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RendezvousProtocol(rendezvous_ratio=0)
        with pytest.raises(ValueError):
            RendezvousProtocol(lease_ms=0)
        with pytest.raises(ValueError):
            RendezvousProtocol(walk_limit=0)


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

    def test_walk_relays_one_descriptor(self):
        """Every step forwards the QUERY it was handed: one descriptor id
        along the whole walk, one hop more per step."""
        network = RendezvousProtocol(seed=2, rendezvous_ratio=0.2)
        populate(network)
        spy = QuerySpy(network)
        context = network.start_search("peer-011", Query.keyword("patterns", "observer"),
                                       max_results=200)
        walk = reference_walk(network, "peer-011")
        network.kernel.run_until_complete([context])
        sent = [message for message, _latency in spy.walk(context)]
        assert len(walk) >= 3
        assert [message.recipient for message in sent] == walk
        assert [message.hops for message in sent] == list(range(1, len(walk) + 1))
        assert {message.message_id for message in sent} == {sent[0].message_id}

    def test_a_walk_keeps_its_ring_when_a_hub_leaves_mid_walk(self):
        """The walk order is fixed at submission: a rendezvous that goes
        offline while the walk runs stays on it, so the step before it
        still relays there and the walk ends at it.  The next search
        walks the rebuilt ring, without it."""
        network = RendezvousProtocol(seed=2, rendezvous_ratio=0.3)
        populate(network)
        walk = reference_walk(network, "peer-011")
        assert len(walk) >= 4 and "peer-011" not in walk
        victim = walk[2]
        spy = QuerySpy(network)
        send = network.kernel.send

        def leave_on_second_step(message, **kwargs):
            send(message, **kwargs)
            if message.type is MessageType.QUERY and message.recipient == walk[1]:
                network.set_online(victim, False)

        network.kernel.send = leave_on_second_step
        context = network.start_search("peer-011", Query.keyword("patterns", "nothing"),
                                       max_results=200)
        network.kernel.run_until_complete([context])
        assert [message.recipient for message, _ in spy.walk(context)] == walk[:3]
        assert context.peers_probed == 2
        rows, _last_hops = context.extra["walk"]
        assert victim in rows and victim not in network._ring_rows()

        after = network.start_search("peer-011", Query.keyword("patterns", "nothing"),
                                     max_results=200)
        network.kernel.run_until_complete([after])
        rest = [message.recipient for message, _ in spy.walk(after)]
        assert victim not in rest and rest == reference_walk(network, "peer-011")

    def test_a_duplicated_query_does_not_fork_the_walk(self):
        """Injected duplication delivers some QUERYs twice; each hub still
        answers and relays the walk once, so the walk sends one QUERY per
        step after the entry (plus the edge's own to the entry)."""
        for duplicate_rate in (0.0, 0.3):
            network = RendezvousProtocol(seed=2, rendezvous_ratio=0.5)
            populate(network, 40)
            network.install_faults(FaultPlan(seed=2, duplicate_rate=duplicate_rate))
            spy = QuerySpy(network)
            for origin_id in ("peer-001", "peer-035"):
                context = network.start_search(origin_id, Query.keyword("patterns", "nothing"),
                                               max_results=200)
                walk = reference_walk(network, origin_id)
                network.kernel.run_until_complete([context])
                edge = origin_id not in network._hubs
                assert len(walk) == 20
                assert len(spy.walk(context)) == len(walk) - 1 + edge
                assert context.peers_probed == len(walk)
            assert (network.stats.fault_summary()["duplicated"] > 0) == (duplicate_rate > 0)

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


PEERS = 12

STEPS = st.lists(st.one_of(
    st.tuples(st.just("online"), st.integers(0, PEERS - 1), st.booleans()),
    st.tuples(st.just("depart"), st.integers(0, PEERS - 1)),
    st.tuples(st.just("elect"), st.integers(1, 5)),
    st.tuples(st.just("publish"), st.integers(0, PEERS - 1)),
    st.tuples(st.just("settle"), st.integers(50, 2_000)),
    st.tuples(st.just("search"), st.integers(0, PEERS - 1)),
), max_size=30)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(steps=STEPS, live=st.booleans(), walk_limit=st.sampled_from([None, 1, 3]))
def test_every_walk_is_the_ring_at_its_submission(steps, live, walk_limit):
    """Whatever the membership history, a walk sends its QUERYs to the
    online rendezvous as they stood at submission, rotated to the entry
    point: one hop more per step, and each relay over the link latency
    of its two ends.  Along the way the lease bound never exceeds the
    earliest lease held, and an off-mode search leaves no expired
    advertisement behind."""
    network = RendezvousProtocol(
        seed=3, rendezvous_ratio=0.25, lease_ms=2_000, walk_limit=walk_limit,
        membership=MembershipConfig(maintenance_interval_ms=200.0))
    populate(network, PEERS)
    if live:
        network.go_live()
    spy = QuerySpy(network)
    steps = list(steps) + [("search", index) for index in range(PEERS)]
    for number, (kind, value, *online) in enumerate(steps):
        assert network._earliest_lease <= network._lease_floor()
        if kind == "elect":
            network.elect_rendezvous(value)
            continue
        if kind == "settle":
            settle(network, value)
            continue
        peer_id = f"peer-{value:03d}"
        if kind == "online":
            network.set_online(peer_id, *online)
        elif kind == "depart":
            network.depart(peer_id)
        elif not network.peers[peer_id].online:
            continue
        elif kind == "publish":
            publish_pattern(network, peer_id, f"Observer step {number}")
        else:
            context = network.start_search(peer_id, Query.keyword("patterns", "observer"),
                                           max_results=10_000)
            walk = reference_walk(network, peer_id)
            if not live:
                assert network._lease_floor() > network.simulator.now
            network.kernel.run_until_complete([context])
            steps_sent = spy.walk(context)
            skip = 1 if walk and walk[0] == peer_id else 0
            assert [message.recipient for message, _ in steps_sent] == walk[skip:]
            assert [message.hops for message, _ in steps_sent] == \
                list(range(1, len(walk) + 1 - skip))
            assert context.peers_probed == len(walk)
            for message, latency in steps_sent[1 - skip:]:
                assert latency == network.simulator.link_latency(message.sender,
                                                                 message.recipient)


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
        """Off mode: an owner whose advertisement expired announces its
        objects again through ``publish`` and is visible again."""
        network = RendezvousProtocol(seed=6, rendezvous_ratio=0.2, lease_ms=1_000)
        populate(network)
        network.simulator.run(until_ms=network.simulator.now + 2_000)
        network.expire_advertisements()
        shared = network.peers["peer-000"].repository.documents
        assert len(shared) >= 1
        for stored in shared:
            network.publish("peer-000", stored.community_id, stored.resource_id,
                            stored.metadata, title=stored.title)
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
        shared = network.peers[owner].repository.documents
        assert len(shared) >= 1
        for stored in shared:
            network.publish(owner, stored.community_id, stored.resource_id,
                            stored.metadata, title=stored.title)
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
        victim = network.hub_ids()[0]
        network.set_online(victim, False)
        rendezvous = network.hub_ids()
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
