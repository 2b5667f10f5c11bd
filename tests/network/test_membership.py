"""Tests for the membership layer: PopulationModel dynamics and the
live-membership (lifecycle-as-protocol-traffic) mode of every adapter."""

import pytest

from repro.network.centralized import CentralizedProtocol
from repro.network.config import MembershipConfig
from repro.network.gnutella import GnutellaProtocol
from repro.network.membership import MembershipEvent, PopulationModel
from repro.network.messages import MessageType
from repro.network.rendezvous import RendezvousProtocol
from repro.network.superpeer import SuperPeerProtocol
from repro.storage.query import Query
from tests.network.harness import live_network, publish_pattern, settle


class TestPopulationModel:
    def build(self, peer_count=20, **kwargs):
        network = GnutellaProtocol(seed=4, degree=3)
        for index in range(peer_count):
            network.create_peer(f"peer-{index:03d}")
        network.build_overlay()
        model = PopulationModel(network, **kwargs)
        return network, model

    def test_invalid_parameters(self):
        network, _ = self.build(5)
        with pytest.raises(ValueError):
            PopulationModel(network, mean_session_ms=0)

    def test_staged_arrivals_join_at_their_times(self):
        network, model = self.build(6)
        ids = model.schedule_arrivals(4, start_ms=100.0, interval_ms=50.0,
                                      prefix="newcomer")
        assert len(ids) == 4
        settle(network, 120)
        assert ids[0] in network.peers
        assert ids[2] not in network.peers
        settle(network, 200)
        assert all(peer_id in network.peers for peer_id in ids)
        arrivals = model.events
        assert all(event.kind == "arrive" for event in arrivals)
        assert [event.peer_id for event in arrivals] == ids
        assert [event.time_ms for event in arrivals] == [100.0, 150.0, 200.0, 250.0]

    def test_flash_crowd_arrives_at_once(self):
        network, model = self.build(6)
        before = len(network.peers)
        ids = model.flash_crowd(10, at_ms=500.0)
        settle(network, 499)
        assert len(network.peers) == before
        settle(network, 2)
        assert len(network.peers) == before + 10
        assert {(event.kind, event.time_ms) for event in model.events} == {("arrive", 500.0)}
        assert all(peer_id in network.peers for peer_id in ids)

    def test_permanent_departure_mid_absence_sticks(self):
        """A permanent departure striking while the peer is in a churn
        absence must void the queued return: the peer stays gone and
        the event log stays truthful (no return is logged)."""
        network, model = self.build(8)
        network.set_online("peer-002", False)  # mid-absence
        queued_return_at = 1_000.0
        network.simulator.post(queued_return_at, model._return, "peer-002")
        network.simulator.post(500.0, network.depart, "peer-002")
        settle(network, 5_000)
        assert not network.peer("peer-002").online
        assert [event for event in model.events if event.peer_id == "peer-002"] == []

    def test_departure_under_churn_never_returns(self):
        """A peer departed while the model churns it stays gone: the
        model logs nothing more for it, and its session ends for good."""
        network, model = self.build(12, mean_session_ms=200.0,
                                    mean_absence_ms=100.0, seed=7)
        model.start(["peer-000", "peer-001"])
        settle(network, 1_000)
        network.depart("peer-000")
        logged = len([event for event in model.events if event.peer_id == "peer-000"])
        settle(network, 5_000)
        assert not network.peer("peer-000").online
        assert len([event for event in model.events if event.peer_id == "peer-000"]) == logged
        # The other churned peer keeps cycling.
        assert {event.kind for event in model.events if event.peer_id == "peer-001"} \
            == {"depart", "return"}

    def test_event_log_is_deterministic(self):
        def run():
            network, model = self.build(15, mean_session_ms=300.0,
                                        mean_absence_ms=200.0, seed=11)
            model.start()
            model.flash_crowd(3, at_ms=400.0, churn=True)
            settle(network, 3_000)
            return [(event.time_ms, event.peer_id, event.kind)
                    for event in model.events]
        assert run() == run()

    def test_membership_event_online_compatibility(self):
        """Legacy churn consumers read ``event.online``."""
        assert MembershipEvent(0.0, "p", "depart").online is False
        assert MembershipEvent(0.0, "p", "return").online is True
        assert MembershipEvent(0.0, "p", "arrive").online is True


class TestUptimeAccounting:
    def test_uptime_accumulates_per_session(self):
        network = CentralizedProtocol(seed=1)
        network.create_peer("worker")
        network.simulator.run(until_ms=network.simulator.now + 1_000)
        network.set_online("worker", False)
        assert network.peer("worker").uptime_ms == pytest.approx(1_000)
        network.simulator.run(until_ms=network.simulator.now + 500)
        network.set_online("worker", True)
        network.simulator.run(until_ms=network.simulator.now + 250)
        network.set_online("worker", False)
        assert network.peer("worker").uptime_ms == pytest.approx(1_250)
        assert network.stats.uptime_ms_total == pytest.approx(1_250)
        assert network.stats.summary()["uptime_ms_total"] == pytest.approx(1_250)

    def test_snapshot_folds_open_sessions(self):
        """Mid-run measurement must count peers that never went down."""
        network = CentralizedProtocol(seed=1)
        network.create_peer("steady")
        network.create_peer("flaky")
        network.simulator.run(until_ms=network.simulator.now + 400)
        network.set_online("flaky", False)
        network.simulator.run(until_ms=network.simulator.now + 600)
        # Without the snapshot only flaky's closed session counts.
        assert network.stats.uptime_ms_total == pytest.approx(400)
        total = network.snapshot_uptime()
        assert total == pytest.approx(400 + 1_000)
        # Idempotent at the same instant: clocks restarted.
        assert network.snapshot_uptime() == pytest.approx(total)

    def test_last_departure_recorded(self):
        network = CentralizedProtocol(seed=1)
        network.create_peer("worker")
        assert network.peer("worker").last_departed_ms == -1.0
        network.simulator.run(until_ms=network.simulator.now + 750)
        network.set_online("worker", False)
        assert network.peer("worker").last_departed_ms == pytest.approx(750)


class TestCentralizedLiveMembership:
    def build(self):
        network = CentralizedProtocol(
            seed=3, membership=MembershipConfig(maintenance_interval_ms=200.0))
        for index in range(8):
            network.create_peer(f"peer-{index:03d}")
        ids = [publish_pattern(network, "peer-001", "Observer"),
               publish_pattern(network, "peer-002", "Observer Twin")]
        network.go_live()
        return network, ids

    def test_departed_registrations_decay_after_lease(self):
        network, _ = self.build()
        network.set_online("peer-001", False)
        # Inside the staleness window the catalog still holds the entry
        # (search filters the offline provider, but the server pays the
        # storage and does not know).
        assert len(network._server.records) == 2
        settle(network, 3 * network.heartbeat_lease_ms)
        assert len(network._server.records) == 1
        assert network.stats.staleness_windows_ms
        assert "peer-001" not in network.believed_online()

    def test_returning_peer_reregisters_through_kernel(self):
        network, _ = self.build()
        network.set_online("peer-001", False)
        settle(network, 3 * network.heartbeat_lease_ms)
        assert len(network._server.records) == 1
        joins_before = network.stats.messages_of(MessageType.JOIN)
        network.set_online("peer-001", True)
        settle(network, 500)
        assert network.stats.messages_of(MessageType.JOIN) == joins_before + 1
        assert len(network._server.records) == 2
        response = network.search("peer-003", Query.keyword("patterns", "observer"),
                                  max_results=10)
        assert {result.provider_id for result in response.results} >= {"peer-001"}

    def test_registrations_of_peer_offline_at_go_live_still_decay(self):
        network = CentralizedProtocol(
            seed=3, membership=MembershipConfig(maintenance_interval_ms=200.0))
        for index in range(6):
            network.create_peer(f"peer-{index:03d}")
        publish_pattern(network, "peer-001", "Pre Live Observer")
        network.set_online("peer-001", False)  # departs before go-live
        network.go_live()
        assert len(network._server.records) == 1
        settle(network, 4 * network.heartbeat_lease_ms)
        assert len(network._server.records) == 0
        assert network.stats.staleness_windows_ms

    def test_heartbeats_cost_control_bytes(self):
        network, _ = self.build()
        settle(network, 1_000)
        assert network.stats.messages_of(MessageType.PING) > 0
        assert network.stats.control_bytes > 0

    def test_maintenance_rearms_after_cancel(self):
        """go_live after kernel.cancel_timers() resumes maintenance."""
        network, _ = self.build()
        settle(network, 1_000)
        network.kernel.cancel_timers()
        pings_paused = network.stats.messages_of(MessageType.PING)
        settle(network, 1_000)
        assert network.stats.messages_of(MessageType.PING) == pings_paused
        network.go_live()
        settle(network, 1_000)
        assert network.stats.messages_of(MessageType.PING) > pings_paused


class TestGnutellaLiveMembership:
    def build(self):
        network = GnutellaProtocol(seed=5, degree=3, default_ttl=6,
                                   membership=MembershipConfig(maintenance_interval_ms=200.0))
        for index in range(10):
            network.create_peer(f"peer-{index:03d}")
        network.build_overlay()
        network.go_live()
        return network

    def test_arriving_peer_bootstraps_links_via_ping_pong(self):
        network = self.build()
        pings_before = network.stats.messages_of(MessageType.PING)
        newcomer = network.create_peer("zz-newcomer")
        assert not newcomer.neighbors  # links need round trips
        settle(network, 500)
        # The newcomer dialled up to ``degree`` links itself; peers that
        # were below target may have added incoming links on top.
        assert newcomer.neighbors
        assert network.stats.messages_of(MessageType.PING) > pings_before
        assert network.stats.messages_of(MessageType.PONG) > 0
        for neighbor_id in newcomer.neighbors:
            assert newcomer.peer_id in network.peer(neighbor_id).neighbors

    def test_flash_crowd_cannot_saturate_one_peer(self):
        """Joins funnel through the deterministic bootstrap; saturated
        responders refuse further links so no peer's fan-out (and
        keepalive bill) grows without bound."""
        network = self.build()
        model = PopulationModel(network, seed=1)
        model.flash_crowd(25, at_ms=50.0)
        settle(network, 2_000)
        worst = max(len(peer.neighbors) for peer in network.peers.values())
        assert worst <= 2 * network.degree

    def test_stale_links_decay_after_silence(self):
        network = self.build()
        victim = network.peer("peer-004")
        holders = [peer_id for peer_id in sorted(network.peers)
                   if victim.peer_id in network.peer(peer_id).neighbors]
        assert holders
        network.set_online("peer-004", False)
        # Links persist immediately after the crash (stale on both sides).
        assert any(victim.peer_id in network.peer(peer_id).neighbors
                   for peer_id in holders)
        settle(network, 4 * network.heartbeat_lease_ms)
        assert all(victim.peer_id not in network.peer(peer_id).neighbors
                   for peer_id in holders)
        assert network.stats.staleness_windows_ms

    def test_flood_recovers_after_churn_repair(self):
        network = self.build()
        resource_id = publish_pattern(network, "peer-007", "Churny Observer")
        network.set_online("peer-003", False)
        network.set_online("peer-005", False)
        settle(network, 5 * network.heartbeat_lease_ms)
        response = network.search("peer-000", Query.keyword("patterns", "churny"),
                                  max_results=10)
        assert any(result.resource_id == resource_id for result in response.results)


class TestSuperPeerLiveMembership:
    def build(self, peer_count=10):
        network = SuperPeerProtocol(seed=6, super_peer_ratio=0.2,
                                    membership=MembershipConfig(maintenance_interval_ms=200.0))
        for index in range(peer_count):
            network.create_peer(f"peer-{index:03d}")
        network.elect_super_peers()
        publish_pattern(network, "peer-005", "Observer")
        if peer_count > 7:
            publish_pattern(network, "peer-007", "Observer Twin")
        network.go_live()
        return network

    def test_super_departure_rehomes_leaves_with_attach_traffic(self):
        network = self.build()
        victim = network.hub_ids()[0]
        orphans = sorted(network._hubs[victim].members)
        assert orphans
        attaches_before = network.stats.messages_of(MessageType.LEAF_ATTACH)
        network.set_online(victim, False)
        # No instantaneous re-homing: the orphans still point at the dead super.
        assert all(network.peer(peer_id).super_peer_id == victim
                   for peer_id in orphans if network.peer(peer_id).online)
        settle(network, 5 * network.heartbeat_lease_ms)
        for peer_id in orphans:
            peer = network.peer(peer_id)
            if peer.online:
                assert peer.super_peer_id != victim
                assert peer.super_peer_id is not None
        assert network.stats.messages_of(MessageType.LEAF_ATTACH) > attaches_before

    def test_promotion_when_no_super_remains(self):
        network = self.build(peer_count=6)
        for super_id in network.hub_ids():
            network.set_online(super_id, False)
        assert not any(network.peers[s].online for s in network.hub_ids())
        settle(network, 5 * network.heartbeat_lease_ms)
        promoted = [super_id for super_id in network.hub_ids()
                    if network.peers[super_id].online]
        assert promoted
        # Deterministic: the lowest-id online orphan promoted itself first.
        online = sorted(peer.peer_id for peer in network.online_peers())
        assert promoted[0] == online[0]

    def test_departed_leaf_records_decay_after_lease(self):
        network = self.build()
        provider = "peer-005"
        network.set_online(provider, False)
        super_id = [s for s in network.hub_ids()][0]
        settle(network, 5 * network.heartbeat_lease_ms)
        for state_super in network.hub_ids():
            assert provider not in network._hubs[state_super].members
        assert network.stats.staleness_windows_ms

    def test_search_works_after_rehoming(self):
        network = self.build()
        victim = network.hub_ids()[0]
        network.set_online(victim, False)
        settle(network, 6 * network.heartbeat_lease_ms)
        response = network.search("peer-009", Query.keyword("patterns", "observer"),
                                  max_results=10)
        assert response.result_count >= 1


class TestRendezvousLiveMembership:
    def build(self, lease_ms=1_000.0):
        network = RendezvousProtocol(seed=7, rendezvous_ratio=0.25,
                                     lease_ms=lease_ms,
                                     membership=MembershipConfig(maintenance_interval_ms=200.0))
        for index in range(8):
            network.create_peer(f"peer-{index:03d}")
        network.elect_rendezvous()
        publish_pattern(network, "peer-005", "Observer")
        network.go_live()
        return network

    def test_renewal_traffic_keeps_ads_alive(self):
        network = self.build(lease_ms=1_000.0)
        settle(network, 5_000)
        # Without live renewal every ad would have expired long ago.
        assert network.advertisement_count() >= 1
        assert network.stats.messages_of(MessageType.AD_RENEW) > 0

    def test_departed_providers_ads_decay_with_staleness(self):
        network = self.build(lease_ms=1_000.0)
        network.set_online("peer-005", False)
        assert network.advertisement_count() == 1
        settle(network, 4_000)
        assert network.advertisement_count() == 0
        assert network.stats.staleness_windows_ms

    def test_rendezvous_death_repairs_organically(self):
        network = self.build(lease_ms=2_000.0)
        victim = network.peer("peer-005").super_peer_id
        assert victim is not None
        network.set_online(victim, False)
        # The provider's ads died with the rendezvous peer's RAM.
        settle(network, 3_000)
        # ...but its renewal tick re-homed it and re-advertised.
        assert network.peer("peer-005").super_peer_id != victim
        response = network.search("peer-001", Query.keyword("patterns", "observer"),
                                  max_results=10)
        assert any(result.provider_id == "peer-005" for result in response.results)

    def test_rendezvous_peers_own_ads_survive_the_lease(self):
        """A rendezvous peer renews its own advertisements in place:
        staying online must never lose its published objects."""
        network = RendezvousProtocol(seed=11, rendezvous_ratio=0.25,
                                     lease_ms=1_000.0,
                                     membership=MembershipConfig(maintenance_interval_ms=300.0))
        for index in range(8):
            network.create_peer(f"peer-{index:03d}")
        network.elect_rendezvous()
        rendezvous_id = network.hub_ids()[0]
        publish_pattern(network, rendezvous_id, "Self Hosted Observer")
        network.go_live()
        settle(network, 5_000)  # several leases with everyone online
        response = network.search("peer-005",
                                  Query.keyword("patterns", "hosted"),
                                  max_results=10)
        assert any(result.provider_id == rendezvous_id
                   for result in response.results)

    def test_promotion_when_no_rendezvous_remains(self):
        network = self.build(lease_ms=1_000.0)
        for rendezvous_id in network.hub_ids():
            network.set_online(rendezvous_id, False)
        settle(network, 2_000)
        alive = [rdv for rdv in network.hub_ids()
                 if network.peers[rdv].online]
        assert alive


class TestSilentPermanentDeparture:
    """Nobody says goodbye: ``depart`` sends nothing, the peer never
    comes back and stays in ``network.peers``, its session closes into
    the uptime totals, and the others repair their state about it only
    when a lease lapses."""

    @pytest.mark.parametrize("name", ("centralized", "gnutella", "super-peer", "rendezvous"))
    def test_depart_is_silent_and_repaired_by_the_lease(self, name):
        network = live_network(name)
        hubs = set(getattr(network, "_hubs", ()))
        leaver = next(peer_id for peer_id in sorted(network.peers) if peer_id not in hubs)
        publish_pattern(network, leaver, "Observer")
        network.go_live()
        settle(network, 300)
        messages, uptime = network.stats.total_messages, network.stats.uptime_ms_total

        network.depart(leaver)
        assert network.stats.total_messages == messages
        assert network.stats.uptime_ms_total > uptime
        network.set_online(leaver, True)
        assert not network.peer(leaver).online and leaver in network.gone
        assert not network.stats.staleness_windows_ms
        settle(network, 5 * network.heartbeat_lease_ms)
        assert network.stats.staleness_windows_ms
        assert leaver in network.peers and not network.peer(leaver).online


class TestLiveMembershipWithPopulationModel:
    """Arrivals delivered by the population model emit join traffic."""

    def test_flash_crowd_joins_cost_messages(self):
        network = GnutellaProtocol(seed=9, degree=3,
                                   membership=MembershipConfig(maintenance_interval_ms=300.0))
        for index in range(8):
            network.create_peer(f"peer-{index:03d}")
        network.build_overlay()
        network.go_live()
        model = PopulationModel(network, seed=2)
        ids = model.flash_crowd(5, at_ms=100.0)
        settle(network, 1_000)
        assert all(peer_id in network.peers for peer_id in ids)
        linked = [peer_id for peer_id in ids if network.peer(peer_id).neighbors]
        assert linked, "flash-crowd arrivals must bootstrap real links"
        assert network.stats.messages_of(MessageType.PING) > 0
        breakdown = network.stats.traffic_breakdown()
        assert breakdown["control"]["bytes"] > 0
