"""Tests for on/off session churn: the population model with no
permanent departures and no staged arrivals."""

import pytest

from repro.network.gnutella import GnutellaProtocol
from repro.network.membership import PopulationModel


def build_network(peer_count=30):
    network = GnutellaProtocol(seed=8, degree=4)
    for index in range(peer_count):
        network.create_peer(f"peer-{index:03d}")
    network.build_overlay()
    return network


class TestSessionChurn:
    def test_invalid_durations_rejected(self):
        network = build_network(5)
        with pytest.raises(ValueError):
            PopulationModel(network, mean_session_ms=0)
        with pytest.raises(ValueError):
            PopulationModel(network, mean_absence_ms=-5)

    def test_expected_availability(self):
        """Time-weighted availability over the event log approaches
        session / (session + absence) = 3000 / 4000."""
        network = build_network(30)
        churn = PopulationModel(network, mean_session_ms=3000, mean_absence_ms=1000, seed=4)
        churn.start()
        horizon = 60_000.0
        network.simulator.run(until_ms=horizon)
        online_ms = 0.0
        for peer_id in network.peers:
            since, online = 0.0, True
            for event in churn.events:
                if event.peer_id == peer_id:
                    if online:
                        online_ms += event.time_ms - since
                    since, online = event.time_ms, event.online
            if online:
                online_ms += horizon - since
        availability = online_ms / (horizon * len(network.peers))
        assert availability == pytest.approx(0.75, abs=0.05)

    def test_peers_depart_and_return(self):
        network = build_network()
        churn = PopulationModel(network, mean_session_ms=1000, mean_absence_ms=1000, seed=3)
        churn.start()
        network.simulator.run(until_ms=10_000)
        departures = [event for event in churn.events if not event.online]
        returns = [event for event in churn.events if event.online]
        assert departures and returns
        # Events alternate per peer: a return only follows a departure.
        for peer_id in {event.peer_id for event in churn.events}:
            states = [event.online for event in churn.events if event.peer_id == peer_id]
            assert states[0] is False
            assert all(a != b for a, b in zip(states, states[1:], strict=False))

    def test_observed_availability_roughly_matches_expected(self):
        network = build_network(60)
        churn = PopulationModel(network, mean_session_ms=2000, mean_absence_ms=2000, seed=5)
        churn.start()
        network.simulator.run(until_ms=20_000)
        observed = len(network.online_peers()) / len(network.peers)
        assert 0.2 <= observed <= 0.8  # expected 0.5 with generous tolerance

    def test_events_recorded_with_timestamps(self):
        network = build_network(10)
        churn = PopulationModel(network, mean_session_ms=500, mean_absence_ms=500, seed=1)
        churn.start()
        network.simulator.run(until_ms=5000)
        times = [event.time_ms for event in churn.events]
        assert times == sorted(times)
        assert all(time <= 5000 for time in times)

    def test_churn_of_subset(self):
        network = build_network(10)
        churn = PopulationModel(network, mean_session_ms=200, mean_absence_ms=10_000, seed=2)
        churn.start(peer_ids=["peer-000", "peer-001"])
        network.simulator.run(until_ms=5_000)
        affected = {event.peer_id for event in churn.events}
        assert affected <= {"peer-000", "peer-001"}

    def test_search_keeps_working_under_churn(self):
        network = build_network(40)
        from repro.storage.query import Query
        from repro.xmlkit.parser import parse
        for index in range(0, 40, 4):
            peer = network.peer(f"peer-{index:03d}")
            document = parse(f"<pattern><name>Observer {index}</name></pattern>").root
            metadata = {"name": [f"Observer {index}"]}
            result = peer.repository.publish("patterns", document, metadata)
            network.publish(peer.peer_id, "patterns", result.resource_id, metadata)
        churn = PopulationModel(network, mean_session_ms=1000, mean_absence_ms=1000, seed=9)
        churn.start()
        completed = 0
        for round_number in range(5):
            network.simulator.run(until_ms=network.simulator.now + 2000)
            online = [peer.peer_id for peer in network.online_peers()]
            if not online:
                continue
            origin = online[round_number % len(online)]
            response = network.search(origin, Query.keyword("patterns", "observer"))
            completed += 1
            assert response.result_count >= 0
        assert completed > 0
