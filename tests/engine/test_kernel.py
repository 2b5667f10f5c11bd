"""Unit tests for the event kernel and the batched query driver."""

from __future__ import annotations

import pytest

from repro.engine.driver import BatchOutcome, QueryDriver, RetrieveOp, SearchOp
from repro.engine.kernel import EventKernel, QueryContext, RetrieveContext
from repro.network.centralized import CentralizedProtocol
from repro.network.gnutella import GnutellaProtocol
from repro.network.messages import Message, MessageType, query_message
from repro.network.peers import Peer
from repro.network.simulator import NetworkSimulator
from repro.network.stats import NetworkStats
from repro.storage.query import Query
from repro.xmlkit.parser import parse


def make_kernel():
    simulator = NetworkSimulator(seed=1)
    peers = {"a": Peer(peer_id="a"), "b": Peer(peer_id="b")}
    stats = NetworkStats()
    return EventKernel(simulator=simulator, peers=peers, stats=stats), simulator, peers, stats


def make_context(**overrides):
    defaults = dict(query=Query("c"), origin_id="a")
    defaults.update(overrides)
    return QueryContext(**defaults)


class TestDeliveryAndAccounting:
    def test_message_delivered_after_link_latency(self):
        kernel, simulator, peers, _ = make_kernel()
        seen = []
        kernel.register(MessageType.QUERY,
                        lambda peer, message, context: seen.append((peer, simulator.now)))
        message = query_message("a", "b", "<q/>")
        kernel.send(message)
        assert not seen
        simulator.run()
        assert len(seen) == 1
        peer, at = seen[0]
        assert peer is peers["b"]
        assert at == pytest.approx(simulator.link_latency("a", "b"))

    def test_copies_charge_stats_and_context_once_delivered_once(self):
        kernel, simulator, _, stats = make_kernel()
        deliveries = []
        kernel.register(MessageType.QUERY_HIT,
                        lambda peer, message, context: deliveries.append(message))
        context = make_context()
        hit = Message(type=MessageType.QUERY_HIT, sender="b", recipient="a", payload_bytes=10)
        kernel.send(hit, context=context, copies=3)
        simulator.run()
        assert stats.messages_by_type["query-hit"] == 3
        assert context.messages_sent == 3
        assert context.bytes_sent == 3 * hit.size_bytes
        assert len(deliveries) == 1

    def test_delivery_to_offline_peer_is_dropped_but_completes(self):
        kernel, simulator, peers, _ = make_kernel()
        seen = []
        kernel.register(MessageType.QUERY,
                        lambda peer, message, context: seen.append(message))
        peers["b"].online = False
        context = make_context()
        kernel.send(query_message("a", "b", "<q/>"), context=context)
        kernel.run_until_complete([context])
        assert not seen
        assert context.done

    def test_virtual_node_is_always_reachable(self):
        kernel, simulator, _, _ = make_kernel()
        seen = []
        kernel.add_virtual_node("server")
        kernel.register(MessageType.QUERY,
                        lambda peer, message, context: seen.append(peer))
        kernel.send(query_message("a", "server", "<q/>"))
        simulator.run()
        assert seen == [None]

    def test_latency_override_controls_delivery_time(self):
        kernel, simulator, _, _ = make_kernel()
        times = []
        kernel.register(MessageType.QUERY,
                        lambda peer, message, context: times.append(simulator.now))
        kernel.send(query_message("a", "b", "<q/>"), latency_ms=123.0)
        simulator.run()
        assert times == [pytest.approx(123.0)]


class TestCompletion:
    def test_finish_if_idle_completes_messageless_query(self):
        kernel, simulator, _, _ = make_kernel()
        context = make_context()
        kernel.finish_if_idle(context)
        assert context.done
        assert context.latency_ms == 0.0

    def test_cascade_completes_only_when_quiescent(self):
        kernel, simulator, _, _ = make_kernel()
        context = make_context()

        def forward(peer, message, context_):
            if message.ttl > 1:
                copy = query_message(message.recipient, "a" if message.recipient == "b" else "b",
                                     "<q/>", ttl=message.ttl - 1)
                kernel.send(copy, context=context_)

        kernel.register(MessageType.QUERY, forward)
        kernel.send(query_message("a", "b", "<q/>", ttl=3), context=context)
        kernel.run_until_complete([context])
        assert context.done
        # a->b, b->a, a->b: three in-flight messages total.
        assert context.messages_sent == 3
        assert context.latency_ms == pytest.approx(3 * kernel.simulator.link_latency("a", "b"))

    def test_run_until_complete_leaves_unrelated_events_queued(self):
        kernel, simulator, _, _ = make_kernel()
        fired = []
        simulator.post(10_000.0, lambda: fired.append("late"))
        context = make_context()
        kernel.register(MessageType.QUERY, lambda peer, message, context_: None)
        kernel.send(query_message("a", "b", "<q/>"), context=context)
        kernel.run_until_complete([context])
        assert context.done
        assert not fired
        assert simulator.pending_events() == 1

    def test_step_returns_false_on_empty_queue(self):
        simulator = NetworkSimulator(seed=0)
        assert simulator.step() is False
        simulator.post(1.0, lambda: None)
        assert simulator.step() is True
        assert simulator.step() is False

    def test_starved_context_completed_at_drain_time(self):
        """A context whose delivery was lost is completed at the time
        the queue drained, not left with a bogus zero completion."""
        kernel, simulator, _, _ = make_kernel()
        context = make_context()
        context.pending += 1  # an in-flight message whose event was lost
        simulator.post(40.0, lambda: None)
        kernel.run_until_complete([context])
        assert context.done
        assert context.starved
        assert context.completed_at == simulator.now == 40.0

    def test_quiesced_context_is_not_starved(self):
        kernel, simulator, _, _ = make_kernel()
        context = make_context()
        kernel.register(MessageType.QUERY, lambda peer, message, context_: None)
        kernel.send(query_message("a", "b", "<q/>"), context=context)
        kernel.run_until_complete([context])
        assert context.done and not context.starved


class TestQueryDriver:
    def build_network(self):
        network = GnutellaProtocol(seed=9, default_ttl=8, degree=3)
        for index in range(12):
            network.create_peer(f"peer-{index:02d}")
        network.build_overlay()
        document = parse("<pattern><name>Observer</name></pattern>").root
        peer = network.peer("peer-05")
        result = peer.repository.publish("patterns", document, {"name": ["Observer"]},
                                         title="Observer")
        network.publish("peer-05", "patterns", result.resource_id, {"name": ["Observer"]})
        return network

    def test_batch_keeps_queries_in_flight_together(self):
        network = self.build_network()
        driver = QueryDriver(network)
        ops = [SearchOp(f"peer-{index:02d}", Query.keyword("patterns", "observer"))
               for index in range(8)]
        outcome = driver.run_mixed(ops, interarrival_ms=5.0)
        assert len(outcome.responses) == 8
        assert outcome.failed == 0
        assert all(response.result_count >= 1 for response in outcome.responses)
        assert len(network.stats.queries) == 8

    def test_offline_origin_fails_softly(self):
        network = self.build_network()
        network.set_online("peer-03", False)
        driver = QueryDriver(network)
        ops = [SearchOp("peer-02", Query.keyword("patterns", "observer")),
               SearchOp("peer-03", Query.keyword("patterns", "observer"))]
        outcome = driver.run_mixed(ops)
        assert outcome.failed == 1
        assert outcome.responses[1].result_count == 0
        assert outcome.responses[0].result_count >= 1

    def test_negative_interarrival_rejected(self):
        network = self.build_network()
        with pytest.raises(ValueError):
            QueryDriver(network).run_mixed([], interarrival_ms=-1.0)

    def test_mixed_batch_runs_downloads_alongside_searches(self):
        network = self.build_network()
        resource_id = network.peer("peer-05").repository.documents.objects_in("patterns")[0].resource_id
        ops = [
            SearchOp("peer-01", Query.keyword("patterns", "observer")),
            RetrieveOp(requester_id="peer-02", resource_id=resource_id,
                       provider_id="peer-05"),
            SearchOp("peer-03", Query.keyword("patterns", "observer")),
        ]
        outcome = QueryDriver(network).run_mixed(ops, interarrival_ms=5.0)
        assert len(outcome.responses) == 2
        assert len(outcome.retrieves) == 1
        assert outcome.retrieves[0] is not None
        assert outcome.retrieves[0].transfer_bytes > 0
        assert outcome.retrieve_failures == 0
        assert network.peer("peer-02").repository.documents.contains(resource_id)
        assert network.stats.downloads == 1

    def test_retrieve_op_resolves_provider_from_replica_registry(self):
        network = self.build_network()
        resource_id = network.peer("peer-05").repository.documents.objects_in("patterns")[0].resource_id
        ops = [RetrieveOp(requester_id="peer-02", resource_id=resource_id)]
        outcome = QueryDriver(network).run_mixed(ops)
        assert outcome.retrieves[0] is not None
        assert outcome.retrieves[0].provider_id == "peer-05"
        # The download left a replica behind, with provenance recorded.
        assert network.replicas.provenance(resource_id, "peer-02") == "replica"
        assert network.replicas.provenance(resource_id, "peer-05") == "original"
        assert network.replication_degree(resource_id) == 2

    def test_retrieve_of_unknown_resource_fails_softly_in_batch(self):
        network = self.build_network()
        ops = [RetrieveOp(requester_id="peer-02", resource_id="no-such-object")]
        outcome = QueryDriver(network).run_mixed(ops)
        assert outcome.retrieves == [None]
        assert outcome.retrieve_failures == 1

    def test_offline_requester_download_fails_softly(self):
        network = self.build_network()
        resource_id = network.peer("peer-05").repository.documents.objects_in("patterns")[0].resource_id
        network.set_online("peer-02", False)
        ops = [RetrieveOp(requester_id="peer-02", resource_id=resource_id)]
        outcome = QueryDriver(network).run_mixed(ops)
        assert outcome.retrieves == [None]
        assert outcome.retrieve_failures == 1

    def test_starved_search_is_counted_on_outcome(self):
        """A search whose messages are lost (queue drained mid-flight)
        completes at the drain time and surfaces in ``starved``."""
        network = self.build_network()

        class LossyNetwork:
            """Wrapper whose start_search leaks one pending message."""

            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def start_search(self, origin_id, query, **kwargs):
                context = self._inner.start_search(origin_id, query, **kwargs)
                context.pending += 1  # a delivery that will never happen
                return context

        driver = QueryDriver(LossyNetwork(network))
        outcome = driver.run_mixed([SearchOp("peer-01", Query.keyword("patterns", "observer"))])
        assert outcome.starved == 1
        assert len(outcome.responses) == 1
        # The latency reflects the drain time, not a clamped zero.
        assert outcome.responses[0].latency_ms > 0

    def test_batch_outcome_merge_accumulates(self):
        first = BatchOutcome(responses=[1], retrieves=[None], failed=1,
                             retrieve_failures=1, starved=2)
        second = BatchOutcome(responses=[2, 3], retrieves=[], failed=0,
                              retrieve_failures=2, starved=1)
        merged = first.merge(second)
        assert merged is first
        assert merged.responses == [1, 2, 3]
        assert merged.failed == 1 and merged.retrieve_failures == 3 and merged.starved == 3

    def test_centralized_batch_costs_two_messages_each(self):
        network = CentralizedProtocol(seed=2)
        for index in range(6):
            network.create_peer(f"peer-{index:02d}")
        document = parse("<pattern><name>Observer</name></pattern>").root
        peer = network.peer("peer-00")
        stored = peer.repository.publish("patterns", document, {"name": ["Observer"]},
                                         title="Observer")
        network.publish("peer-00", "patterns", stored.resource_id, {"name": ["Observer"]})
        network.stats.reset()
        driver = QueryDriver(network)
        ops = [SearchOp(f"peer-{index:02d}", Query.keyword("patterns", "observer"))
               for index in range(1, 5)]
        outcome = driver.run_mixed(ops, interarrival_ms=1.0)
        assert all(response.messages_sent == 2 for response in outcome.responses)
        assert network.stats.total_messages == 8


class TestRetrieveOnKernel:
    """The download path is an event cascade on the shared clock."""

    def build_network(self, *, attachments=()):
        network = GnutellaProtocol(seed=9, default_ttl=8, degree=3)
        for index in range(8):
            network.create_peer(f"peer-{index:02d}")
        network.build_overlay()
        document = parse("<pattern><name>Observer</name></pattern>").root
        metadata = {"name": ["Observer"]}
        if attachments:
            metadata["__attachments__"] = list(attachments)
        peer = network.peer("peer-05")
        result = peer.repository.publish("patterns", document, metadata,
                                         title="Observer",
                                         attachment_uris=list(attachments))
        network.publish("peer-05", "patterns", result.resource_id, metadata)
        return network, result.resource_id

    def test_start_retrieve_returns_inflight_context(self):
        network, resource_id = self.build_network()
        context = network.start_retrieve("peer-01", "peer-05", resource_id)
        assert isinstance(context, RetrieveContext)
        assert not context.done
        network.kernel.run_until_complete([context])
        assert context.done and context.succeeded
        result = network.finish_retrieve(context)
        assert result.transfer_bytes > 0
        assert result.latency_ms > 0

    def test_retrieve_does_not_mutate_clock_outside_events(self):
        """The clock after a retrieve equals the arrival time of its
        last transfer event — there is no accounting-style jump."""
        network, resource_id = self.build_network()
        context = network.start_retrieve("peer-01", "peer-05", resource_id)
        network.kernel.run_until_complete([context])
        assert network.simulator.now == context.completed_at

    def test_attachments_transfer_as_separate_events(self):
        uris = ("file://observer/diagram.png", "file://observer/sample.mp3")
        network, resource_id = self.build_network(attachments=uris)
        result = network.retrieve("peer-01", "peer-05", resource_id)
        assert result.attachments_transferred == 2
        store = network.peer("peer-01").repository.attachments
        assert all(store.has(uri) for uri in uris)
        # Request + response + one transfer per attachment.
        assert network.stats.messages_by_type["download-request"] == 1
        assert network.stats.messages_by_type["download-response"] == 3

    def test_requester_churning_mid_transfer_drops_replica(self):
        """If the requester goes offline before the response arrives,
        nothing replicates and the sync wrapper reports the failure."""
        network, resource_id = self.build_network()
        context = network.start_retrieve("peer-01", "peer-05", resource_id)
        network.simulator.post(0.5, lambda: network.set_online("peer-01", False))
        network.kernel.run_until_complete([context])
        assert context.done and not context.succeeded
        with pytest.raises(Exception):
            network.finish_retrieve(context)
        assert not network.peer("peer-01").repository.documents.contains(resource_id)
        assert network.stats.downloads == 0

    def test_provider_churning_before_request_arrival_fails(self):
        network, resource_id = self.build_network()
        context = network.start_retrieve("peer-01", "peer-05", resource_id)
        network.simulator.post(0.5, lambda: network.set_online("peer-05", False))
        network.kernel.run_until_complete([context])
        assert context.done and context.stored is None


class TestRecurringTimer:
    def test_every_fires_each_interval_until_cancelled(self):
        kernel, simulator, _, _ = make_kernel()
        fired = []
        timer = kernel.every(10.0, lambda: fired.append(simulator.now))
        simulator.run(until_ms=35.0)
        assert fired == [10.0, 20.0, 30.0]
        timer.cancel()
        simulator.run(until_ms=60.0)
        assert len(fired) == 3

    def test_every_rejects_a_non_positive_interval(self):
        kernel, simulator, _, _ = make_kernel()
        for interval in (0.0, -5.0):
            with pytest.raises(ValueError, match="must be positive"):
                kernel.every(interval, lambda: None)
        assert kernel.timers == []
        assert simulator.pending_events() == 0

    def test_a_callback_can_cancel_its_own_timer(self):
        kernel, simulator, _, _ = make_kernel()
        fired = []

        def tick():
            fired.append(simulator.now)
            if len(fired) == 2:
                timer.cancel()

        timer = kernel.every(7.0, tick)
        simulator.run(until_ms=100.0)
        assert fired == [7.0, 14.0]

    def test_cancel_timers_stops_every_timer(self):
        kernel, simulator, _, _ = make_kernel()
        fired = []
        kernel.every(10.0, lambda: fired.append(("a", simulator.now)))
        kernel.every(15.0, lambda: fired.append(("b", simulator.now)))
        simulator.run(until_ms=30.0)
        # At the 30 ms tie, b's firing was queued first (at 15 ms, a's at 20 ms)
        assert fired == [("a", 10.0), ("b", 15.0), ("a", 20.0), ("b", 30.0), ("a", 30.0)]
        kernel.cancel_timers()
        assert kernel.timers == []
        simulator.run(until_ms=100.0)
        assert len(fired) == 5
