"""Unit tests for the sharded simulator, its windows and shard placement."""

from __future__ import annotations

from itertools import count

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.kernel import EventKernel, ExchangeContext
from repro.engine.sharded import CONTROL, ShardedSimulator, shard_of
from repro.network.messages import Message, MessageType
from repro.network.peers import Peer
from repro.network.simulator import (DriveLatch, LatencyModel, NetworkSimulator,
                                     SimulationTruncated)
from repro.network.stats import NetworkStats


def homed_ids(shards):
    """Four node ids, the i-th homed on shard ``i % shards`` by
    :func:`shard_of`, the only placement there is."""
    candidates = (f"n{index}" for index in count())
    return tuple(next(node for node in candidates if shard_of(node, shards) == index % shards)
                 for index in range(4))


#: the peers of a two-shard kernel: A and C on shard 0, B and D on shard 1
A, B, C, D = homed_ids(2)


def make_sharded_kernel(*, shards=2, base_ms=20.0, jitter_ms=10.0, seed=1):
    """Kernel on a sharded simulator with four peers split across shards."""
    simulator = ShardedSimulator(
        latency=LatencyModel(base_ms=base_ms, jitter_ms=jitter_ms, seed=seed),
        seed=seed, shards=shards)
    peers = {peer_id: Peer(peer_id=peer_id) for peer_id in homed_ids(shards)}
    kernel = EventKernel(simulator=simulator, peers=peers, stats=NetworkStats())
    return kernel, simulator, peers


def ping(sender, recipient):
    return Message(type=MessageType.PING, sender=sender, recipient=recipient)


class TestPartition:
    def test_shard_of_is_stable_and_in_range(self):
        # crc32, not the salted builtin hash: the placement decides the
        # event interleaving, so it must not move between processes.
        ids = [f"peer-{index:04d}" for index in range(100)]
        shards = [shard_of(peer_id, 4) for peer_id in ids]
        assert set(shards) == {0, 1, 2, 3}
        assert shard_of("peer-0000", 4) == 3
        assert shard_of("peer-0001", 4) == 1

    def test_single_shard_maps_everything_to_zero(self):
        assert shard_of("anything", 1) == 0


class TestShardedRouting:
    def test_message_events_run_on_recipient_shard(self):
        kernel, simulator, _ = make_sharded_kernel()
        seen = []
        kernel.register(MessageType.PING, lambda peer, msg, ctx: seen.append(msg.recipient))
        kernel.send(ping(A, C))  # both shard 0
        kernel.send(ping(A, B))  # cross 0 -> 1
        simulator.run()
        assert sorted(seen) == sorted([B, C])
        assert simulator.events_per_shard[0] >= 1
        assert simulator.events_per_shard[1] >= 1

    def test_cross_shard_sends_from_handlers_cross_a_window(self):
        kernel, simulator, _ = make_sharded_kernel()

        def relay(peer, message, context):
            if message.recipient == A:
                kernel.send(ping(A, B))  # shard 0 -> shard 1, mid-event

        kernel.register(MessageType.PING, relay)
        kernel.send(ping(B, A))
        simulator.run()
        assert simulator.cross_shard_messages >= 1
        assert simulator.windows >= 2
        assert simulator.pending_events() == 0

    def test_control_events_stay_on_control_queue(self):
        kernel, simulator, _ = make_sharded_kernel()
        fired = []
        simulator.post(5.0, fired.append, "control")
        simulator.run()
        assert fired == ["control"]
        assert simulator.control_events == 1
        assert simulator.events_per_shard == [0, 0]

    def test_post_keyed_routes_to_key_shard(self):
        kernel, simulator, _ = make_sharded_kernel()
        fired = []
        simulator.post_keyed(B, 5.0, fired.append, "on-b-shard")
        simulator.run()
        assert fired == ["on-b-shard"]
        assert simulator.events_per_shard[simulator.shard_of_node(B)] == 1

    def test_single_queue_simulator_ignores_affinity_hint(self):
        simulator = NetworkSimulator(seed=1)
        fired = []
        simulator.post_keyed("anything", 5.0, fired.append, "x")
        simulator.run()
        assert fired == ["x"]


class TestConservativeBarrier:
    def test_execution_order_matches_single_queue_exactly(self):
        """The determinism argument, pinned at the event level: the
        windowed merge pops the same (time, sequence) order the
        single-queue simulator would, cascades included."""

        def cascade(make_kernel):
            kernel, simulator, _ = make_kernel()
            trace = []

            def handler(peer, message, context):
                trace.append((round(simulator.now, 9), message.sender,
                              message.recipient))
                if message.hops < 3:
                    target = {A: B, B: C, C: D, D: A}[message.recipient]
                    forwarded = message.forwarded(message.recipient, target)
                    forwarded.type = MessageType.PING
                    kernel.send(forwarded)

            kernel.register(MessageType.PING, handler)
            for origin, target in ((A, B), (C, D), (B, A)):
                kernel.send(ping(origin, target))
            simulator.run()
            return trace

        def sharded():
            return make_sharded_kernel(shards=2)

        def plain():
            simulator = NetworkSimulator(
                latency=LatencyModel(base_ms=20.0, jitter_ms=10.0, seed=1), seed=1)
            peers = {peer_id: Peer(peer_id=peer_id) for peer_id in (A, B, C, D)}
            return EventKernel(simulator=simulator, peers=peers,
                               stats=NetworkStats()), simulator, peers

        assert cascade(sharded) == cascade(plain)

    def test_recurring_timer_fires_exactly_at_window_boundaries(self):
        # Lookahead is 20ms, so windows close at multiples of the base
        # latency; a timer whose interval equals the lookahead fires
        # exactly on every boundary and must neither be skipped nor run
        # twice.
        kernel, simulator, _ = make_sharded_kernel(base_ms=20.0, jitter_ms=0.0)
        fired = []
        timer = kernel.every(20.0, lambda: fired.append(simulator.now))
        simulator.run(until_ms=100.0)
        assert fired == [20.0, 40.0, 60.0, 80.0, 100.0]
        timer.cancel()
        simulator.run(until_ms=200.0)
        assert len(fired) == 5

    def test_schedule_at_clamps_to_now_on_sharded_clock(self):
        # run(until_ms=) moves the shared clock, and a later zero-delay
        # post lands at that clock, not before it.
        _, simulator, _ = make_sharded_kernel()
        simulator.run(until_ms=50.0)
        fired = []
        simulator.post(0.0, lambda: fired.append(simulator.now))
        simulator.run()
        assert fired == [50.0]

    def test_lookahead_violation_is_detected_not_silent(self):
        kernel, simulator, _ = make_sharded_kernel(base_ms=20.0, jitter_ms=0.0)

        def rogue(peer, message, context):
            if message.recipient == A:
                # A protocol bug: cross-shard reply cheaper than one link.
                kernel.send(ping(A, B), latency_ms=1.0)

        kernel.register(MessageType.PING, rogue)
        kernel.send(ping(B, A))
        with pytest.raises(RuntimeError, match="lookahead violated"):
            simulator.run()

    def test_sub_lookahead_send_raises_inside_the_sending_event(self):
        # The window opened at 10ms ends at 30ms.  The rogue delivery's
        # 1ms cross-shard send lands inside it, so the send itself
        # raises: neither the rest of the rogue event nor any later
        # event of the window runs.
        simulator = ShardedSimulator(
            latency=LatencyModel(base_ms=20.0, jitter_ms=0.0, seed=1), seed=1, shards=2)
        ran = []

        # A delivery event is ``(message, recipient, ...)``: it runs on
        # the recipient's shard.
        def arrived(message, recipient):
            ran.append(message)

        def rogue(message, recipient):
            ran.append("rogue")
            simulator.post(1.0, arrived, ping(A, B), B)
            ran.append("after the send")

        simulator.post(10.0, rogue, ping(B, A), A)
        simulator.post(12.0, arrived, ping(A, B), B)
        simulator.post(15.0, ran.append, "control event")
        with pytest.raises(RuntimeError, match="lookahead violated"):
            simulator.run()
        assert ran == ["rogue"]
        assert simulator.now == 10.0
        assert simulator.events_processed == 0
        assert simulator.pending_events() == 2

    def test_degenerate_latency_model_falls_back_to_single_queue(self):
        kernel, simulator, _ = make_sharded_kernel(base_ms=0.0, jitter_ms=5.0)
        assert simulator.lookahead_ms == 0.0
        seen = []
        kernel.register(MessageType.PING, lambda peer, msg, ctx: seen.append(msg.recipient))
        kernel.send(ping(A, B))
        simulator.run()
        assert seen == [B]
        assert simulator.windows == 0  # no windowed execution happened

    def test_run_until_ms_advances_clock_like_single_queue(self):
        _, sharded_sim, _ = make_sharded_kernel()
        plain_sim = NetworkSimulator(seed=1)
        for simulator in (sharded_sim, plain_sim):
            simulator.run(until_ms=123.0)
            assert simulator.now == 123.0


class TestCrossShardInFlight:
    def test_departed_destination_drops_in_flight_cross_shard_message(self):
        # The delivery crosses a barrier while its destination departs:
        # the message must be dropped on arrival (no handler call) and
        # still decrement the exchange's pending count to completion.
        kernel, simulator, peers = make_sharded_kernel()
        handled = []
        kernel.register(MessageType.PING, lambda peer, msg, ctx: handled.append(msg))
        context = ExchangeContext()
        kernel.send(ping(A, B), context=context)     # cross-shard, in flight
        def depart():
            peers[B].online = False

        simulator.post(1.0, depart)                  # departs before delivery
        kernel.run_until_complete([context])
        assert handled == []
        assert context.done and context.pending == 0 and not context.starved

class TestTruncationIsLoud:
    def test_max_events_cap_with_leftover_work_raises(self):
        _, simulator, _ = make_sharded_kernel()
        for tick in range(10):
            simulator.post(float(tick + 1), lambda: None)
        with pytest.raises(SimulationTruncated) as excinfo:
            simulator.run(max_events=5)
        assert excinfo.value.processed == 5

    def test_max_events_cap_without_leftover_work_returns_normally(self):
        _, simulator, _ = make_sharded_kernel()
        for tick in range(5):
            simulator.post(float(tick + 1), lambda: None)
        assert simulator.run(max_events=5) == 5

    def test_max_events_cap_ignores_events_beyond_horizon(self):
        _, simulator, _ = make_sharded_kernel()
        simulator.post(1.0, lambda: None)
        simulator.post(1_000.0, lambda: None)
        assert simulator.run(until_ms=10.0, max_events=1) == 1
        assert simulator.now == 10.0


#: four nodes, the i-th homed on shard i of a four-shard simulator
NODES4 = homed_ids(4)
BASE_MS = 20.0

#: one scheduled event: (how it is posted, delay, node, the events it
#: posts when it runs).  A node makes a ``post`` / ``post_at`` event a
#: delivery to that node and a ``post_keyed`` event keyed on it; with
#: no node it is a control event (``post_keyed`` with an empty key).
hows = st.sampled_from(["post", "post_at", "post_keyed"])
delays = st.sampled_from([0.0, 5.0, 10.0, 20.0, 25.0, 40.0])
nodes = st.sampled_from((None, *NODES4))
event_specs = st.recursive(
    st.tuples(hows, delays, nodes, st.just(())),
    lambda children: st.tuples(hows, delays, nodes,
                               st.lists(children, max_size=3).map(tuple)),
    max_leaves=30)


def execute(simulator, schedule, loop):
    """Post ``schedule`` and run it with ``loop``; return the executed
    ``(time, label)`` sequence, the final clock and the event count.

    Labels are drawn in posting order, as sequence numbers are, so the
    label sequence is the ``(time, sequence)`` sequence.  A delivery
    posted from one shard's event to another shard's node waits at
    least one base latency, as every link does.
    """
    trace, labels = [], count()

    def fire(label, children, shard):
        trace.append((simulator.now, label))
        for child in children:
            post(child, shard)

    def deliver(message, recipient, label, children):
        fire(label, children, shard_of(recipient, 4))

    def post(spec, sender_shard):
        how, delay, node, children = spec
        label = next(labels)
        if node is None or how == "post_keyed":
            shard = CONTROL if node is None else shard_of(node, 4)
            callback, args = fire, (label, children, shard)
        else:
            if sender_shard not in (CONTROL, shard_of(node, 4)):
                delay = max(delay, BASE_MS)
            callback, args = deliver, (ping("s", node), node, label, children)
        if how == "post":
            simulator.post(delay, callback, *args)
        elif how == "post_at":
            simulator.post_at(simulator.now + delay, callback, *args)
        else:
            simulator.post_keyed(node or "", delay, callback, *args)

    for spec in schedule:
        post(spec, CONTROL)
    loop(simulator)
    return trace, simulator.now, simulator.events_processed


def step_until_empty(simulator):
    while simulator.step():
        pass


LOOPS = {
    "run": lambda simulator: simulator.run(),
    "drive": lambda simulator: simulator.drive(DriveLatch(1), max_events=10_000),
    "step": step_until_empty,
}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(schedule=st.lists(event_specs, min_size=1, max_size=6))
def test_every_loop_runs_the_same_events_on_every_simulator(schedule):
    """``run()``, ``drive(latch)`` and ``step()`` until empty pop the
    same ``(time, sequence)`` sequence on the single queue and on four
    shards, and leave the same clock and event count."""
    def single():
        return NetworkSimulator(latency=LatencyModel(base_ms=BASE_MS, seed=1), seed=1)

    def sharded():
        return ShardedSimulator(latency=LatencyModel(base_ms=BASE_MS, seed=1),
                                seed=1, shards=4)

    reference = execute(single(), schedule, LOOPS["run"])
    assert len(reference[0]) == reference[2]
    for make in (single, sharded):
        for loop in LOOPS.values():
            assert execute(make(), schedule, loop) == reference
