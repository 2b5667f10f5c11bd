"""Tests for the discrete-event simulator and latency model."""

import pytest

from repro.engine.kernel import EventKernel
from repro.network.simulator import LatencyModel, NetworkSimulator, SimulationTruncated
from repro.network.stats import NetworkStats


def timer_kernel(simulator):
    """A peerless kernel: enough to arm a recurring maintenance timer."""
    return EventKernel(simulator=simulator, peers={}, stats=NetworkStats())


class TestLatencyModel:
    def test_symmetric_and_stable(self):
        model = LatencyModel(seed=3)
        assert model.latency("a", "b") == model.latency("b", "a")
        assert model.latency("a", "b") == model.latency("a", "b")

    def test_self_latency_zero(self):
        assert LatencyModel().latency("a", "a") == 0.0

    def test_within_bounds(self):
        model = LatencyModel(base_ms=10, jitter_ms=5, seed=1)
        for pair in (("a", "b"), ("c", "d"), ("x", "y")):
            value = model.latency(*pair)
            assert 10 <= value <= 15

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(base_ms=-1)

    def test_deterministic_across_instances(self):
        """Two models with the same seed agree on every pair — fresh
        networks built for A/B comparisons see identical link costs."""
        first = LatencyModel(seed=11)
        second = LatencyModel(seed=11)
        for pair in (("a", "b"), ("b", "c"), ("peer-000", "peer-013")):
            assert first.latency(*pair) == second.latency(*pair)
            # Symmetry holds across instances too, not just within one.
            assert first.latency(*pair) == second.latency(*reversed(pair))

    def test_different_seeds_differ_somewhere(self):
        first = LatencyModel(seed=1, jitter_ms=30)
        second = LatencyModel(seed=2, jitter_ms=30)
        pairs = [("a", "b"), ("c", "d"), ("e", "f"), ("g", "h")]
        assert any(first.latency(*pair) != second.latency(*pair) for pair in pairs)

    def test_cache_does_not_change_values(self):
        model = LatencyModel(seed=5)
        cold = model.latency("x", "y")
        assert model.latency("x", "y") == cold
        assert model.latency("y", "x") == cold


class TestSimulator:
    def test_clock_starts_at_zero(self):
        assert NetworkSimulator().now == 0.0

    def test_events_run_in_time_order(self):
        simulator = NetworkSimulator()
        order = []
        simulator.post(30, lambda: order.append("late"))
        simulator.post(10, lambda: order.append("early"))
        simulator.post(20, lambda: order.append("middle"))
        processed = simulator.run()
        assert processed == 3
        assert order == ["early", "middle", "late"]
        assert simulator.now == 30

    def test_fifo_for_same_timestamp(self):
        simulator = NetworkSimulator()
        order = []
        simulator.post(5, lambda: order.append(1))
        simulator.post(5, lambda: order.append(2))
        simulator.run()
        assert order == [1, 2]

    def test_run_until(self):
        simulator = NetworkSimulator()
        fired = []
        simulator.post(10, lambda: fired.append("a"))
        simulator.post(100, lambda: fired.append("b"))
        simulator.run(until_ms=50)
        assert fired == ["a"]
        assert simulator.now == 50
        assert simulator.pending_events() == 1

    def test_cancel(self):
        # The one cancellation left: a maintenance timer's flag, read
        # when its already-queued firing comes up.
        simulator = NetworkSimulator()
        fired = []
        timer = timer_kernel(simulator).every(10, lambda: fired.append("x"))
        timer.cancel()
        simulator.run()
        assert fired == []
        assert simulator.pending_events() == 0

    def test_events_scheduled_during_run(self):
        simulator = NetworkSimulator()
        fired = []

        def chain():
            fired.append("first")
            simulator.post(5, lambda: fired.append("second"))

        simulator.post(1, chain)
        simulator.run()
        assert fired == ["first", "second"]
        assert simulator.now == 6

    def test_schedule_at_absolute_time(self):
        # An absolute time is a delay from the current clock.
        simulator = NetworkSimulator()
        simulator.run(until_ms=100)
        fired = []
        simulator.post(150 - simulator.now, lambda: fired.append(simulator.now))
        simulator.run()
        assert simulator.now == 150 and fired == [150]

    def test_schedule_at_past_time_clamps_to_now(self):
        """The earliest a post can land is the current clock: a zero
        delay after the clock has moved fires at ``now``, never earlier."""
        simulator = NetworkSimulator()
        simulator.run(until_ms=100)
        fired = []
        simulator.post(0, lambda: fired.append(simulator.now))
        simulator.run()
        assert fired == [100]
        assert simulator.now == 100

    def test_cancelled_events_skipped_by_run(self):
        simulator = NetworkSimulator()
        fired = []
        timer = timer_kernel(simulator).every(5, lambda: fired.append("cancelled"))
        simulator.post(10, lambda: fired.append("kept"))
        timer.cancel()
        processed = simulator.run()
        assert fired == ["kept"]
        # The stopped timer's queued firing still runs as an event — it
        # reads the flag and does not re-arm — so run() drains.
        assert processed == 2
        assert simulator.pending_events() == 0

    def test_cancelled_events_skipped_by_step(self):
        simulator = NetworkSimulator()
        fired = []
        timer = timer_kernel(simulator).every(5, lambda: fired.append("cancelled"))
        simulator.post(10, lambda: fired.append("kept"))
        timer.cancel()
        assert simulator.step() is True     # the stopped timer's last firing
        assert fired == [] and simulator.now == 5
        assert simulator.step() is True
        assert fired == ["kept"]
        assert simulator.now == 10
        assert simulator.step() is False

    def test_advance(self):
        # The clock moves only by run(): a horizon past the last event
        # (here: an empty queue) sets it there; one behind it is a no-op.
        simulator = NetworkSimulator()
        assert simulator.run(until_ms=simulator.now + 25) == 0
        assert simulator.now == 25
        simulator.run(until_ms=10)
        assert simulator.now == 25

    def test_transfer_time_scales_with_size(self):
        simulator = NetworkSimulator(seed=1)
        small = simulator.transfer_time("a", "b", 1_000)
        large = simulator.transfer_time("a", "b", 1_000_000)
        assert large > small

    def test_transfer_time_requires_positive_bandwidth(self):
        with pytest.raises(ValueError):
            NetworkSimulator().transfer_time("a", "b", 100, bandwidth_kbps=0)

    def test_max_events_guard_raises_on_truncation(self):
        simulator = NetworkSimulator()

        def reschedule():
            simulator.post(1, reschedule)

        simulator.post(1, reschedule)
        with pytest.raises(SimulationTruncated) as excinfo:
            simulator.run(max_events=50)
        assert excinfo.value.processed == 50

    def test_max_events_cap_without_leftover_work_returns_normally(self):
        simulator = NetworkSimulator()
        ran = []
        for index in range(5):
            simulator.post(index, ran.append, index)
        assert simulator.run(max_events=5) == 5
        assert ran == [0, 1, 2, 3, 4]

    def test_max_events_cap_ignores_events_beyond_horizon(self):
        # Leftover events past until_ms are not truncation: the run
        # legitimately stops at the horizon.
        simulator = NetworkSimulator()
        for index in range(5):
            simulator.post(index, lambda: None)
        simulator.post(1_000, lambda: None)
        assert simulator.run(until_ms=10, max_events=5) == 5
        assert simulator.now == 10
