"""The kernel fan-out is N sends; the drive loop is the one pop loop.

* A property: ``EventKernel.send_many(message, sender, fan_out,
  exclude=)`` over any recipient list's ``EventKernel.fan_out`` row,
  with and without injected faults, leaves statistics, exchange
  counters, the ``horizon`` and the queued deliveries exactly as one
  ``send(message.forwarded(sender, recipient))`` per recipient other
  than ``exclude`` does — on the single-queue simulator and on a
  sharded one, for a plain type and for a once-per-node type on a
  kernel that absorbs nothing.
* The same property for a once-per-node type on an absorbing kernel,
  whose copies to nodes the exchange already visited are absorbed
  instead of queued, and, unfaulted, whose later copies to a node
  already queued for are held: what the fan-out queues plus what a
  test-side oracle (recipient in ``visited`` at send; a repeat of a
  recipient, whose copies share one link and one arrival) says it
  absorbs or holds is what one ``send()`` per copy queues, the
  exchange's ``horizon`` is the latest absorbed or held arrival, the
  exchange completes at the same instant, and one hop message is built
  exactly when the fan-out queues an event, shared by every event it
  queues.
* The semantics of ``NetworkSimulator.drive`` (the loop under every
  batch, every synchronous search, ``run`` and ``step``), on both
  simulators.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.driver import QueryDriver, SearchOp
from repro.engine.kernel import EventKernel, QueryContext
from repro.engine.sharded import ShardedSimulator
from repro.network.faults import FaultPlan, PartitionWindow, build_fault_model
from repro.network.gnutella import GnutellaProtocol
from repro.network.messages import Message, MessageType, query_message
from repro.network.peers import Peer
from repro.network.simulator import DriveLatch, NetworkSimulator, SimulationTruncated
from repro.network.stats import NetworkStats
from repro.storage.query import Query

NODES = ("s", "x") + tuple(f"n{index}" for index in range(6))

SIMULATORS = {
    "single-queue": lambda: NetworkSimulator(seed=3),
    "sharded": lambda: ShardedSimulator(seed=3, shards=4),
}


def entries(simulator):
    """Every queued entry, in the order the simulator would run them."""
    queues = [simulator._queue, *getattr(simulator, "_shard_queues", ())]
    return sorted(itertools.chain(*queues), key=lambda entry: entry[:2])


def queued(simulator):
    """Every queued entry as ``(time, sequence, callback name, recipient,
    hop)``: a delivery or drop event is ``(message, recipient, context)``,
    and ``hop`` is what the message says of its hop (sender, descriptor
    id, TTL and hops travelled) — everything but a recipient."""
    return [(entry[0], entry[1], entry[2].__name__, entry[3][1],
             (message.sender, message.message_id, message.ttl, message.hops))
            for entry in entries(simulator) for message in entry[3][:1]]


def fan_out_kernel(make_simulator, *, once_per_node, absorbs):
    kernel = make_kernel(make_simulator())
    kernel.absorbs_visited_copies = absorbs
    if once_per_node:
        kernel.deliver_once_per_node(MessageType.QUERY)
    return kernel


def fan_out_state(make_simulator, recipients, exclude, visited, plan, *, once_per_node,
                  many):
    """Fan a QUERY out from inside a delivery at ``s``, on a kernel that
    absorbs nothing, and report everything the two spellings must agree
    on."""
    kernel = fan_out_kernel(make_simulator, once_per_node=once_per_node, absorbs=False)
    simulator, stats = kernel.simulator, kernel.stats
    context = QueryContext(query=Query("c"), origin_id="s")
    context.visited.update(visited)
    held = query_message("x", "s", "<q/>", ttl=4, message_id="flood-1")

    def fan_out(peer, message, _context):
        if many:
            kernel.send_many(message, "s", kernel.fan_out("s", recipients), exclude=exclude,
                             context=context)
        else:
            for recipient in recipients:
                if recipient != exclude:
                    kernel.send(message.forwarded("s", recipient), context=context)

    kernel.register(MessageType.QUERY, fan_out)
    kernel.send(held)
    kernel.faults = build_fault_model(plan)   # after the send that must arrive
    assert simulator.step()   # the delivery at s; its fan-out stays queued
    return {
        "messages": dict(stats.messages_by_type), "bytes": dict(stats.bytes_by_type),
        "faults": stats.fault_summary(),
        "context": (context.messages_sent, context.bytes_sent, context.pending),
        "horizon": context.horizon,
        "queued": queued(simulator),
    }


fault_plans = st.one_of(st.none(), st.builds(
    FaultPlan,
    seed=st.integers(0, 50),
    loss_rate=st.sampled_from([0.0, 0.3, 0.7]),
    duplicate_rate=st.sampled_from([0.0, 0.5]),
    extra_delay_rate=st.sampled_from([0.0, 0.5]),
    extra_delay_ms=st.sampled_from([0.0, 35.0]),
    partitions=st.sampled_from([
        (), (PartitionWindow(0.0, 500.0, left=("s",), right=("n0", "n3")),)]),
))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(recipients=st.lists(st.sampled_from(NODES), max_size=7),
       exclude=st.sampled_from(("",) + NODES),
       visited=st.sets(st.sampled_from(NODES)), once_per_node=st.booleans(),
       plan=fault_plans, simulator=st.sampled_from(sorted(SIMULATORS)))
def test_fan_out_is_one_send_per_copy(recipients, exclude, visited, once_per_node, plan,
                                      simulator):
    """Repeated recipients are the sharp case: the fault model keys
    same-instant sends on one link by their occurrence, i.e. by order."""
    make = SIMULATORS[simulator]
    one_by_one = fan_out_state(make, recipients, exclude, visited, plan,
                               once_per_node=once_per_node, many=False)
    assert fan_out_state(make, recipients, exclude, visited, plan,
                         once_per_node=once_per_node, many=True) == one_by_one
    assert one_by_one["context"][0] == len(
        [recipient for recipient in recipients if recipient != exclude])
    assert one_by_one["horizon"] == 0.0


def once_per_node_fan_out(make_simulator, recipients, visited, plan, *, absorbing):
    """Fan a once-per-node QUERY out from inside a delivery at ``s``, on an
    absorbing kernel, for an exchange that has visited ``visited`` and
    holds a token the fan-out releases.  Returns the run's state right
    after the fan-out and after a drain, plus every copy
    ``Message.forwarded`` built during the fan-out."""
    kernel = fan_out_kernel(make_simulator, once_per_node=True, absorbs=True)
    simulator, stats = kernel.simulator, kernel.stats
    context = QueryContext(query=Query("c"), origin_id="s")
    context.visited.update(visited)
    context.pending += 1
    held = query_message("x", "s", "<q/>", ttl=4, message_id="flood-1")
    built = []
    forwarded = Message.forwarded

    def counted_forwarded(message, sender, recipient):
        built.append(forwarded(message, sender, recipient))
        return built[-1]

    def fan_out(peer, message, _context):
        if message is not held:
            return
        Message.forwarded = counted_forwarded
        try:
            if absorbing:
                kernel.send_many(message, "s", kernel.fan_out("s", recipients),
                                 context=context)
            else:
                for recipient in recipients:
                    kernel.send(message.forwarded("s", recipient), context=context)
        finally:
            Message.forwarded = forwarded
        kernel.release(context)

    kernel.register(MessageType.QUERY, fan_out)
    kernel.send(held)
    kernel.faults = build_fault_model(plan)   # after the send that must arrive
    assert simulator.step()   # the delivery at s; its fan-out stays queued

    def state():
        return {"messages": dict(stats.messages_by_type), "bytes": dict(stats.bytes_by_type),
                "faults": stats.fault_summary(),
                "context": (context.messages_sent, context.bytes_sent),
                "completion": (context.done, context.completed_at, context.starved)}

    after_fan_out = dict(state(), pending=context.pending, horizon=context.horizon,
                         now=simulator.now, entries=entries(simulator))
    simulator.run()
    return after_fan_out, dict(state(), pending=context.pending), built


def arrival(entry):
    """A queued entry without its sequence number: when, what, where (a
    delivery or drop event is ``(message, recipient, context)``, a
    completion ``(context,)``)."""
    args = entry[3]
    return entry[0], entry[2].__name__, args[1] if len(args) == 3 else None


@settings(max_examples=80, deadline=None, derandomize=True)
@given(recipients=st.lists(st.sampled_from(NODES), max_size=7),
       visited=st.sets(st.sampled_from(NODES)),
       plan=fault_plans, simulator=st.sampled_from(sorted(SIMULATORS)))
def test_absorbing_fan_out_is_one_send_per_copy(recipients, visited, plan, simulator):
    make = SIMULATORS[simulator]
    reference, reference_end, _ = once_per_node_fan_out(
        make, recipients, visited, plan, absorbing=False)
    absorbing, absorbing_end, built = once_per_node_fan_out(
        make, recipients, visited, plan, absorbing=True)

    for key in ("messages", "bytes", "faults", "context"):
        assert absorbing[key] == reference[key]
    # Split the reference's queued deliveries, in the order they run, by
    # the oracle's verdict on their recipient; fault duplicates and drops
    # of an absorbed copy count.  Unfaulted, each copy after the first to
    # one recipient arrives with it and after it: held.
    absorbed = set(recipients) & visited
    absorbed_arrivals, held_arrivals, kept = [], [], []
    for entry in reference["entries"]:
        recipient = arrival(entry)[2]
        if recipient in absorbed:
            absorbed_arrivals.append(arrival(entry))
        elif plan is None and recipient in [queued[2] for queued in kept]:
            held_arrivals.append(arrival(entry))
        else:
            kept.append(arrival(entry))
    deliveries = [entry for entry in absorbing["entries"]
                  if entry[2].__name__ != "_complete"]
    assert [arrival(entry) for entry in deliveries] == kept
    # One hop message is built exactly when an event is queued for some
    # copy, however many recipients and events, and every queued event
    # carries it.
    assert len(built) == (1 if [node for node in recipients if node not in absorbed] else 0)
    assert {id(copy) for copy in built} == {id(entry[3][0]) for entry in deliveries}
    assert absorbing["horizon"] == max(
        (time for time, _, _ in absorbed_arrivals + held_arrivals), default=0.0)
    assert absorbing["pending"] == (reference["pending"] - len(absorbed_arrivals)
                                    - len(held_arrivals))
    # One horizon event stands in for the absorbed and held arrivals exactly when
    # nothing else of the exchange is queued and one is still ahead.
    settles = [arrival(entry)[:2] for entry in absorbing["entries"]
               if entry[2].__name__ == "_complete"]
    waits = absorbing["pending"] == 0 and absorbing["horizon"] > absorbing["now"]
    assert settles == ([(absorbing["horizon"], "_complete")] if waits else [])

    assert absorbing_end == reference_end
    assert absorbing_end["completion"][0] and not absorbing_end["completion"][2]


@pytest.fixture(params=sorted(SIMULATORS))
def simulator(request):
    return SIMULATORS[request.param]()


def release(latch, log=None, label=None):
    def callback():
        latch.remaining -= 1
        if log is not None:
            log.append(label)
    return callback


class TestDriveLoop:
    def test_stops_at_the_releasing_event(self, simulator):
        latch, ran = DriveLatch(1), []
        simulator.post(10.0, release(latch, ran, "release"))
        simulator.post(20.0, ran.append, "later")
        assert simulator.drive(latch, max_events=100) == (1, False)
        assert ran == ["release"]
        assert simulator.now == 10.0
        assert simulator.pending_events() == 1
        assert simulator.events_processed == 1

    def test_released_latch_runs_nothing(self, simulator):
        simulator.post(1.0, lambda: None)
        assert simulator.drive(DriveLatch(0), max_events=100) == (0, False)
        assert simulator.pending_events() == 1 and simulator.now == 0.0

    def test_nested_drive_does_not_stop_the_outer_one(self, simulator):
        outer, inner, ran = DriveLatch(1), DriveLatch(1), []

        def nested():
            ran.append("nested starts")
            assert simulator.drive(inner, max_events=100) == (1, False)
            ran.append(f"nested done at {simulator.now}")

        simulator.post(5.0, nested)
        simulator.post(8.0, release(inner, ran, "inner released"))
        simulator.post(12.0, release(outer, ran, "outer released"))
        simulator.post(30.0, ran.append, "later")
        assert simulator.drive(outer, max_events=100) == (2, False)
        assert ran == ["nested starts", "inner released", "nested done at 8.0",
                       "outer released"]
        assert simulator.now == 12.0
        assert simulator.events_processed == 3
        assert simulator.pending_events() == 1

    def test_outer_release_inside_a_nested_drive_does_not_stop_the_nested_one(
            self, simulator):
        outer, inner, ran = DriveLatch(1), DriveLatch(1), []
        simulator.post(
            5.0, lambda: ran.append(simulator.drive(inner, max_events=100)))
        simulator.post(6.0, release(outer, ran, "outer released"))
        simulator.post(8.0, release(inner, ran, "inner released"))
        simulator.post(30.0, ran.append, "later")
        assert simulator.drive(outer, max_events=100) == (1, False)
        assert ran == ["outer released", "inner released", (2, False)]
        assert simulator.now == 8.0
        assert simulator.pending_events() == 1

    def test_drained_queue_is_reported(self, simulator):
        simulator.post(4.0, lambda: None)
        assert simulator.drive(DriveLatch(1), max_events=100) == (1, True)
        assert simulator.now == 4.0
        assert simulator.drive(DriveLatch(1), max_events=100) == (0, True)

    def test_max_events_raises(self, simulator):
        def again():
            simulator.post(1.0, again)

        simulator.post(1.0, again)
        with pytest.raises(SimulationTruncated) as excinfo:
            simulator.drive(DriveLatch(1), max_events=50)
        assert excinfo.value.processed == 50
        assert simulator.events_processed == 50

    def test_stops_before_the_horizon_and_at_the_cap(self, simulator):
        ran = []
        for time in (5.0, 10.0, 15.0):
            simulator.post(time, ran.append, time)
        # an event at the horizon runs, one past it stays queued, and a
        # cap reached with only that event left is no truncation
        assert simulator.drive(DriveLatch(1), max_events=2, until_ms=10.0) == (2, False)
        assert ran == [5.0, 10.0] and simulator.now == 10.0
        assert simulator.pending_events() == 1 and simulator.events_processed == 2

    def test_events_processed_counts_what_ran_when_a_callback_raises(self, simulator):
        latch = DriveLatch(1)

        def boom():
            raise ValueError("boom")

        simulator.post(1.0, lambda: None)
        simulator.post(2.0, boom)
        simulator.post(3.0, release(latch))
        with pytest.raises(ValueError):
            simulator.drive(latch, max_events=100)
        # as with step(): an event counts once its callback returned
        assert simulator.events_processed == 1
        assert simulator.drive(latch, max_events=100) == (1, False)
        assert simulator.events_processed == 2


def make_kernel(simulator):
    peers = {node: Peer(peer_id=node) for node in NODES}
    return EventKernel(simulator=simulator, peers=peers, stats=NetworkStats())


class TestRunUntilComplete:
    def test_chains_onto_an_installed_watcher(self, simulator):
        kernel = make_kernel(simulator)
        context, seen = QueryContext(query=Query("c"), origin_id="s"), []
        context.watcher = seen.append
        kernel.send(query_message("s", "n0", "<q/>"), context=context)
        assert kernel.run_until_complete([context]) == 1
        assert seen == [context] and context.done

    def test_same_context_listed_twice(self, simulator):
        kernel = make_kernel(simulator)
        context = QueryContext(query=Query("c"), origin_id="s")
        kernel.send(query_message("s", "n0", "<q/>"), context=context)
        assert kernel.run_until_complete([context, context]) == 1
        assert context.done and not context.starved

    def test_search_from_inside_an_event_leaves_the_outer_drive_running(self, simulator):
        kernel = make_kernel(simulator)
        outer = QueryContext(query=Query("c"), origin_id="s")
        inner = QueryContext(query=Query("c"), origin_id="x")
        ran = []

        def search_synchronously():
            kernel.send(query_message("x", "n1", "<q/>"), context=inner, latency_ms=10.0)
            kernel.run_until_complete([inner])
            ran.append(("inner done", simulator.now, outer.done))

        kernel.send(query_message("s", "n0", "<q/>"), context=outer, latency_ms=50.0)
        simulator.post(5.0, search_synchronously)
        simulator.post(90.0, ran.append, "later")
        kernel.run_until_complete([outer])
        assert ran == [("inner done", 15.0, False)]
        assert outer.done and outer.completed_at == simulator.now == 50.0
        assert simulator.pending_events() == 1

    def test_drain_starves_what_is_left(self, simulator):
        kernel = make_kernel(simulator)
        context = QueryContext(query=Query("c"), origin_id="s")
        context.pending += 1   # a delivery that will never happen
        simulator.post(40.0, lambda: None)
        kernel.run_until_complete([context])
        assert context.starved and context.completed_at == simulator.now == 40.0


@pytest.mark.parametrize("shards", [1, 4])
def test_driver_marks_a_drained_batch_starved(shards):
    network = GnutellaProtocol(seed=9, default_ttl=4, degree=3, shards=shards)
    for index in range(12):
        network.create_peer(f"peer-{index:02d}")
    network.build_overlay()
    start_search = network.start_search

    def leaky_start_search(origin_id, query, **kwargs):
        context = start_search(origin_id, query, **kwargs)
        if origin_id == "peer-01":
            context.pending += 1   # a delivery that will never happen
        return context

    network.start_search = leaky_start_search
    outcome = QueryDriver(network).run_mixed(
        [SearchOp(f"peer-{index:02d}", Query.keyword("patterns", "observer"))
         for index in range(3)],
        interarrival_ms=5.0)
    assert outcome.starved == 1 and outcome.failed == 0
    assert len(outcome.responses) == 3
    assert network.simulator.pending_events() == 0
