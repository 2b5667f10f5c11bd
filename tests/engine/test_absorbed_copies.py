"""A flood copy to an already-visited node is absorbed at send time, and
its exchange still completes at the instant the copy would have arrived.

* Pinned floods whose last event is an absorbed copy complete at the
  float instant, compared with ``==``, that they completed at while every
  such copy still rode the queue to its filtered arrival.  They run
  clean, with every copy duplicated after a lag, with every copy
  delayed, and on four shards.
* The other two ways ``pending`` reaches zero while an absorbed copy is
  still "in flight" wait for it too: ``finish_if_idle`` after a fan-out
  sent outside the exchange's own events, and ``release`` of a held
  token.  Each is compared with a kernel that absorbs nothing.
* A copy that awaits an ACK goes through ``send``, which never absorbs:
  it reaches its recipient, visited or not, which acknowledges it.
* A copy queued behind an earlier copy to the same node is held, and
  released when that earlier copy finds the node offline and not yet
  visited: it is handled if the node is back by its own arrival.  A
  flood under flapping relays with every link latency equal, so that
  arrivals tie everywhere, hands the same copies to the same handlers in
  the same order as before any copy was held, on one shard and on four.
  The released node's ``scheduled`` entry goes with the release, so no
  later copy is held behind a copy that already arrived.
"""

import gc
import hashlib
import json

import pytest

from repro.engine.kernel import EventKernel, QueryContext
from repro.network.faults import FaultPlan
from repro.network.gnutella import GnutellaProtocol
from repro.network.messages import MessageType, query_message
from repro.network.peers import Peer
from repro.network.simulator import NetworkSimulator
from repro.network.stats import NetworkStats
from repro.storage.query import Query

PLANS = {
    "clean": None,
    "duplicate-lag": FaultPlan(seed=7, duplicate_rate=1.0),
    "extra-delay": FaultPlan(seed=7, extra_delay_rate=1.0, extra_delay_ms=35.0),
}

#: ``completed_at`` of :func:`pinned_flood` under each plan, as the flood
#: completed when every copy to a visited node was queued and delivered
GOLDEN_COMPLETED_AT = {
    "clean": 166.9259346873743,
    "duplicate-lag": 203.8838704806996,
    "extra-delay": 306.9259346873743,
}


def pinned_flood(plan, shards=1):
    """One TTL-5 search over 30 peers of degree 4.  Returns its context
    and the ``(time, callback)`` of every event posted at an absolute
    time (the kernel's completions at a horizon)."""
    network = GnutellaProtocol(seed=1, default_ttl=5, degree=4, shards=shards, faults=plan)
    for index in range(30):
        network.create_peer(f"peer-{index:02d}")
    network.build_overlay()
    simulator = network.simulator
    posted_at = []
    post_at = simulator.post_at

    def spy(time_ms, callback, *args):
        posted_at.append((time_ms, callback.__name__))
        post_at(time_ms, callback, *args)

    simulator.post_at = spy
    context = network.start_search("peer-00", Query("c"))
    network.kernel.run_until_complete([context])
    return context, posted_at


@pytest.mark.parametrize(
    "plan, shards",
    [("clean", 1), ("duplicate-lag", 1), ("extra-delay", 1), ("clean", 4)],
)
def test_a_flood_ending_in_an_absorbed_copy_completes_at_its_arrival(plan, shards):
    context, posted_at = pinned_flood(PLANS[plan], shards)
    assert context.completed_at == GOLDEN_COMPLETED_AT[plan]
    # The last arrival was an absorbed copy's: one queued completion at
    # the horizon ended the flood.
    assert posted_at == [(context.horizon, "_complete")]
    assert context.completed_at == context.horizon
    assert context.pending == 0 and not context.starved


NODES = ("s", "n0", "n1", "n2")


def make_kernel(absorbs):
    kernel = EventKernel(
        simulator=NetworkSimulator(seed=3),
        peers={node: Peer(peer_id=node) for node in NODES},
        stats=NetworkStats(),
    )
    kernel.absorbs_visited_copies = absorbs
    kernel.deliver_once_per_node(MessageType.QUERY)
    return kernel


def visited_context():
    context = QueryContext(query=Query("c"), origin_id="s")
    context.visited.update(("s", "n0", "n1"))
    return context


def fan_out(kernel, context, recipients=("n0", "n1")):
    kernel.send_many(query_message("x", "s", "<q/>"), "s", kernel.fan_out("s", recipients),
                     context=context)


def idle_fan_out(absorbs):
    """A fan-out from the submitting event, every copy to a visited node,
    followed by ``finish_if_idle`` as a search's submission is."""
    kernel, context = make_kernel(absorbs), visited_context()

    def submit():
        fan_out(kernel, context)
        kernel.finish_if_idle(context)

    kernel.simulator.post(5.0, submit)
    kernel.run_until_complete([context])
    return kernel, context


def test_finish_if_idle_completes_at_the_horizon():
    kernel, absorbed = idle_fan_out(absorbs=True)
    _, queued = idle_fan_out(absorbs=False)
    latest = 5.0 + max(kernel.simulator.link_latency("s", node) for node in ("n0", "n1"))
    assert absorbed.completed_at == queued.completed_at == absorbed.horizon == latest
    assert absorbed.messages_sent == queued.messages_sent == 2
    assert kernel.simulator.events_processed == 2  # the submission, the horizon


def released_fan_out(absorbs, release_at):
    """A fan-out while a token is held; the token is released at
    ``release_at``."""
    kernel, context = make_kernel(absorbs), visited_context()
    context.pending += 1
    fan_out(kernel, context)
    kernel.simulator.post(release_at, kernel.release, context)
    kernel.run_until_complete([context])
    return context


@pytest.mark.parametrize("release_at", [1.0, 500.0], ids=["before", "after"])
def test_release_completes_at_the_later_of_itself_and_the_horizon(release_at):
    absorbed = released_fan_out(True, release_at)
    queued = released_fan_out(False, release_at)
    assert absorbed.completed_at == queued.completed_at == max(release_at, absorbed.horizon)
    assert absorbed.horizon > 1.0 and absorbed.pending == queued.pending == 0


def test_a_copy_awaiting_an_ack_is_queued_and_acknowledged():
    kernel, context = make_kernel(True), visited_context()
    acks = []
    kernel.register(MessageType.ACK, lambda peer, message, _context: acks.append(message))
    hop = query_message("x", "s", "<q/>")
    acked = hop.forwarded("s", "n0")
    acked.ack_to = "s"
    kernel.send(acked, context=context)
    kernel.send_many(hop, "s", kernel.fan_out("s", ["n1", "n2"]), context=context)
    # n0 is visited but was sent through ``send``: queued.  n1 is visited:
    # absorbed; n2 is not visited yet.
    # A delivery event is ``(message, recipient, context)``.
    assert sorted(entry[3][1] for entry in kernel.simulator._queue) == ["n0", "n2"]
    kernel.run_until_complete([context])
    assert [(ack.sender, ack.recipient) for ack in acks] == [("n0", "s")]
    assert context.done and kernel.stats.messages_by_type["query"] == 3


def two_hop_kernel(absorbs=True):
    """A kernel over ``s``, ``a`` and ``r`` whose QUERY handler books
    ``(now, recipient, sender, hops)``, and a context that visited ``s``
    and ``a``.  Returns them, the booked handlings, and the two senders
    to ``r`` in order of arrival."""
    kernel = make_kernel(absorbs)
    kernel.peers["r"] = Peer(peer_id="r")
    kernel.peers["a"] = Peer(peer_id="a")
    handled = []
    kernel.register(MessageType.QUERY, lambda peer, message, _context: handled.append(
        (kernel.simulator.now, peer.peer_id, message.sender, message.hops)))
    context = QueryContext(query=Query("c"), origin_id="s")
    context.visited.update(("s", "a"))
    senders = sorted(("s", "a"), key=lambda sender: kernel.simulator.link_latency(sender, "r"))
    return kernel, context, handled, senders


def send_both(kernel, context, senders):
    """A copy to ``r`` from each of ``senders``, in order."""
    for sender in senders:
        kernel.send_many(query_message("x", sender, "<q/>"), sender,
                         kernel.fan_out(sender, ["r"]), context=context)


@pytest.mark.parametrize("back", [True, False], ids=["back-in-time", "still-away"])
def test_a_held_copy_is_released_when_its_earlier_copy_finds_the_node_offline(back):
    runs = []
    for absorbs in (True, False):
        kernel, context, handled, senders = two_hop_kernel(absorbs)
        first, second = (kernel.simulator.link_latency(sender, "r") for sender in senders)
        assert first < second
        kernel.peers["r"].online = False
        kernel.simulator.post(0.0, send_both, kernel, context, senders)   # earlier arrival first
        if back:
            kernel.simulator.post((first + second) / 2, setattr, kernel.peers["r"],
                                  "online", True)
        if absorbs:
            kernel.simulator.step()
            # held: no event, no token, its arrival in the horizon
            assert context.held.recipients == ["r"] and context.held.scheduled == {"r": first}
            assert kernel.simulator.pending_events() == 1 + back
            assert context.pending == 1 and context.horizon == second
        kernel.run_until_complete([context])
        runs.append((handled, context.completed_at, context.messages_sent,
                     kernel.simulator.events_processed))
    (handled, completed_at, sent, events), reference = runs
    assert handled == reference[0] == ([(second, "r", senders[1], 1)] if back else [])
    assert completed_at == reference[1] == second and sent == reference[2] == 2
    assert events == reference[3]   # the release re-queued the held copy


def test_a_copy_later_than_a_released_entry_is_not_held():
    """The first copy finds ``r`` offline; ``r`` is back when a copy sent
    after that arrival reaches it.  The arrival dropped ``r``'s scheduled
    entry, so the later copy was queued, not held behind a copy that has
    already come and gone, and it is handled."""
    kernel, context, handled, senders = two_hop_kernel()
    first = kernel.simulator.link_latency(senders[0], "r")
    later = kernel.simulator.link_latency(senders[1], "r")
    kernel.peers["r"].online = False

    def back_and_resend():
        kernel.peers["r"].online = True
        send_both(kernel, context, senders[1:])
        assert "r" not in context.held.recipients   # queued, not held
        kernel.release(context)

    context.pending += 1   # the exchange stays open for the second send
    send_both(kernel, context, senders[:1])
    kernel.simulator.post(first + 1.0, back_and_resend)
    kernel.run_until_complete([context])
    assert context.held is None   # dropped with the completed exchange
    assert handled == [(first + 1.0 + later, "r", senders[1], 1)]
    assert context.completed_at == first + 1.0 + later


def tracked_growth(copies):
    """Net objects the cyclic collector tracks that a fan-out of
    ``copies`` copies to one node leaves behind, all but the first
    held.  Measured with the collector off, after one fan-out made the
    exchange's ``HeldCopies``."""
    kernel, context, _handled, _senders = two_hop_kernel()
    row = kernel.fan_out("s", ["r"]) * copies
    hop = query_message("x", "s", "<q/>")
    kernel.send_many(hop, "s", row, context=context)
    gc.collect()
    gc.disable()
    try:
        before = gc.get_count()[0]
        kernel.send_many(hop, "s", row, context=context)
        growth = gc.get_count()[0] - before
    finally:
        gc.enable()
    assert len(context.held.recipients) == 2 * copies - 1
    return growth


def test_a_held_copy_allocates_no_tracked_object():
    """A held copy is one row of columns: 400 held copies leave no more
    collector-tracked objects behind than 4 do."""
    assert tracked_growth(400) == tracked_growth(4)


#: sha256 of :func:`flapping_flood_trace`, taken before any copy was held
#: (every copy behind an earlier one still queued to its filtered arrival)
GOLDEN_FLAPPING_TRACE = "85b963630685c44469d917accb39ef612c0e870bab01d42a07f4ec1a905b7bad"


def flapping_flood_trace(shards):
    """Three searches over 30 peers whose links all take 20 ms, so that
    every arrival ties with others; thirteen relays drop out 30 ms after each
    search starts, while copies sent at 20 ms are on their way to them,
    and return at 70 ms.  Returns every handling, in order — ``(now, recipient,
    type, sender, hops)`` — each search's completion instant, result
    count and peers probed, and how many held copies were released."""
    network = GnutellaProtocol(seed=2, default_ttl=5, degree=4, shards=shards)
    network.simulator.latency_model.jitter_ms = 0.0
    for index in range(30):
        network.create_peer(f"peer-{index:02d}")
    network.build_overlay()
    kernel, simulator = network.kernel, network.simulator
    trace = []
    for message_type, handler in list(kernel._handlers.items()):
        def booked(peer, message, context, handler=handler, message_type=message_type):
            trace.append((simulator.now, peer.peer_id if peer else None, message_type,
                          message.sender, message.hops))
            handler(peer, message, context)
        kernel._handlers[message_type] = booked
    released = []
    post_reserved = simulator.post_reserved

    def counted_post_reserved(time_ms, sequence, callback, *args):
        released.append(args[1])
        post_reserved(time_ms, sequence, callback, *args)

    simulator.post_reserved = counted_post_reserved
    contexts = []
    relays = [f"peer-{index:02d}" for index in range(3, 30, 2)]
    for search, origin in enumerate(("peer-00", "peer-01", "peer-02")):
        start = 500.0 * search
        simulator.post(start, lambda origin=origin: contexts.append(
            network.start_search(origin, Query("c"))))
        for relay in relays:
            simulator.post(start + 30.0, network.set_online, relay, False)
            simulator.post(start + 70.0, network.set_online, relay, True)
    simulator.run(until_ms=1500.0)
    kernel.run_until_complete(contexts)
    outcome = [(context.completed_at, len(context.results), context.peers_probed)
               for context in contexts]
    return trace, outcome, len(released)


@pytest.mark.parametrize("shards", [1, 4])
def test_tied_arrivals_run_the_same_handlings_with_copies_held(shards):
    trace, outcome, released = flapping_flood_trace(shards)
    assert released > 0   # the guard bites: held copies were released
    digest = hashlib.sha256(json.dumps([trace, outcome]).encode()).hexdigest()
    assert digest == GOLDEN_FLAPPING_TRACE
