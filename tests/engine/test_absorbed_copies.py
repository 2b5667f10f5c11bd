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
"""

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
