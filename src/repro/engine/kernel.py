"""The event kernel: scheduled message delivery plus per-exchange state.

The kernel sits between the protocol adapters and the
:class:`~repro.network.simulator.NetworkSimulator`.  A protocol sends a
:class:`~repro.network.messages.Message` through :meth:`EventKernel.send`;
the kernel accounts it, schedules its delivery one link latency later,
and, at delivery time, dispatches it to the handler the protocol
registered for that message type.  Handlers typically send further
messages (forwarding a flood, relaying between super-peers, returning a
query hit, streaming a download's attachments), so a whole search or
download unfolds as a cascade of events interleaved — on the same
clock — with churn events and with the events of every other in-flight
exchange.

Completion detection is reference counting: each exchange carries an
:class:`ExchangeContext` whose ``pending`` counter is incremented per
send and decremented per processed delivery.  Because handlers send any
follow-up messages *during* their own delivery, ``pending`` can only
reach zero when no message of the exchange remains in flight, at which
point the context is marked done and stamped with the completion time.

One kind of copy never enters the queue at all: a flood copy of a
once-per-node type sent to a node the exchange already visited (see
:meth:`EventKernel.deliver_once_per_node`) could only arrive as a
filtered duplicate, so the fan-out *absorbs* it at send time — it is
counted and meets its fault fate as always, but instead of a message, a
queue entry and a ``pending`` token it leaves only its arrival time, folded
into the context's ``horizon``.  When ``pending`` reaches zero the
exchange completes then, or, if an absorbed copy would still have been
in flight, by one queued completion at the horizon: ``completed_at`` is
the last arrival either way.

Two concrete context kinds exist: :class:`QueryContext` for searches
and :class:`RetrieveContext` for downloads.  Both ride the same queue,
so a download taken while queries are in flight perturbs neither their
latencies nor their event ordering — the clock only ever moves by
processing events, never by side-effecting mutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Collection, Optional, Sequence, TYPE_CHECKING

from repro.network.faults import FaultModel
from repro.network.messages import Message, MessageType, ack_message
from repro.network.simulator import DriveLatch, NetworkSimulator
from repro.network.stats import NetworkStats
from repro.storage.plan import CompiledQuery, compile_query
from repro.storage.query import Query

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.network.base import SearchResult
    from repro.network.peers import Peer
    from repro.storage.document_store import StoredObject

#: handler(peer, message, context) — ``peer`` is the recipient (``None``
#: for virtual nodes such as the centralized index server).  A fan-out's
#: copies share one message whose ``recipient`` is empty, so a handler
#: of a fanned-out type names its node by ``peer``.
Handler = Callable[[Optional["Peer"], Message, Optional["ExchangeContext"]], None]


@dataclass(kw_only=True)
class ExchangeContext:
    """Reference-counted state shared by every in-flight kernel exchange.

    A search and a download are both *exchanges*: a cascade of messages
    whose completion is detected by the ``pending`` counter reaching
    zero.  ``starved`` is set when the event queue drained while the
    exchange still had messages outstanding (a lost delivery that will
    never come) — the context is completed at the drain time instead of
    hanging forever with a bogus zero latency.
    """

    started_at: float = 0.0
    messages_sent: int = 0
    bytes_sent: int = 0
    extra: dict = field(default_factory=dict)
    pending: int = 0
    done: bool = False
    finalized: bool = False
    starved: bool = False
    completed_at: float = 0.0
    #: latest arrival time of a copy absorbed at send (see
    #: :meth:`EventKernel.send_many`): the exchange completes no earlier
    horizon: float = 0.0
    #: invoked once, with the context, when the exchange completes; the
    #: batch driver uses this to count completions in O(1) instead of
    #: polling every context after every processed event
    watcher: Optional[Callable[["ExchangeContext"], None]] = None

    @property
    def latency_ms(self) -> float:
        """Virtual time between submission and the last delivery."""
        return max(0.0, self.completed_at - self.started_at)


@dataclass
class QueryContext(ExchangeContext):
    """Everything one in-flight query accumulates while its messages fly.

    Results are appended only when a QUERY-HIT *arrives* at an online
    origin; ``claimed`` counts results already promised by generated
    hits still in flight, so flow-control decisions (how far to flood
    or walk) see the same numbers they would if hits were instantaneous.
    """

    query: Query
    origin_id: str
    max_results: int = 100
    results: list["SearchResult"] = field(default_factory=list)
    peers_probed: int = 0
    first_hit_hops: Optional[int] = None
    visited: set[str] = field(default_factory=set)
    claimed: int = 0
    #: the query compiled once, when its context is created; every
    #: evaluation of the search (``repository.search``, hub catalogs, the
    #: index server) and its wire form, cache key and routing keys come
    #: from this one plan
    plan: CompiledQuery = field(init=False)

    def __post_init__(self) -> None:
        self.plan = compile_query(self.query)

    def room(self) -> int:
        """How many more results fit under ``max_results``.

        Counts both arrived results and results claimed by in-flight
        hits, so concurrent generation sites never oversubscribe.
        """
        return self.max_results - max(self.claimed, len(self.results))

    def claim(self, count: int) -> None:
        """Reserve space for ``count`` results riding an in-flight hit."""
        self.claimed += count

    def add_result(self, result: "SearchResult") -> None:
        self.results.append(result)
        if self.first_hit_hops is None or result.hops < self.first_hit_hops:
            self.first_hit_hops = result.hops


@dataclass
class MembershipContext(ExchangeContext):
    """One in-flight lifecycle exchange (live-membership mode).

    A joining peer's discovery ping, a heartbeat round or a lease
    renewal is an exchange like any other: its messages ride the shared
    queue and it quiesces by reference counting.  Nothing *waits* on a
    membership context — lifecycle traffic is background load — but the
    context still provides per-exchange state (``visited`` gives a
    discovery flood its duplicate suppression) and completion stamps.
    """

    peer_id: str = ""
    kind: str = ""
    visited: set[str] = field(default_factory=set)


@dataclass
class RetrieveContext(ExchangeContext):
    """One in-flight download: DOWNLOAD-REQUEST / DOWNLOAD-RESPONSE plus
    per-attachment transfer events, quiescing by reference counting."""

    requester_id: str
    provider_id: str
    resource_id: str
    bandwidth_kbps: float = 512.0
    stored: Optional["StoredObject"] = None
    transfer_bytes: int = 0
    attachments_transferred: int = 0
    error: Optional[Exception] = None
    # Chunked-transfer state (``download_chunk_bytes`` mode).  The
    # received set is consulted only by length and membership, never
    # iterated, so its order cannot leak into results.
    chunks_received: set[int] = field(default_factory=set)
    chunk_total: int = 0
    #: providers that stalled or crashed out of this download
    failed_providers: list[str] = field(default_factory=list)
    #: re-requests already burned on the current provider
    provider_attempts: int = 0
    #: True while the stall watchdog holds a pending token on this context
    watchdog_held: bool = False

    @property
    def succeeded(self) -> bool:
        return self.stored is not None and self.error is None


class MaintenanceTimer:
    """Handle of one recurring kernel timer (see :meth:`EventKernel.every`).

    Slotted and allocation-light: each firing re-posts through the
    simulator's no-handle fast path, so a long steady-state run costs
    one tuple per tick and nothing else.
    """

    __slots__ = ("interval_ms", "callback", "args", "cancelled", "affinity")

    def __init__(self, interval_ms: float, callback: Callable[..., None],
                 args: tuple, affinity: Optional[str] = None) -> None:
        self.interval_ms = interval_ms
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: node id whose home shard executes the timer (None = control)
        self.affinity = affinity

    def cancel(self) -> None:
        self.cancelled = True


class EventKernel:
    """Message scheduling, dispatch and per-exchange accounting."""

    #: whether :meth:`send_many` absorbs copies to already-visited nodes
    #: (a kernel holding only part of an exchange's ``visited`` and
    #: ``pending`` cannot decide that, and turns it off)
    absorbs_visited_copies = True

    def __init__(self, *, simulator: NetworkSimulator, peers: dict[str, "Peer"],
                 stats: NetworkStats) -> None:
        self.simulator = simulator
        self.peers = peers
        self.stats = stats
        # Keyed by the message type's *value string*: string hashing is
        # C-level, while hashing an Enum member goes through a Python
        # __hash__ on every dispatch.
        self._handlers: dict[str, Handler] = {}
        #: type values delivered at most once per node per exchange
        #: (see :meth:`deliver_once_per_node`)
        self._once_per_node: set[str] = set()
        # Bound methods of the latency model, resolved once: the send
        # path calls one per message, the fan-out the other per hop.
        self._link_latency = simulator.latency_model.latency
        self._latency_row = simulator.latency_model.row
        #: always-on endpoints that are not peers (e.g. the index server)
        self.virtual_nodes: set[str] = set()
        #: recurring maintenance timers (heartbeats, lease sweeps)
        self.timers: list[MaintenanceTimer] = []
        #: fault injection (``None`` = the perfect-link default; the
        #: send path then takes a single never-taken branch)
        self.faults: Optional[FaultModel] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def register(self, message_type: MessageType, handler: Handler) -> None:
        """Install the handler invoked when a ``message_type`` arrives."""
        self._handlers[message_type.value] = handler

    def deliver_once_per_node(self, message_type: MessageType) -> None:
        """Hand ``message_type`` to its handler at most once per node per
        exchange — a flood's duplicate suppression, kernel-side.

        A flooded message reaches most nodes along several paths and
        only the first arrival does anything; of a gnutella flood's
        deliveries two in three are such duplicates.  For a registered
        type the kernel keeps the exchange's ``visited`` set itself: a
        delivery at a node already in it never enters a handler frame.
        It is still a message that was sent — counted at send time, its
        ``pending`` token released at its arrival time.

        A copy :meth:`send_many` addresses to a node *already* in
        ``visited`` could only arrive filtered, since ``visited`` only
        grows.  Such a copy is absorbed: counted and fault-decided as
        usual, its arrival time folded into the context's ``horizon``,
        no message, no event and no ``pending`` token.  (A copy awaiting
        an ACK is never a fan-out copy: :meth:`Message.forwarded` does
        not carry ``ack_to``, and a reliable envelope goes through
        :meth:`send`, which never absorbs.)  Exchanges that
        carry a registered type must have a ``visited`` set (the search
        and membership contexts do); a delivery without an exchange is
        never filtered.
        """
        self._once_per_node.add(message_type.value)

    def add_virtual_node(self, node_id: str) -> None:
        """Declare an always-online endpoint (it has no :class:`Peer`)."""
        self.virtual_nodes.add(node_id)

    # ------------------------------------------------------------------
    # Recurring maintenance timers
    # ------------------------------------------------------------------
    def every(self, interval_ms: float, callback: Callable[..., None], *args: object,
              first_delay_ms: Optional[float] = None,
              affinity: Optional[str] = None) -> MaintenanceTimer:
        """Run ``callback(*args)`` every ``interval_ms`` of virtual time.

        Each firing is an ordinary event on the shared queue, so
        maintenance (heartbeats, lease renewal, expiry sweeps)
        interleaves deterministically with in-flight queries, downloads
        and churn — nothing touches the clock except events.  The timer
        keeps rescheduling itself until :meth:`MaintenanceTimer.cancel`;
        drive the simulator with ``run(until_ms=...)`` (an unbounded
        ``run()`` would never drain the queue).

        ``affinity`` names the node the timer maintains (a peer's
        heartbeat, a super-peer's lease sweep): under a sharded
        simulator the firing then executes on that node's home shard
        instead of the control queue, keeping per-peer maintenance
        shard-local.  The single-queue simulator ignores the hint.
        """
        if interval_ms <= 0:
            raise ValueError("the maintenance interval must be positive")
        timer = MaintenanceTimer(interval_ms, callback, args, affinity)
        self.timers.append(timer)
        first = interval_ms if first_delay_ms is None else first_delay_ms
        if affinity is None:
            self.simulator.post(first, self._fire_timer, timer)
        else:
            self.simulator.post_keyed(affinity, first, self._fire_timer, timer)
        return timer

    def _fire_timer(self, timer: MaintenanceTimer) -> None:
        if timer.cancelled:
            return
        timer.callback(*timer.args)
        if timer.affinity is None:
            self.simulator.post(timer.interval_ms, self._fire_timer, timer)
        else:
            self.simulator.post_keyed(timer.affinity, timer.interval_ms,
                                      self._fire_timer, timer)

    def cancel_timers(self) -> None:
        """Stop every recurring timer (ends a live-membership run)."""
        for timer in self.timers:
            timer.cancelled = True
        self.timers.clear()

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, message: Message, *, context: Optional[ExchangeContext] = None,
             copies: int = 1, latency_ms: Optional[float] = None) -> None:
        """Account ``message`` and schedule its delivery.

        ``copies`` charges the message that many times (a query hit
        travelling N hops back along the reverse path costs N messages)
        while still scheduling a single delivery event.  ``latency_ms``
        overrides the link latency — reverse-path replies pass the
        accumulated forward-path latency here so the round trip costs
        the same virtual time in both directions, and download
        responses pass link latency plus transmission time.
        """
        # ``_value_`` reads the member's slot directly, skipping the
        # DynamicClassAttribute descriptor behind ``.value`` — this line
        # runs once per message.
        size = message.size_bytes
        self.stats.record(message.type._value_, size, copies)
        if context is not None:
            context.messages_sent += copies
            context.bytes_sent += copies * size
            context.pending += 1
        recipient = message.recipient
        delay = latency_ms if latency_ms is not None else self._link_latency(
            message.sender, recipient)
        if self.faults is not None:
            self._post_faulted(delay, message.sender, recipient, message, context)
        else:
            self.simulator.post(delay, self._deliver, message, recipient, context)

    def send_many(self, message: Message, sender: str, recipients: Sequence[str], *,
                  context: Optional[ExchangeContext] = None) -> None:
        """Forward ``message`` one hop from ``sender`` to each recipient.

        A flood hop, a discovery re-flood or a relay broadcast: the
        copies differ only in their recipient, so wire size, type,
        statistics, the exchange's counters, the sender's latency row
        and the forwarded message itself are resolved once for the hop.
        The hop message (``message.forwarded(sender, "")``: one hop
        further, addressed to nobody in particular) is built at the
        first copy that queues an event; then, per recipient and in the
        given order, the link latency is read and the event
        ``(hop, recipient, context)`` is posted — the same events, in
        the same order, as one :meth:`send` per copy, with the recipient
        riding the event instead of a per-copy message.

        A copy of a once-per-node type to a node the exchange already
        visited is absorbed instead (see :meth:`deliver_once_per_node`):
        it is counted and meets its fault fate like any copy, but
        nothing is queued for it; its arrival only raises the context's
        ``horizon``.  It holds no ``pending`` token, so a fan-out sent
        outside the exchange's own events must be followed by
        :meth:`finish_if_idle`, as any exchange that may send nothing.
        """
        count = len(recipients)
        if not count:
            return
        size = message.size_bytes
        type_value = message.type._value_
        self.stats.record(type_value, size, count)
        visited: Collection[str] = ()
        if context is not None:
            context.messages_sent += count
            context.bytes_sent += count * size
            if self.absorbs_visited_copies and type_value in self._once_per_node:
                visited = context.visited  # type: ignore[attr-defined]
        row = self._latency_row(sender)
        faulted = self.faults is not None
        post = self.simulator.post
        deliver = self._deliver
        now = self.simulator.now
        hop: Optional[Message] = None
        horizon = 0.0
        absorbed = 0
        for recipient in recipients:
            delay = row.get(recipient)
            if delay is None:
                delay = self._link_latency(sender, recipient)
            if recipient in visited:
                absorbed += 1
                if faulted:
                    self._post_faulted(delay, sender, recipient, None, context)
                elif now + delay > horizon:
                    horizon = now + delay
                continue
            if hop is None:
                hop = message.forwarded(sender, "")
            if faulted:
                self._post_faulted(delay, sender, recipient, hop, context)
            else:
                post(delay, deliver, hop, recipient, context)
        if context is not None:
            context.pending += count - absorbed
            if horizon > context.horizon:
                context.horizon = horizon

    def _post_faulted(self, delay: float, sender: str, recipient: str,
                      message: Optional[Message],
                      context: Optional[ExchangeContext]) -> None:
        """The send tail under fault injection: one fate per copy.

        ``decide`` keys same-instant sends on one link by their
        occurrence index, so it must be consulted exactly once per copy,
        in send order.  ``message`` is ``None`` for a copy
        :meth:`send_many` absorbed: its deliveries (and drop) go to
        :meth:`_absorb` instead of the queue.
        """
        assert self.faults is not None
        decision = self.faults.decide(sender, recipient, self.simulator.now)
        post: Callable[..., None] = (self.simulator.post if message is not None
                                     else self._absorb)
        if decision.drop:
            # The delivery is lost, but the exchange's reference
            # count must still fall at the original arrival time —
            # a drop event rides the queue in the delivery's place
            # (and routes to the recipient's shard exactly like it).
            self.stats.record_drop(partition=decision.partitioned)
            post(delay, self._drop, message, recipient, context)
            return
        if decision.duplicate:
            self.stats.record_duplicate()
            if context is not None and message is not None:
                context.pending += 1
            post(delay + decision.duplicate_lag_ms, self._deliver, message, recipient, context)
        post(delay + decision.extra_delay_ms, self._deliver, message, recipient, context)

    def _absorb(self, delay_ms: float, _callback: Callable[..., None],
                _message: None, _recipient: str, context: ExchangeContext) -> None:
        """Where a faulted absorbed copy's deliveries and drop go instead
        of the queue: each arrival time (the one
        :meth:`NetworkSimulator.post` would queue it at) raises the
        exchange's ``horizon``."""
        arrival = self.simulator.now + delay_ms
        if arrival > context.horizon:
            context.horizon = arrival

    def _drop(self, message: Message, recipient: str,
              context: Optional[ExchangeContext]) -> None:
        """A faulted delivery's arrival-time bookkeeping (no dispatch)."""
        if context is not None:
            context.pending -= 1
            if context.pending <= 0 and not context.done:
                self._settle(context)

    def release(self, context: ExchangeContext) -> None:
        """Drop one externally-held pending token (reliable envelopes and
        download watchdogs park a token on the context so it cannot
        complete while a retransmission or failover may still extend it)."""
        context.pending -= 1
        if context.pending <= 0 and not context.done:
            self._settle(context)

    def finish_if_idle(self, context: ExchangeContext) -> None:
        """Complete an exchange that sent no messages (purely local answer)."""
        if context.pending == 0 and not context.done:
            self._settle(context)

    def _settle(self, context: ExchangeContext) -> None:
        """``pending`` reached zero: complete the exchange now, or — while
        an absorbed copy would still be in flight — by one event at its
        ``horizon``, the instant its last delivery would have arrived."""
        if context.horizon <= self.simulator.now:
            self._complete(context)
        else:
            self.simulator.post_at(context.horizon, self._complete, context)

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _deliver(self, message: Message, recipient: str,
                 context: Optional[ExchangeContext]) -> None:
        """``message`` arrives at ``recipient``: dispatch it to the
        type's handler (with the recipient's peer), unless the recipient
        is offline or, for a once-per-node type, already visited.

        The recipient comes from the event, never from
        ``message.recipient``: a fan-out's copies share one hop message
        (see :meth:`send_many`)."""
        try:
            peer = self.peers.get(recipient)
            if (peer is not None and peer.online) or recipient in self.virtual_nodes:
                type_value = message.type._value_
                handler = self._handlers.get(type_value)
                if type_value in self._once_per_node and context is not None:
                    visited = context.visited  # type: ignore[attr-defined]
                    if recipient in visited:
                        handler = None  # a faster copy got here first
                    else:
                        visited.add(recipient)
                if handler is not None:
                    handler(peer, message, context)
                if message.ack_to:
                    # Reliable envelope: acknowledge on (handled) arrival.
                    # A recipient that was offline sends nothing, so the
                    # sender's retry timer fires — exactly the semantics
                    # a lost delivery has.
                    self.send(ack_message(recipient, message.ack_to,
                                          message_id=message.message_id),
                              context=context)
        finally:
            if context is not None:
                context.pending -= 1
                if context.pending <= 0 and not context.done:
                    self._settle(context)

    def _complete(self, context: ExchangeContext) -> None:
        context.done = True
        context.completed_at = self.simulator.now
        if context.watcher is not None:
            context.watcher(context)

    def sync_context(self, context: ExchangeContext) -> None:
        """Hook for process-parallel workers (see ``engine/parallel.py``).

        Called at the top of ``finish_search`` / ``finish_retrieve``: a
        parallel worker rendezvouses here to canonicalize the context's
        counters and payloads across the fleet.  Serial execution
        already holds the whole exchange, so this is a no-op."""

    def note_document_completed(self, peer: "Peer", context: RetrieveContext,
                                stored: "StoredObject") -> None:
        """Hook for process-parallel workers (see ``engine/parallel.py``).

        Called when a download's document finishes arriving: a parallel
        worker queues a replication op so every replica's repository and
        provider registry see the new copy.  Serial execution has one
        repository, so this is a no-op."""

    def note_result_claims(self, context: ExchangeContext,
                           identities: "tuple[tuple[str, str], ...]") -> None:
        """Hook for process-parallel workers (see ``engine/parallel.py``).

        Called when a caching-mode answer path registered
        ``(provider, resource)`` identities in the context's promised-
        result set: a parallel worker queues a replication op so every
        replica's registry filters the same claims.  Serial execution
        has one registry, so this is a no-op."""

    def mark_starved(self, contexts: list[ExchangeContext]) -> int:
        """Complete every unfinished context at the current virtual time.

        Called when the event queue drained while exchanges still had
        messages outstanding: their deliveries are lost and will never
        decrement ``pending``, so without this they would keep a
        ``completed_at`` of ``0.0`` and report a bogus clamped latency.
        Returns how many contexts were starved.
        """
        starved = 0
        for context in contexts:
            if not context.done:
                context.starved = True
                self._complete(context)
                starved += 1
        return starved

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run_until_complete(self, contexts: list[ExchangeContext], *,
                           max_events: int = 5_000_000) -> int:
        """Process events until every context is done.

        Other events on the shared queue (churn, other exchanges) are
        processed as their times come up — that interleaving is the
        point.  Events scheduled after the last context completes stay
        queued.  If the queue drains while contexts are still pending,
        they are marked ``starved`` and completed at the drain time.

        Completions are counted through each context's ``watcher`` hook
        (chained behind one already installed), so the drive loop
        re-scans nothing per event.
        """
        latch = DriveLatch(0)
        for context in contexts:
            if not context.done:
                latch.remaining += 1
                context.watcher = _chained(context.watcher, latch)
        processed, drained = self.simulator.drive(latch, max_events=max_events)
        if drained:
            self.mark_starved(contexts)
        elif contexts:
            # Serial execution exits with the clock already at the last
            # completion; a parallel worker pins its clock to it here so
            # later submissions are stamped identically fleet-wide.
            self.simulator.align_exit_clock(
                max(context.completed_at for context in contexts))
        return processed


def _chained(previous: Optional[Callable[[ExchangeContext], None]],
             latch: DriveLatch) -> Callable[[ExchangeContext], None]:
    """A completion watcher that releases ``latch`` after running the
    watcher that was installed before it."""
    def watcher(context: ExchangeContext) -> None:
        if previous is not None:
            previous(context)
        latch.remaining -= 1
    return watcher
