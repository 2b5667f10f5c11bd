"""Sharded event execution with a conservative time-window barrier.

The :class:`ShardedSimulator` partitions the event queue by shard: each
node id has a home shard (:func:`shard_of`, a crc32 hash of the id),
message-delivery events queue on the *recipient's* shard, and
everything else — driver submissions, churn, untagged timers — queues
on a control shard.  The shards advance together through
**conservative synchronization windows** of width equal to the minimum
cross-shard link latency (the *lookahead*):

* A window ``[start, start + lookahead)`` opens at the global lower
  bound ``start`` — the earliest pending event time across every shard.
* Within the window, each shard may process its local events freely; a
  message sent to *another* shard is not delivered directly but parked
  in an outbox.
* When no shard has an eligible event left, the window closes with a
  barrier: outboxes are exchanged (every parked delivery is pushed onto
  its destination shard's queue) and the next window opens at the new
  global lower bound.

The barrier is safe because every cross-shard delivery carries at least
one link latency, and every link latency is at least the latency
model's ``base_ms`` — the lookahead.  A message sent at time ``t``
inside window ``[start, start + base)`` arrives at ``t + latency ≥
start + base``, i.e. never inside the window it was sent in, so parking
it until the barrier cannot starve an eligible event.  (Reverse-path
query hits and download responses override the link latency, but always
with an *accumulated* forward latency or a transfer time, both ≥ one
link ≥ ``base_ms``; zero-latency self-messages are same-shard by
definition.)  The flush asserts this invariant and raises rather than
silently diverge if a protocol ever sends a cross-shard message below
the lookahead.

Determinism is the point: within a window, eligible events are popped
in global ``(time, sequence)`` order — the exact order the single-queue
:class:`~repro.network.simulator.NetworkSimulator` would pop them — and
deferred cross-shard deliveries are never eligible before the barrier
that releases them.  By induction the sharded execution is therefore
*bit-identical* to the single-kernel execution for a fixed seed,
regardless of shard count, which is what the cross-shard determinism
contract (``tests/network/test_contract.py``) pins on every generated
cell of all four protocol organisations.  Aggregate counters, per-query
results, bytes and latencies all reproduce exactly.

A degenerate latency model (``base_ms == 0``) leaves no safe lookahead;
the simulator then collapses to a single control queue — plain
single-kernel semantics — instead of spinning on zero-width windows.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterator, Optional
from zlib import crc32

from repro.network.messages import Message
from repro.network.simulator import (
    _ARGS,
    _CALLBACK,
    _SEQUENCE,
    _TIME,
    LatencyModel,
    NetworkSimulator,
    SimulationTruncated,
)

#: shard index of the control queue in observability counters
CONTROL = -1


def shard_of(node_id: str, shards: int) -> int:
    """Stable home shard of ``node_id``: crc32 of the id modulo ``shards``.

    crc32 rather than ``hash()``: the builtin string hash is salted per
    process (``PYTHONHASHSEED``), which would make the placement — and
    therefore the event interleaving — unreproducible across runs.
    """
    if shards <= 1:
        return 0
    return crc32(node_id.encode("utf-8")) % shards


class ShardedSimulator(NetworkSimulator):
    """A :class:`NetworkSimulator` whose queue is partitioned by shard.

    Drop-in compatible: ``post`` / ``post_keyed`` / ``step`` / ``run``
    keep their contracts, and a fixed seed reproduces the single-queue
    execution bit-for-bit (see the module docstring for the argument).
    The in-process windowed execution is the determinism mechanism the
    contract suite pins; process-per-shard scale-out reuses the same
    partitioning via :mod:`repro.workloads.scale`.
    """

    def __init__(self, *, latency: Optional[LatencyModel] = None, seed: int = 0,
                 shards: int = 2) -> None:
        super().__init__(latency=latency, seed=seed)
        if shards < 1:
            raise ValueError("need at least one shard")
        self.shards = shards
        #: the inherited ``_queue`` is the control shard; message
        #: deliveries go to per-shard heaps
        self._shard_queues: list[list[tuple]] = [[] for _ in range(shards)]
        self._outbox: list[tuple] = []
        self._lookahead = self.latency_model.base_ms
        #: single-queue fallback when no safe lookahead exists
        self._degenerate = self._lookahead <= 0 or shards == 1
        self._window_start = 0.0
        self._window_end = float("inf") if self._degenerate else float("-inf")
        #: shard of the event currently executing (None between events)
        self._active_shard: Optional[int] = None
        # observability
        self.windows = 0
        self.cross_shard_messages = 0
        self.events_per_shard = [0] * shards
        self.control_events = 0

    # ------------------------------------------------------------------
    # Partitioning
    # ------------------------------------------------------------------
    def shard_of_node(self, node_id: str) -> int:
        """Home shard of ``node_id``: :func:`shard_of`."""
        return shard_of(node_id, self.shards)

    @property
    def lookahead_ms(self) -> float:
        """Width of one synchronization window (0 when degenerate)."""
        return 0.0 if self._degenerate else self._lookahead

    # ------------------------------------------------------------------
    # Scheduling (routing layer over the parent's single queue)
    # ------------------------------------------------------------------
    def post(self, delay_ms: float, callback: Callable[..., None], *args: object) -> None:
        self._route((self._now + delay_ms, next(self._sequence), callback, args))

    def post_at(self, time_ms: float, callback: Callable[..., None], *args: object) -> None:
        self._route((time_ms, next(self._sequence), callback, args))

    def post_keyed(self, key: str, delay_ms: float,
                   callback: Callable[..., None], *args: object) -> None:
        """Post an event with explicit shard affinity (keyed timers)."""
        entry = (self._now + delay_ms, next(self._sequence), callback, args)
        if self._degenerate or not key:
            heapq.heappush(self._queue, entry)
        else:
            self._push(entry, self.shard_of_node(key))

    def _route(self, entry: tuple) -> None:
        """Queue ``entry`` on the shard its event belongs to.

        Message deliveries (the kernel posts ``_deliver, message,
        context``) belong to the recipient's shard; everything else —
        driver submissions, churn, untagged timers — is control-plane
        and runs on the control queue.  The sequence number was already
        assigned at creation, so routing never perturbs global order.
        """
        if self._degenerate:
            heapq.heappush(self._queue, entry)
            return
        args = entry[_ARGS]
        message = args[0] if args else None
        if type(message) is not Message:
            heapq.heappush(self._queue, entry)
            return
        dest = self.shard_of_node(message.recipient)
        if self._active_shard is not None and dest != self._active_shard:
            # Cross-shard delivery: park it for the next barrier.
            self.cross_shard_messages += 1
            self._outbox.append(entry)
        else:
            self._push(entry, dest)

    def _push(self, entry: tuple, shard: int) -> None:
        heapq.heappush(self._shard_queues[shard], entry)

    # ------------------------------------------------------------------
    # Windowed execution
    # ------------------------------------------------------------------
    def _queues(self) -> Iterator[tuple[int, list[tuple]]]:
        yield CONTROL, self._queue
        for shard, queue in enumerate(self._shard_queues):
            yield shard, queue

    def _pop_eligible(self) -> Optional[tuple[int, tuple]]:
        """Pop the globally minimal ``(time, seq)`` entry inside the
        current window; ``None`` when every queue is empty or beyond the
        window end."""
        window_end = self._window_end
        best_key: Optional[tuple[float, int]] = None
        best_shard = CONTROL
        best_queue: Optional[list] = None
        for shard, queue in self._queues():
            if not queue:
                continue
            head = queue[0]
            if head[_TIME] >= window_end:
                continue
            key = (head[_TIME], head[_SEQUENCE])
            if best_key is None or key < best_key:
                best_key = key
                best_shard = shard
                best_queue = queue
        if best_queue is None:
            return None
        return best_shard, heapq.heappop(best_queue)

    def _open_next_window(self) -> bool:
        """Barrier: exchange outboxes, then open a window at the new
        global lower bound.  Returns ``False`` when nothing is pending."""
        if self._outbox:
            closed_end = self._window_end
            for entry in self._outbox:
                if entry[_TIME] < closed_end:
                    raise RuntimeError(
                        f"lookahead violated: cross-shard delivery at "
                        f"t={entry[_TIME]:.3f}ms inside the closed window "
                        f"ending at {closed_end:.3f}ms (lookahead "
                        f"{self._lookahead:.3f}ms)")
                self._push(entry, self.shard_of_node(entry[_ARGS][0].recipient))
            self._outbox.clear()
        start = self._peek_time()
        if start is None:
            return False
        self._window_start = start
        self._window_end = start + self._lookahead
        self.windows += 1
        return True

    def step(self) -> bool:
        if self._degenerate:
            return super().step()
        while True:
            popped = self._pop_eligible()
            if popped is None:
                if not self._open_next_window():
                    return False
                continue
            shard, entry = popped
            time = entry[_TIME]
            if time > self._now:
                self._now = time
            self._active_shard = shard if shard != CONTROL else None
            try:
                entry[_CALLBACK](*entry[_ARGS])
            finally:
                self._active_shard = None
            self.events_processed += 1
            if shard == CONTROL:
                self.control_events += 1
            else:
                self.events_per_shard[shard] += 1
            return True

    #: the drive loop runs over :meth:`step` above — the single-queue
    #: loop the base class inlines must never pop these queues
    drive = NetworkSimulator._drive_by_step

    def _peek_time(self) -> Optional[float]:
        """Earliest pending event time across every queue and the outbox."""
        earliest: Optional[float] = None
        for _, queue in self._queues():
            if queue and (earliest is None or queue[0][_TIME] < earliest):
                earliest = queue[0][_TIME]
        for entry in self._outbox:
            if earliest is None or entry[_TIME] < earliest:
                earliest = entry[_TIME]
        return earliest

    def run(self, until_ms: Optional[float] = None, *,
            max_events: int = 1_000_000) -> int:
        if self._degenerate:
            return super().run(until_ms, max_events=max_events)
        processed = 0
        while processed < max_events:
            earliest = self._peek_time()
            if earliest is None:
                break
            if until_ms is not None and earliest > until_ms:
                break
            if not self.step():
                break
            processed += 1
        if processed >= max_events:
            earliest = self._peek_time()
            if earliest is not None and (until_ms is None or earliest <= until_ms):
                raise SimulationTruncated(
                    f"run() hit max_events={max_events} with eligible events "
                    f"still queued at t={self._now:.3f}ms", processed=processed)
        if until_ms is not None and self._now < until_ms:
            self._now = until_ms
        return processed

    def pending_events(self) -> int:
        return sum(len(queue) for _, queue in self._queues()) + len(self._outbox)
