"""Sharded event execution with a conservative time-window lookahead check.

The :class:`ShardedSimulator` partitions the event queue by shard: each
node id has a home shard (:func:`shard_of`, a crc32 hash of the id),
message-delivery events queue on the shard of the recipient they
carry, and
everything else — driver submissions, churn, untagged timers — queues
on a control shard.  Execution advances through **conservative
synchronization windows** of width equal to the minimum cross-shard
link latency (the *lookahead*):

* A window ``[start, start + lookahead)`` opens at the global lower
  bound ``start`` — the earliest pending event time across every shard
  — once no queued event lies inside the current one.
* Within the window, events pop in global ``(time, sequence)`` order
  across the heaps.  A message sent from one shard's event to *another*
  shard goes straight onto its destination heap, and is counted.
* That send must land at or after the window's end; one that does not
  raises ``RuntimeError("lookahead violated")`` inside the event that
  sends it.

The check holds for every correct protocol because every cross-shard
delivery carries at least one link latency, and every link latency is
at least the latency model's ``base_ms`` — the lookahead.  A message
sent at time ``t`` inside window ``[start, start + base)`` arrives at
``t + latency ≥ start + base``, i.e. never inside the window it was
sent in.  (Reverse-path query hits and download responses override the
link latency, but always with an *accumulated* forward latency or a
transfer time, both ≥ one link ≥ ``base_ms``; zero-latency
self-messages are same-shard by definition.)  A protocol that sends a
cross-shard message below the lookahead fails loudly instead of
silently depending on in-process execution.

Determinism is the point: every pop takes the global ``(time,
sequence)`` minimum — the exact order the single-queue
:class:`~repro.network.simulator.NetworkSimulator` would pop them — so
the sharded execution is *bit-identical* to the single-kernel
execution for a fixed seed, regardless of shard count, which is what
the cross-shard determinism contract (``tests/network/test_contract.py``)
pins on every generated cell of all four protocol organisations.
Aggregate counters, per-query results, bytes and latencies all
reproduce exactly.

A degenerate latency model (``base_ms == 0``) leaves no safe lookahead;
the simulator then collapses to a single control queue — plain
single-kernel semantics — instead of spinning on zero-width windows.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Iterator, Optional
from zlib import crc32

from repro.network.messages import Message
from repro.network.simulator import (
    _ARGS,
    _CALLBACK,
    _SEQUENCE,
    _TIME,
    DriveLatch,
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
    keep their contracts (``step`` and ``run`` are the base class's
    calls into the windowed :meth:`drive`), and a fixed seed reproduces
    the single-queue execution bit-for-bit (see the module docstring
    for the argument).  The in-process windowed execution is the
    determinism mechanism the contract suite pins; the process-parallel
    runner (:mod:`repro.engine.parallel`) hosts the same shard heaps in
    worker processes.
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
        self._lookahead = self.latency_model.base_ms
        #: single-queue fallback when no safe lookahead exists
        self._degenerate = self._lookahead <= 0 or shards == 1
        self._window_end = float("-inf")
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

    def post_reserved(self, time_ms: float, sequence: int,
                      callback: Callable[..., None], *args: object) -> None:
        self._route((time_ms, sequence, callback, args))

    def post_keyed(self, key: str, delay_ms: float,
                   callback: Callable[..., None], *args: object) -> None:
        """Post an event with explicit shard affinity (keyed timers)."""
        entry = (self._now + delay_ms, next(self._sequence), callback, args)
        if self._degenerate or not key:
            heapq.heappush(self._queue, entry)
        else:
            heapq.heappush(self._shard_queues[self.shard_of_node(key)], entry)

    def _route(self, entry: tuple) -> None:
        """Queue ``entry`` on the shard its event belongs to.

        Message deliveries and drops (the kernel posts ``_deliver,
        message, recipient, context``) belong to the shard of the
        recipient the event names — never ``message.recipient``, which
        a fan-out's shared hop message leaves empty; everything else —
        driver submissions, churn, untagged timers — is control-plane
        and runs on the control queue.  The sequence number was already
        assigned at creation, so routing never perturbs global order.
        A delivery sent from one shard's event to another shard is
        counted, and must not land inside the current window.
        """
        if self._degenerate:
            heapq.heappush(self._queue, entry)
            return
        args = entry[_ARGS]
        message = args[0] if args else None
        if type(message) is not Message:
            heapq.heappush(self._queue, entry)
            return
        dest = self.shard_of_node(args[1])
        if self._active_shard is not None and dest != self._active_shard:
            self.cross_shard_messages += 1
            if entry[_TIME] < self._window_end:
                raise RuntimeError(
                    f"lookahead violated: cross-shard delivery at "
                    f"t={entry[_TIME]:.3f}ms inside the window ending at "
                    f"{self._window_end:.3f}ms (lookahead "
                    f"{self._lookahead:.3f}ms)")
        heapq.heappush(self._shard_queues[dest], entry)

    # ------------------------------------------------------------------
    # Windowed execution
    # ------------------------------------------------------------------
    def _queues(self) -> Iterator[tuple[int, list[tuple]]]:
        yield CONTROL, self._queue
        yield from enumerate(self._shard_queues)

    def drive(self, latch: DriveLatch, *, max_events: int,
              until_ms: Optional[float] = None) -> tuple[int, bool]:
        """:meth:`NetworkSimulator.drive` over the shard heaps: the one
        loop that pops them.

        Each pass takes the heap whose head is the global ``(time,
        sequence)`` minimum; a head at or past the current window's end
        opens the next window at its time (the barrier).
        """
        if self._degenerate:
            return super().drive(latch, max_events=max_events, until_ms=until_ms)
        horizon = math.inf if until_ms is None else until_ms
        processed = 0
        try:
            while latch.remaining > 0:
                best_key: Optional[tuple[float, int]] = None
                best_shard, best_queue = CONTROL, self._queue
                for shard, queue in self._queues():
                    if queue:
                        head = queue[0]
                        key = (head[_TIME], head[_SEQUENCE])
                        if best_key is None or key < best_key:
                            best_key, best_shard, best_queue = key, shard, queue
                if best_key is None:
                    return processed, True
                time = best_key[0]
                if processed == max_events:
                    if time <= horizon:
                        raise SimulationTruncated(
                            f"hit max_events={max_events} with eligible events "
                            f"still queued at t={self._now:.3f}ms", processed=processed)
                    break
                if time > horizon:
                    break
                if time >= self._window_end:
                    self._window_end = time + self._lookahead
                    self.windows += 1
                entry = heapq.heappop(best_queue)
                if time > self._now:
                    self._now = time
                self._active_shard = best_shard if best_shard != CONTROL else None
                entry[_CALLBACK](*entry[_ARGS])
                processed += 1
                if best_shard == CONTROL:
                    self.control_events += 1
                else:
                    self.events_per_shard[best_shard] += 1
        finally:
            self._active_shard = None
            self.events_processed += processed
        return processed, False

    def pending_events(self) -> int:
        return sum(len(queue) for _, queue in self._queues())
