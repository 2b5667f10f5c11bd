"""A small discrete-event simulator for the peer-to-peer substrate.

The simulator provides a virtual clock, an event queue and a latency
model between peers.  Events go onto the queue by :meth:`post`, a delay
from now (or :meth:`post_keyed`, with a shard-affinity hint), or by
:meth:`post_at`, an absolute time no earlier than now (the kernel's
completion of an exchange at its horizon), or by :meth:`post_reserved`,
at an absolute time and a sequence number :meth:`reserve` drew earlier
(the kernel's release of a held flood copy).  The clock moves only by
processing events, and one loop does that: :meth:`NetworkSimulator.drive`
pops the earliest entry, sets ``now`` to its time and runs it, until a
:class:`DriveLatch` is released, the queue drains, an ``until_ms``
horizon or an event cap is reached; ``run`` and ``step`` are calls into
it.  Message deliveries, timers, churn transitions and workload
submissions all share that one clock, so experiments can mix churn
events with query workloads.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from typing import Callable, Optional

# Heap entries are plain tuples ``(time, sequence, callback, args)``: one
# allocation per event, and the heap compares (time, sequence) with
# C-level float/int comparisons — sequence numbers are unique, so the
# callback slot is never reached.  An entry, once posted, always runs:
# a timer that may be stopped carries its own flag and reads it when it
# fires (``MaintenanceTimer.cancel``).
_TIME, _SEQUENCE, _CALLBACK, _ARGS = 0, 1, 2, 3


class SimulationTruncated(RuntimeError):
    """A drive loop hit its ``max_events`` cap with work still eligible.

    A capped run that stops silently is indistinguishable from a
    completed one — under fault injection that would let a starved run
    masquerade as a finished scenario — so hitting the cap with
    eligible events still queued raises instead.  ``processed`` carries
    how many events ran before the cap.
    """

    def __init__(self, message: str, *, processed: int) -> None:
        super().__init__(message)
        self.processed = processed


class DriveLatch:
    """What a drive loop waits on: how many exchanges are still open.

    Whoever starts a drive counts its exchanges in and releases one per
    completion (the kernel's ``watcher`` hook); :meth:`NetworkSimulator.drive`
    runs events until the count reaches zero.  Each drive owns its
    latch, so a drive started from inside an event (a synchronous
    search issued by a callback) neither stops nor is stopped by the
    one around it.
    """

    __slots__ = ("remaining",)

    def __init__(self, remaining: int) -> None:
        self.remaining = remaining


class LatencyModel:
    """Pairwise link latency: a base plus deterministic per-pair jitter.

    Latencies are symmetric and stable for a given seed, so repeated
    searches over the same path cost the same virtual time.
    """

    def __init__(self, *, base_ms: float = 20.0, jitter_ms: float = 30.0, seed: int = 0) -> None:
        if base_ms < 0 or jitter_ms < 0:
            raise ValueError("latencies must be non-negative")
        self.base_ms = base_ms
        self.jitter_ms = jitter_ms
        self._seed = seed
        #: source -> {target: ms}, filled on first use in both directions
        self._rows: dict[str, dict[str, float]] = {}

    def latency(self, source: str, target: str) -> float:
        """Latency in milliseconds of the link ``source`` ↔ ``target``."""
        if source == target:
            return 0.0
        rows = self._rows
        row = rows.get(source)
        if row is None:
            row = rows[source] = {}
        cached = row.get(target)
        if cached is None:
            ordered = (source, target) if source <= target else (target, source)
            rng = random.Random(f"{self._seed}:{ordered[0]}:{ordered[1]}")
            cached = self.base_ms + rng.random() * self.jitter_ms
            # Cache both directions so the symmetric hit path skips the
            # ordering comparison entirely.
            row[target] = cached
            rows.setdefault(target, {})[source] = cached
        return cached


class NetworkSimulator:
    """Virtual clock + event queue + latency model."""

    def __init__(self, *, latency: Optional[LatencyModel] = None, seed: int = 0) -> None:
        self.latency_model = latency or LatencyModel(seed=seed)
        self.random = random.Random(seed)
        self._now = 0.0
        self._queue: list[tuple] = []
        self._sequence = itertools.count()
        self.events_processed = 0

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now

    def post(self, delay_ms: float, callback: Callable[..., None], *args) -> None:
        """Queue ``callback(*args)`` to run ``delay_ms`` from now.

        Passing ``args`` here instead of closing over them avoids one
        closure allocation per posted message on the kernel hot path.
        No negative-delay check runs: callers pass link latencies,
        timer periods and workload offsets, all non-negative by
        construction.  One tuple allocation per posted event.
        """
        heapq.heappush(self._queue,
                       (self._now + delay_ms, next(self._sequence), callback, args))

    def post_at(self, time_ms: float, callback: Callable[..., None], *args) -> None:
        """Queue ``callback(*args)`` to run at virtual time ``time_ms``.

        The absolute spelling of :meth:`post`, for an instant computed
        earlier as ``now + delay`` — re-adding a delay to a later
        ``now`` could round to a different float.  ``time_ms`` must not
        lie in the past; nothing checks it.
        """
        heapq.heappush(self._queue, (time_ms, next(self._sequence), callback, args))

    def reserve(self) -> int:
        """Draw the sequence number a :meth:`post` now would take, for an
        event that :meth:`post_reserved` may queue later — or nothing
        ever will.  Sequence numbers only order entries, so an unused one
        changes no order."""
        return next(self._sequence)

    def post_reserved(self, time_ms: float, sequence: int,
                      callback: Callable[..., None], *args) -> None:
        """Queue ``callback(*args)`` at ``(time_ms, sequence)``, a number
        :meth:`reserve` drew: the entry a :meth:`post` would have queued
        then.  The kernel re-queues a held flood copy this way
        (``EventKernel._release``); ``time_ms`` must not lie in the past."""
        heapq.heappush(self._queue, (time_ms, sequence, callback, args))

    def post_keyed(self, key: str, delay_ms: float,
                   callback: Callable[..., None], *args) -> None:
        """:meth:`post` with a shard-affinity hint.

        ``key`` names the node whose home shard should execute the
        event (recurring per-peer maintenance timers pass their peer
        id).  The single-queue simulator has no shards, so the hint is
        ignored here; :class:`repro.engine.sharded.ShardedSimulator`
        overrides this to queue the event on the key's shard.
        """
        heapq.heappush(self._queue,
                       (self._now + delay_ms, next(self._sequence), callback, args))

    def run(self, until_ms: Optional[float] = None, *, max_events: int = 1_000_000) -> int:
        """Process events until the queue is empty or ``until_ms`` is reached.

        Returns the number of events processed in this call.  Hitting
        ``max_events`` with eligible events still queued raises
        :class:`SimulationTruncated` — a capped run must never
        masquerade as a completed one.
        """
        processed, _drained = self.drive(DriveLatch(1), max_events=max_events,
                                         until_ms=until_ms)
        if until_ms is not None and self._now < until_ms:
            self._now = until_ms
        return processed

    def step(self) -> bool:
        """Process exactly one pending event.

        Returns ``True`` if an event ran, ``False`` if the queue was
        empty.  A one-event drive that finds more work queued raises
        :class:`SimulationTruncated`; for a step that is the normal
        outcome.
        """
        try:
            return self.drive(DriveLatch(1), max_events=1)[0] == 1
        except SimulationTruncated:
            return True

    def drive(self, latch: DriveLatch, *, max_events: int,
              until_ms: Optional[float] = None) -> tuple[int, bool]:
        """Run events until ``latch`` is released: the one loop that
        pops the queue (``run`` and ``step`` call it).

        Returns ``(processed, drained)``; ``drained`` says the queue ran
        empty with the latch still held (the caller marks what it was
        waiting on starved).  Events after the releasing one stay
        queued and ``now`` is the releasing event's time.  The loop
        also stops before an event later than ``until_ms``, and after
        ``max_events`` events — raising :class:`SimulationTruncated`
        if an event within ``until_ms`` is still queued then.
        """
        queue = self._queue
        pop = heapq.heappop
        horizon = math.inf if until_ms is None else until_ms
        processed = 0
        try:
            while latch.remaining > 0:
                if not queue:
                    return processed, True
                if processed == max_events:
                    if queue[0][_TIME] <= horizon:
                        raise SimulationTruncated(
                            f"hit max_events={max_events} with eligible events "
                            f"still queued at t={self._now:.3f}ms", processed=processed)
                    break
                entry = pop(queue)
                time = entry[0]
                if time > horizon:
                    heapq.heappush(queue, entry)
                    break
                if time > self._now:
                    self._now = time
                entry[2](*entry[3])
                processed += 1
        finally:
            self.events_processed += processed
        return processed, False

    def align_exit_clock(self, time_ms: float) -> None:
        """Hook for process-parallel workers (see ``engine/parallel.py``).

        A serial drive loop exits with ``now`` equal to the settling
        event's time already, so this is a no-op here; a parallel worker
        may have executed past (or stopped short of) that event inside
        its window and pins its clock to the canonical exit time."""

    def pending_events(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------
    def link_latency(self, source: str, target: str) -> float:
        """Latency of one link, in virtual milliseconds."""
        return self.latency_model.latency(source, target)

    def transfer_time(self, source: str, target: str, size_bytes: int, *, bandwidth_kbps: float = 512.0) -> float:
        """Virtual time to move ``size_bytes`` across one link."""
        if bandwidth_kbps <= 0:
            raise ValueError("bandwidth must be positive")
        transmission_ms = (size_bytes * 8) / (bandwidth_kbps * 1000) * 1000
        return self.link_latency(source, target) + transmission_ms
