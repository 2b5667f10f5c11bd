"""The batched workload driver: searches *and* downloads in flight at once.

``PeerNetwork.search`` and ``PeerNetwork.retrieve`` each submit one
exchange and drain the event queue until it completes — convenient, but
serial.  The driver instead schedules a whole batch of submissions at
staggered virtual times and then runs the kernel until every exchange
in the batch has quiesced, so their message cascades interleave on the
shared clock (and with churn events).  A batch may mix
:class:`SearchOp` and :class:`RetrieveOp` entries — the load model the
paper's download-and-replicate story needs: popular objects are fetched
while queries are still flooding, and the replicas they leave behind
answer later queries of the same batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional, Sequence, Union

from repro.network.errors import NetworkError
from repro.network.simulator import DriveLatch
from repro.storage.errors import StorageError
from repro.storage.query import Query

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.network.base import PeerNetwork


@dataclass(frozen=True)
class SearchOp:
    """One search submission of a mixed batch."""

    origin_id: str
    query: Query
    max_results: Optional[int] = None  # None -> the batch default


@dataclass(frozen=True)
class RetrieveOp:
    """One download submission of a mixed batch.

    With ``provider_id`` of ``None`` the provider is resolved at
    submission time from the network's replica registry
    (:meth:`PeerNetwork.locate_provider`), so a batch's later downloads
    can be served by replicas its earlier downloads created.
    """

    requester_id: str
    resource_id: str
    provider_id: Optional[str] = None
    bandwidth_kbps: float = 512.0


WorkloadOp = Union[SearchOp, RetrieveOp]


@dataclass
class BatchOutcome:
    """What one driver batch produced."""

    responses: list = field(default_factory=list)   # list[SearchResponse]
    retrieves: list = field(default_factory=list)   # list[Optional[RetrieveResult]]
    failed: int = 0              # search submissions refused (origin offline/unknown)
    retrieve_failures: int = 0   # downloads refused or dropped in flight
    starved: int = 0             # exchanges completed only because the queue drained

    @property
    def result_counts(self) -> list[int]:
        return [response.result_count for response in self.responses]

    @property
    def downloads_completed(self) -> int:
        return sum(1 for result in self.retrieves if result is not None)

    def merge(self, other: "BatchOutcome") -> "BatchOutcome":
        """Fold another batch's outcome into this one (scenario phases)."""
        self.responses.extend(other.responses)
        self.retrieves.extend(other.retrieves)
        self.failed += other.failed
        self.retrieve_failures += other.retrieve_failures
        self.starved += other.starved
        return self


class QueryDriver:
    """Keeps a batch of searches and downloads concurrently in flight."""

    def __init__(self, network: PeerNetwork) -> None:
        self.network = network

    def run_mixed(self, ops: Sequence[WorkloadOp], *, max_results: int = 100,
                  interarrival_ms: float = 0.0,
                  max_events: int = 5_000_000) -> BatchOutcome:
        """Submit a mixed sequence of searches and downloads.

        Submissions are scheduled ``interarrival_ms`` apart, so later
        operations launch while earlier ones are still in flight.  A
        submission whose peer has churned offline (or vanished) by its
        start time fails softly: under churn that is an outcome to
        measure, not an error.  Likewise a download dropped in flight
        (provider or requester churned mid-transfer) yields ``None`` in
        ``retrieves`` and bumps ``retrieve_failures``.  If the event
        queue drains with exchanges still pending, they are completed
        at the drain time and counted in ``starved``.
        """
        if interarrival_ms < 0:
            raise ValueError("interarrival must be non-negative")
        # Entries are QueryContext/RetrieveContext aligned with ops (or
        # None when a submission failed); Any keeps the two finish_* call
        # sites below from needing per-branch casts.
        contexts: list[Any] = [None] * len(ops)
        simulator = self.network.simulator
        # Every op settles exactly once — refused at submission, answered
        # locally, or completed by the kernel (its per-context watcher
        # hook) — and releases the latch the drive loop runs against, so
        # nothing re-scans the batch after each event.
        latch = DriveLatch(len(ops))
        # The latest settle time seen — the canonical batch exit clock.
        # A serial drive loop exits with ``simulator.now`` there already;
        # a parallel worker may have run ahead of (or stopped short of)
        # it inside its window, so the clock is re-pinned through
        # ``align_exit_clock`` below.
        settle_clock = 0.0

        def settle(at_ms: float) -> None:
            nonlocal settle_clock
            latch.remaining -= 1
            if at_ms > settle_clock:
                settle_clock = at_ms

        def note_done(context: Any) -> None:
            settle(context.completed_at)

        def submit(index: int, op: WorkloadOp) -> None:
            try:
                if isinstance(op, SearchOp):
                    context = self.network.start_search(
                        op.origin_id, op.query,
                        max_results=op.max_results if op.max_results is not None else max_results)
                else:
                    provider_id = op.provider_id or self.network.locate_provider(
                        op.resource_id, exclude=op.requester_id)
                    if provider_id is None:
                        settle(simulator.now)
                        return
                    context = self.network.start_retrieve(
                        op.requester_id, provider_id, op.resource_id,
                        bandwidth_kbps=op.bandwidth_kbps)
            except NetworkError:
                settle(simulator.now)
                return
            contexts[index] = context
            if context.done:
                # Answered purely locally, before a watcher could be
                # attached — count it here instead.
                settle(context.completed_at)
            else:
                context.watcher = note_done

        for index, op in enumerate(ops):
            simulator.post(index * interarrival_ms, submit, index, op)

        _processed, drained = simulator.drive(latch, max_events=max_events)
        if drained:
            # The queue drained with exchanges still pending: their
            # deliveries are lost, so complete them at the drain time
            # instead of leaving a bogus zero completion stamp.
            self.network.kernel.mark_starved(
                [context for context in contexts if context is not None])
        elif ops:
            simulator.align_exit_clock(settle_clock)

        outcome = BatchOutcome()
        from repro.network.base import SearchResponse  # local import: cycle

        for index, op in enumerate(ops):
            context = contexts[index]
            if isinstance(op, SearchOp):
                if context is None:
                    outcome.failed += 1
                    outcome.responses.append(SearchResponse(query=op.query))
                    continue
                if context.starved:
                    outcome.starved += 1
                outcome.responses.append(self.network.finish_search(context))
            else:
                if context is None:
                    outcome.retrieve_failures += 1
                    outcome.retrieves.append(None)
                    continue
                if context.starved:
                    outcome.starved += 1
                try:
                    outcome.retrieves.append(self.network.finish_retrieve(context))
                except (NetworkError, StorageError):
                    outcome.retrieve_failures += 1
                    outcome.retrieves.append(None)
        return outcome
