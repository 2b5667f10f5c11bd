"""Process-parallel shard execution: one topology, N worker processes.

`engine/sharded.py` proves in-process that a conservative time-window
barrier over partitioned event heaps reproduces the single-queue run
bit-for-bit.  This module cashes that proof into wall-clock parallelism:
each worker process owns a subset of the shards, runs their windows to
exhaustion locally, ships cross-shard outboxes to the coordinator over a
pipe once per barrier, and receives the merged inbound deliveries plus
the next window bound.  The lookahead-violation assertion carries over
verbatim from :class:`~repro.engine.sharded.ShardedSimulator` so
protocol bugs still fail loud instead of silently diverging.

Architecture (full-replica workers):

* Every worker builds the *entire* scenario deterministically from the
  same :class:`~repro.workloads.scenario.ScenarioConfig` — topology,
  corpus, and workload are a pure function of the seed, so replication
  costs only memory, never divergence.
* Events are split into two planes.  The **control plane** (timers,
  submissions, membership floods, registrations, acks — everything not
  in :data:`SHARD_ROUTED_TYPE_VALUES`) is replicated: every worker
  executes it in lockstep on an identical control heap with an identical
  sequence counter.  The **shard plane** (query/query-hit/download
  traffic) is partitioned: a delivery executes only in the worker that
  owns the destination shard; cross-worker deliveries ship through the
  barrier exactly like cross-shard deliveries ship through the in-process
  outbox.
* Per-context counters (``pending``, ``messages_sent``, ``bytes_sent``,
  ``peers_probed``) are instrumented as mode-split deltas; the
  coordinator sums shard-plane deltas across workers and broadcasts
  context completions, so "pending reached zero" is decided globally
  with the same timing as the serial run.
* Finishing a query/retrieve canonicalizes the context through a sync
  rendezvous: control-plane parts are asserted identical across workers,
  shard-plane parts are summed, and owner-held payloads (result lists,
  transfer bytes) ship to every replica so recorded statistics are
  bit-identical to ``shards=1``.

The coordinator (:class:`ParallelShardRunner`) is strictly lockstep —
one message from every worker per round, all sharing a tag — so a
protocol bug deadlocks loudly (poll timeout kills the children and
raises) instead of hanging forever.
"""

from __future__ import annotations

import heapq
import itertools
import pickle
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence

# engine/parallel.py is the sanctioned home for process management
# (detlint KERN002); everything else must route through here or
# workloads/.
import multiprocessing
import multiprocessing.connection

from repro.engine.kernel import EventKernel
from repro.engine.sharded import shard_of
from repro.network import messages as messages_module
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
from repro.network.stats import NetworkStats

#: message types whose *deliveries* execute only in the owner worker of
#: the destination shard.  Everything else (ping/pong floods, register,
#: join/leave, leaf attach/detach, ad renewals, acks) is control-plane:
#: replicated in every worker so shared protocol state (server tables,
#: overlay membership, caches) stays identical everywhere.
SHARD_ROUTED_TYPE_VALUES = frozenset({
    "query",
    "query-hit",
    "download-request",
    "download-response",
    "push",
})

#: shipped/broadcast entries are re-sequenced above every locally drawn
#: sequence number so that, at equal times, locally scheduled events pop
#: before barrier-applied ones — uniformly in every worker.
SHIP_BASE = 1 << 40

#: sentinel shard id for the control heap (mirrors sharded.CONTROL).
CONTROL = -1

_WIRE_DELIVER = 0
_WIRE_DROP = 1


class _ModalMessageCounter:
    """Replaces ``messages._message_counter`` inside a worker.

    Control-plane draws are replicated (every worker draws the same
    ``c<n>``); shard-plane draws happen only in the executing worker and
    are namespaced by rank (``<rank>s<n>``) so ids can never collide.
    Message ids never reach ``size_bytes`` so the divergent *content* is
    invisible to every pinned observable.
    """

    def __init__(self, runtime: "WorkerRuntime") -> None:
        self._runtime = runtime
        self._ctrl = itertools.count(1)
        self._shard = itertools.count(1)

    def __next__(self) -> str:
        if self._runtime.mode == "ctrl":
            return f"c{next(self._ctrl)}"
        return f"{self._runtime.rank}s{next(self._shard)}"


_RUNTIME: Optional["WorkerRuntime"] = None


def current_runtime() -> Optional["WorkerRuntime"]:
    """The active worker runtime, or ``None`` outside a worker."""
    return _RUNTIME


class WorkerRuntime:
    """Per-process state shared by the worker simulator/kernel/stats."""

    def __init__(self, rank: int, workers: int,
                 conn: "multiprocessing.connection.Connection") -> None:
        self.rank = rank
        self.workers = workers
        self.conn = conn
        #: "ctrl" while a replicated event executes, "shard" while an
        #: owner-only event executes.  Swapped by WorkerSimulator.step.
        self.mode = "ctrl"
        #: True while barrier ops (replicated completions/doc stores)
        #: are being applied — instrumentation and stats stay silent.
        self.applying_ops = False
        #: context id -> live context object (for completion application)
        self.contexts: Dict[int, Any] = {}
        #: replicated contexts draw even cids in lockstep
        self._ctrl_cids = itertools.count(0)
        #: shard contexts draw odd cids namespaced by rank
        self._shard_cids = itertools.count(0)
        #: cid -> [ctrl_delta, shard_delta, max_dec_time] accumulated
        #: since the last barrier (``pending`` ledger).
        self.pending_ledger: Dict[int, List[float]] = {}
        #: cids whose ``pending`` first went positive since the last
        #: barrier (the coordinator only completes ever-active contexts)
        self.newly_active: List[int] = []
        #: replicated-operation queue drained at the next barrier
        #: (document completions that must replicate to other workers).
        self.ops: List[tuple] = []
        self.simulator: Optional["WorkerSimulator"] = None
        self.kernel: Optional[Any] = None
        self.network: Optional[Any] = None

    # -- context registry -------------------------------------------------

    def register_context(self, context: Any) -> None:
        if self.applying_ops:
            return
        if self.mode == "ctrl":
            cid = 2 * next(self._ctrl_cids)
        else:
            cid = 2 * (next(self._shard_cids) * self.workers + self.rank) + 1
        self.contexts[cid] = context
        object.__setattr__(context, "_cid", cid)
        object.__setattr__(context, "_mode_parts", {
            "ctrl": {}, "shard": {},
        })
        object.__setattr__(context, "_ever_active", False)
        object.__setattr__(context, "_synced", False)

    def note_field(self, context: Any, name: str, delta: float) -> None:
        """Record an instrumented field delta in the active plane."""
        if self.applying_ops:
            return
        parts = getattr(context, "_mode_parts", None)
        if parts is None:
            return
        bucket = parts[self.mode]
        bucket[name] = bucket.get(name, 0) + delta
        if name != "pending":
            return
        cid = getattr(context, "_cid", None)
        if cid is None:
            return
        entry = self.pending_ledger.setdefault(cid, [0, 0, 0.0])
        if self.mode == "ctrl":
            entry[0] += delta
        else:
            entry[1] += delta
        if delta > 0:
            if not getattr(context, "_ever_active", False):
                object.__setattr__(context, "_ever_active", True)
                self.newly_active.append(cid)
        elif self.simulator is not None:
            entry[2] = max(entry[2], self.simulator.now)

    # -- ownership --------------------------------------------------------

    def owns_shard(self, shard: int) -> bool:
        return shard % self.workers == self.rank

    # -- rendezvous plumbing ---------------------------------------------

    def request(self, payload: dict) -> dict:
        """Send one message to the coordinator and await its reply."""
        self.conn.send(payload)
        if not self.conn.poll(600.0):
            raise RuntimeError(
                f"worker {self.rank}: coordinator unresponsive for 600s "
                f"after {payload.get('tag')!r}")
        return self.conn.recv()


# ---------------------------------------------------------------------------
# Context instrumentation
# ---------------------------------------------------------------------------

class _ModalField:
    """Data descriptor splitting a context counter into per-plane deltas.

    The backing attribute ``_p_<name>`` holds the raw value; every write
    reports its delta to the active runtime so the coordinator can sum
    shard-plane contributions across workers and the sync rendezvous can
    canonicalize finished contexts.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.backing = f"_p_{name}"

    def __get__(self, obj: Any, objtype: Any = None) -> Any:
        if obj is None:
            return self
        return getattr(obj, self.backing, 0)

    def __set__(self, obj: Any, value: Any) -> None:
        previous = getattr(obj, self.backing, 0)
        object.__setattr__(obj, self.backing, value)
        runtime = _RUNTIME
        if runtime is not None and value != previous:
            runtime.note_field(obj, self.name, value - previous)


_INSTRUMENTED = False


def _instrument_contexts() -> None:
    """Install modal descriptors + registration wraps (once per process)."""
    global _INSTRUMENTED
    if _INSTRUMENTED:
        return
    _INSTRUMENTED = True
    from repro.engine.kernel import (
        ExchangeContext,
        MembershipContext,
        QueryContext,
        RetrieveContext,
    )

    for name in ("pending", "messages_sent", "bytes_sent"):
        setattr(ExchangeContext, name, _ModalField(name))
        setattr(ExchangeContext, f"_p_{name}", 0)
    QueryContext.peers_probed = _ModalField("peers_probed")
    QueryContext._p_peers_probed = 0

    for cls in (ExchangeContext, QueryContext, MembershipContext,
                RetrieveContext):
        original = cls.__init__

        def wrapped(self, *args, __original=original, **kwargs):
            __original(self, *args, **kwargs)
            runtime = _RUNTIME
            if runtime is not None:
                runtime.register_context(self)

        cls.__init__ = wrapped


def _activate(runtime: WorkerRuntime) -> None:
    """Install the worker runtime as this process's active one."""
    global _RUNTIME
    _RUNTIME = runtime
    _instrument_contexts()
    messages_module._message_counter = _ModalMessageCounter(runtime)


# ---------------------------------------------------------------------------
# Stats gating
# ---------------------------------------------------------------------------

class WorkerStats(NetworkStats):
    """Stats that count each event exactly once across the worker fleet.

    Shard-plane events are recorded by the worker that executed them;
    control-plane events execute in every worker but are recorded only
    by rank 0.  Summing per-worker stats with :meth:`NetworkStats.merge`
    then reproduces the single-process totals exactly.

    Records are *staged* with the virtual time of the event that made
    them and committed only once the canonical clock passes that time.
    A worker runs each window to exhaustion, so it executes background
    events (churn transitions, maintenance ticks) that land *after* the
    event that settled the drive loop — events a serial run leaves
    queued.  Their records stay staged; the finalization sweep (at the
    last aligned clock) discards exactly the ones serial never made.
    Every contract observable is an order-insensitive aggregate or a
    code-driven list, so deferred commit order cannot leak.
    """

    def __init__(self, runtime: WorkerRuntime) -> None:
        super().__init__()
        self._runtime = runtime
        self._staged: List[tuple] = []

    def _counts(self) -> bool:
        runtime = self._runtime
        if runtime.applying_ops:
            return False
        return runtime.mode == "shard" or runtime.rank == 0

    def commit_through(self, time_ms: float) -> None:
        """Commit staged records whose event time is ``<= time_ms``."""
        if not self._staged:
            return
        keep: List[tuple] = []
        for staged in self._staged:
            if staged[0] <= time_ms:
                getattr(NetworkStats, staged[1])(self, *staged[2], **staged[3])
            else:
                keep.append(staged)
        self._staged = keep

    def discard_staged(self) -> None:
        self._staged = []

    def reset(self) -> None:
        self._staged = []
        super().reset()


def _gate(method_name: str) -> Callable:
    def gated(self, *args, **kwargs):
        if self._counts():
            self._staged.append(
                (self._runtime.simulator._now, method_name, args, kwargs))
        return None

    gated.__name__ = method_name
    return gated


for _name in ("record_message", "record", "record_query", "record_download",
              "record_registration", "record_staleness", "record_uptime",
              "record_cache_hit", "record_cache_miss", "record_drop",
              "record_duplicate", "record_retry", "record_timeout",
              "record_failover", "record_routing_pruned",
              "record_routing_fallback", "record_routing_fp",
              "record_filter_advert"):
    setattr(WorkerStats, _name, _gate(_name))
del _name


# ---------------------------------------------------------------------------
# Worker kernel
# ---------------------------------------------------------------------------

class WorkerKernel(EventKernel):
    """Kernel whose completion decisions defer to the coordinator.

    Local ``pending`` counters only see this worker's share of an
    exchange — a query's hits may decrement in another worker — so
    :meth:`_complete` is a no-op and contexts complete when the
    coordinator's global pending ledger reaches zero (applied at a
    barrier via :meth:`force_complete`).  The only locally decided
    completions are the replicated ones every worker reaches
    identically: zero-activity exchanges (:meth:`finish_if_idle`) and
    drained-queue starvation (:meth:`mark_starved`).
    """

    #: ``visited`` and ``pending`` are this worker's partial views
    absorbs_visited_copies = False

    def __init__(self, runtime: WorkerRuntime, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._rt = runtime
        self.network: Optional[Any] = None
        #: True while barrier ops replay a remote document completion —
        #: the owner's real sends already happened (and shipped), so the
        #: replica's re-announce must not send again.
        self._suppress_sends = False
        runtime.kernel = self

    def bind_network(self, network: Any) -> None:
        """Attach the owning network (ops replay needs its methods)."""
        self.network = network
        self._rt.network = network

    def add_virtual_node(self, node_id: str) -> None:
        super().add_virtual_node(node_id)
        # Virtual nodes (the centralized index server) concentrate
        # shared protocol state; their deliveries are control-routed so
        # that state replicates instead of living in one worker.
        self.simulator.mark_control_node(node_id)

    def send(self, message: Message, *, context: Any = None,
             copies: int = 1, latency_ms: Optional[float] = None) -> None:
        if self._suppress_sends:
            return
        super().send(message, context=context, copies=copies,
                     latency_ms=latency_ms)

    def send_many(self, message: Message, sender: str, fan_out: Sequence[tuple[str, float]],
                  *, exclude: str = "", context: Any = None) -> None:
        if self._suppress_sends:
            return
        super().send_many(message, sender, fan_out, exclude=exclude, context=context)

    # -- completion ------------------------------------------------------

    def _complete(self, context: Any) -> None:
        # Global pending is only known to the coordinator; local zero
        # crossings are meaningless (this worker may hold a negative
        # share of the count).  Completion arrives via the barrier.
        pass

    def force_complete(self, context: Any, at_ms: float) -> None:
        """Apply a completion (coordinator-decided or replicated-local)."""
        if context.done:
            return
        context.done = True
        context.completed_at = at_ms
        if context.watcher is not None:
            context.watcher(context)

    def finish_if_idle(self, context: Any) -> None:
        # A zero-activity exchange (purely local answer) never reports a
        # pending delta, so the coordinator will never complete it.
        # This call site is replicated (it runs synchronously inside the
        # submitting event), so completing locally is lockstep-safe.
        if (context.pending == 0 and not context.done
                and not getattr(context, "_ever_active", False)):
            self.force_complete(context, self.simulator.now)

    def mark_starved(self, contexts: List[Any]) -> int:
        # The drain decision is global (the coordinator found no next
        # window), so every worker starves the same contexts at the same
        # drain time.
        starved = 0
        for context in contexts:
            if not context.done:
                context.starved = True
                self.force_complete(context, self.simulator.now)
                starved += 1
        return starved

    # -- document replication --------------------------------------------

    def note_document_completed(self, peer: Any, context: Any,
                                stored: Any) -> None:
        """A document finished arriving at ``peer`` (owner-side, shard
        plane): queue a replication op so every other worker's replica
        registry and repository see the same new copy."""
        if self._rt.applying_ops or self._rt.mode != "shard":
            return
        cid = getattr(context, "_cid", None)
        if cid is None:
            raise RuntimeError(
                "document completed on an unregistered context in parallel mode")
        self._rt.ops.append(("doc", cid, peer.peer_id, stored, self.simulator.now))

    def note_result_claims(self, context: Any, identities: tuple) -> None:
        """A caching-mode answer path claimed ``identities`` (owner-side,
        shard plane): queue a replication op so every other worker's
        promised-result registry filters the same claims.  Combined with
        serving isolation (see :meth:`WorkerSimulator._serve_scan`) this
        keeps the registry serial-equal at every cached serving."""
        if not identities or self._rt.applying_ops or self._rt.mode != "shard":
            return
        cid = getattr(context, "_cid", None)
        if cid is None:
            raise RuntimeError(
                "result claims on an unregistered context in parallel mode")
        self._rt.ops.append(("claims", cid, tuple(identities)))

    def apply_op(self, op: tuple) -> None:
        """Replay one of a remote worker's replicated operations."""
        if op[0] == "doc":
            self.apply_document_op(op[1:])
        elif op[0] == "claims":
            self.apply_claims_op(op)
        else:
            raise RuntimeError(f"unknown replicated op tag {op[0]!r}")

    def apply_claims_op(self, op: tuple) -> None:
        """Union a remote worker's promised-result claims locally.

        Set-union is commutative and idempotent, and the registry drives
        no stats or pending accounting on its own, so replaying claims
        one barrier late is exact as long as every *reader* of the
        registry executes after the barrier that carries the claims it
        must see — which serving isolation guarantees."""
        _tag, cid, identities = op
        context = self._rt.contexts.get(cid)
        if context is None:
            return
        self._rt.applying_ops = True
        try:
            self.network.caches.promised(context).update(identities)
        finally:
            self._rt.applying_ops = False

    def apply_document_op(self, op: tuple) -> None:
        """Replay a remote worker's document completion locally."""
        cid, peer_id, stored, at_ms = op
        context = self._rt.contexts.get(cid)
        if context is None or context.stored is not None:
            return  # the owner itself, or a duplicate replay
        peer = self.peers.get(peer_id)
        if peer is None:
            return
        simulator = self.simulator
        saved_now = simulator._now
        saved_mode = self._rt.mode
        self._rt.applying_ops = True
        self._rt.mode = "shard"
        self._suppress_sends = True
        try:
            simulator._now = at_ms
            self.network.downloads.complete_document(peer, context, stored)
        finally:
            simulator._now = saved_now
            self._rt.mode = saved_mode
            self._rt.applying_ops = False
            self._suppress_sends = False

    # -- finish-time canonicalization ------------------------------------

    def sync_context(self, context: Any) -> None:
        """Rendezvous with every worker to canonicalize a finished
        context: control-plane parts are asserted identical, shard-plane
        parts are summed across workers, and the owner ships the payload
        (results / transfer bytes) to every replica."""
        if getattr(context, "_synced", False):
            return
        object.__setattr__(context, "_synced", True)
        rt = self._rt
        cid = getattr(context, "_cid", None)
        if cid is None:
            return
        parts = getattr(context, "_mode_parts", {"ctrl": {}, "shard": {}})
        payload: Dict[str, Any] = {
            "tag": "sync",
            "rank": rt.rank,
            "cid": cid,
            "ctrl": parts["ctrl"],
            "shard": parts["shard"],
            "extra": {key: context.extra.get(key)
                      for key in ("cache_hit", "remote_cache_served")
                      if key in context.extra},
        }
        from repro.engine.kernel import QueryContext, RetrieveContext
        owner_id = None
        if isinstance(context, QueryContext):
            owner_id = context.origin_id
        elif isinstance(context, RetrieveContext):
            owner_id = context.requester_id
            payload["error"] = context.error
        simulator = self.simulator
        is_owner = (owner_id is not None and rt.owns_shard(
            simulator.shard_of_node(owner_id)))
        payload["owner"] = is_owner
        if is_owner:
            if isinstance(context, QueryContext):
                payload["results"] = pickle.dumps(
                    (list(context.results), context.first_hit_hops),
                    protocol=pickle.HIGHEST_PROTOCOL)
            else:
                payload["transfer"] = (context.transfer_bytes,
                                       context.attachments_transferred)
        response = rt.request(payload)
        # Canonical scalars: replicated part + summed shard part.
        for name in ("messages_sent", "bytes_sent"):
            object.__setattr__(context, f"_p_{name}", response["fields"][name])
        if isinstance(context, QueryContext):
            object.__setattr__(context, "_p_peers_probed",
                               response["fields"]["peers_probed"])
            if response.get("results") is not None:
                results, first_hops = pickle.loads(response["results"])
                context.results[:] = results
                context.first_hit_hops = first_hops
        elif isinstance(context, RetrieveContext):
            if response.get("transfer") is not None:
                context.transfer_bytes, context.attachments_transferred = (
                    response["transfer"])
            if response.get("error") is not None and context.error is None:
                context.error = response["error"]
        for key, value in response.get("extra", {}).items():
            if value:
                context.extra[key] = value


# ---------------------------------------------------------------------------
# Worker simulator
# ---------------------------------------------------------------------------

class WorkerSimulator(NetworkSimulator):
    """One worker's view of the partitioned event queue.

    Owns the shard heaps of ``shard % workers == rank`` plus a control
    heap replicated in every worker.  Windows come from the coordinator;
    within a window the worker pops the local ``(time, sequence)`` min
    across its heaps, exactly like :class:`ShardedSimulator` does across
    all heaps — the windowed-barrier argument makes the local order
    equivalent for every observable.
    """

    def __init__(self, runtime: WorkerRuntime, *,
                 latency: Optional[LatencyModel] = None, seed: int = 0,
                 shards: int) -> None:
        super().__init__(latency=latency, seed=seed)
        if shards < 2:
            raise ValueError("parallel execution needs at least two shards")
        self._rt = runtime
        runtime.simulator = self
        self.shards = shards
        self._control_nodes: set = set()
        self._lookahead = self.latency_model.base_ms
        if self._lookahead <= 0:
            raise ValueError(
                "parallel execution needs a positive lookahead "
                "(LatencyModel.base_ms)")
        #: shard id -> heap, for the shards this worker owns.  The
        #: inherited ``_queue`` is the replicated control heap.
        self._shard_queues: Dict[int, list] = {
            shard: [] for shard in range(shards)
            if shard % runtime.workers == runtime.rank
        }
        #: destination rank -> parked cross-worker entries (flushed into
        #: one pickle per destination at each barrier)
        self._outboxes: List[list] = [[] for _ in range(runtime.workers)]
        #: control-routed deliveries generated in shard mode: shipped to
        #: every worker (self included) at the barrier so the replicated
        #: heaps receive them with identical sequence numbers
        self._bcast: list = []
        # Split sequence spaces: the control counter advances in
        # replicated lockstep (even), the shard counter is per-worker
        # (odd).  ``step`` swaps ``_sequence`` to match the active mode.
        self._ctrl_sequence = itertools.count(0, 2)
        self._shard_sequence = itertools.count(1, 2)
        self._sequence = self._ctrl_sequence
        self._window_start = 0.0
        self._window_end = float("-inf")
        #: serving-isolation stop for the current window: no event with
        #: a ``(time, sequence)`` key past (exclusive) or beyond
        #: (inclusive) the stop key may pop — see ``_serve_scan``.
        self._stop_key: Optional[tuple] = None
        self._stop_inclusive = False
        self._active_shard: Optional[int] = None
        self._run_bound: Optional[float] = None
        # Observability
        self.windows = 0
        self.cross_shard_messages = 0
        self.barriers = 0
        self.bytes_shipped = 0

    # -- partition -------------------------------------------------------

    @property
    def lookahead_ms(self) -> float:
        return self._lookahead

    def shard_of_node(self, node_id: str) -> int:
        return shard_of(node_id, self.shards)

    def mark_control_node(self, node_id: str) -> None:
        """Route ``node_id``'s deliveries to the replicated control heap
        (virtual nodes concentrate shared state — see WorkerKernel)."""
        self._control_nodes.add(node_id)

    # -- scheduling ------------------------------------------------------

    def post(self, delay_ms: float, callback: Callable[..., None], *args) -> None:
        self._route((self._now + delay_ms, next(self._sequence), callback, args))

    def post_keyed(self, key: str, delay_ms: float,
                   callback: Callable[..., None], *args) -> None:
        entry = (self._now + delay_ms, next(self._sequence), callback, args)
        if self._active_shard is None or not key:
            # Control-plane arming is replicated, so the timer runs as a
            # replicated control event in every worker — consistent, and
            # immune to the lookahead window by construction.
            heapq.heappush(self._queue, entry)
            return
        dest = self.shard_of_node(key)
        if dest not in self._shard_queues:
            raise RuntimeError(
                f"post_keyed({key!r}) from shard {self._active_shard} would "
                f"land on shard {dest}, owned by worker "
                f"{dest % self._rt.workers} — shard-plane keyed events must "
                f"stay owner-local")
        heapq.heappush(self._shard_queues[dest], entry)

    def _route(self, entry: tuple) -> None:
        args = entry[_ARGS]
        message = args[0] if args else None
        if type(message) is not Message:
            # Timers, churn transitions, workload submissions: control
            # plane, replicated everywhere.
            heapq.heappush(self._queue, entry)
            return
        # A delivery or drop event is ``(message, recipient, context)``;
        # a fan-out's copies share one message, so the event names the
        # recipient.
        recipient = args[1]
        if (message.type._value_ not in SHARD_ROUTED_TYPE_VALUES
                or recipient in self._control_nodes):
            if self._active_shard is None:
                # Replicated sender: every worker pushes the identical
                # entry (same time, same even sequence).
                heapq.heappush(self._queue, entry)
            else:
                # Owner-only sender: ship to every worker at the barrier
                # (self included) so all control heaps stay identical.
                self._bcast.append(entry)
            return
        dest = self.shard_of_node(recipient)
        owner = dest % self._rt.workers
        if self._active_shard is None:
            # Every worker executed this control-plane send; exactly the
            # owner enqueues the delivery (no shipping — the event
            # already exists wherever it must run).
            if owner == self._rt.rank:
                heapq.heappush(self._shard_queues[dest], entry)
            return
        if owner == self._rt.rank and dest == self._active_shard:
            heapq.heappush(self._shard_queues[dest], entry)
            return
        # Cross-shard (possibly to one of our own other shards): park in
        # the outbox; the barrier re-sequences it uniformly so every
        # worker orders shipped entries the same way.
        self.cross_shard_messages += 1
        self._outboxes[owner].append(entry)

    # -- popping ---------------------------------------------------------

    def _heaps(self):
        yield CONTROL, self._queue
        for shard in sorted(self._shard_queues):
            yield shard, self._shard_queues[shard]

    def _pop_eligible(self) -> Optional[tuple]:
        window_end = self._window_end
        bound = self._run_bound
        stop = self._stop_key
        inclusive = self._stop_inclusive
        best_key = None
        best_shard = None
        for shard, queue in self._heaps():
            if not queue:
                continue
            head = queue[0]
            head_time = head[_TIME]
            if head_time >= window_end:
                continue
            if bound is not None and head_time > bound:
                continue
            key = (head_time, head[_SEQUENCE])
            if stop is not None and (key > stop if inclusive else key >= stop):
                continue
            if best_key is None or key < best_key:
                best_key = key
                best_shard = shard
        if best_shard is None:
            return None
        queue = (self._queue if best_shard == CONTROL
                 else self._shard_queues[best_shard])
        return best_shard, heapq.heappop(queue)

    def step(self) -> bool:
        runtime = self._rt
        while True:
            bound = self._run_bound
            if bound is not None and self._window_start > bound:
                return False
            popped = self._pop_eligible()
            if popped is not None:
                break
            outcome = self._barrier()
            if outcome == "completed":
                # Completions were applied; every worker's drive loop
                # re-checks its exit condition at this same point.
                return True
            if outcome == "drained":
                return False
        shard, entry = popped
        if shard == CONTROL:
            self._active_shard = None
            runtime.mode = "ctrl"
            self._sequence = self._ctrl_sequence
        else:
            self._active_shard = shard
            runtime.mode = "shard"
            self._sequence = self._shard_sequence
        try:
            event_time = entry[_TIME]
            if event_time > self._now:
                self._now = event_time
            entry[_CALLBACK](*entry[_ARGS])
            self.events_processed += 1
        finally:
            self._active_shard = None
            runtime.mode = "ctrl"
            self._sequence = self._ctrl_sequence
        return True

    def drive(self, latch: DriveLatch, *, max_events: int,
              until_ms: Optional[float] = None) -> tuple[int, bool]:
        """The drive loop over :meth:`step` above (windows, barriers,
        plane switching) — never the base class's single-queue loop.

        A worker bounds time only in :meth:`run`, so ``until_ms`` must
        be ``None``.  Reaching ``max_events`` with the latch still held
        raises :class:`SimulationTruncated`.
        """
        if until_ms is not None:
            raise ValueError("a worker's drive takes no until_ms; use run()")
        processed = 0
        while latch.remaining > 0:
            if processed == max_events:
                raise SimulationTruncated(
                    f"drive hit max_events={max_events} with its latch "
                    f"still held at t={self._now:.3f}ms", processed=processed)
            if not self.step():
                return processed, True
            processed += 1
        return processed, False

    def align_exit_clock(self, time_ms: float) -> None:
        """Pin the clock to the serial run's exit time.

        Serial drive loops exit with ``now`` equal to the settling
        event's time; a worker may have overshot it inside the window
        (or stopped short, if the settling decrement ran in another
        worker).  Every worker receives the same ``time_ms`` (completion
        stamps are coordinator-broadcast), so this stays lockstep."""
        self._now = time_ms
        stats = self._rt.kernel.stats
        if isinstance(stats, WorkerStats):
            stats.commit_through(time_ms)

    def run(self, until_ms: Optional[float] = None, *,
            max_events: int = 1_000_000) -> int:
        processed = 0
        previous_bound = self._run_bound
        self._run_bound = until_ms
        try:
            while processed < max_events:
                if not self.step():
                    break
                processed += 1
            else:
                if self._has_eligible(until_ms):
                    raise SimulationTruncated(
                        f"run() hit max_events={max_events} with eligible "
                        f"events still queued at t={self._now:.3f}ms",
                        processed=processed)
            if until_ms is not None and self._now < until_ms:
                self._now = until_ms
            stats = self._rt.kernel.stats
            if isinstance(stats, WorkerStats):
                stats.commit_through(self._now)
            return processed
        finally:
            self._run_bound = previous_bound

    def _has_eligible(self, until_ms: Optional[float]) -> bool:
        entries = itertools.chain(
            self._queue, *self._shard_queues.values(),
            *self._outboxes, self._bcast)
        return any(until_ms is None or entry[_TIME] <= until_ms
                   for entry in entries)

    def pending_events(self) -> int:
        return (len(self._queue) + len(self._bcast)
                + sum(len(queue) for queue in self._shard_queues.values())
                + sum(len(outbox) for outbox in self._outboxes))

    # -- the barrier -----------------------------------------------------

    def _encode(self, entry: tuple, closed_end: float) -> tuple:
        if entry[_TIME] < closed_end:
            raise RuntimeError(
                f"lookahead violated: cross-shard delivery at "
                f"t={entry[_TIME]:.3f}ms inside the closed window "
                f"ending at {closed_end:.3f}ms (lookahead "
                f"{self._lookahead:.3f}ms)")
        kernel = self._rt.kernel
        callback = entry[_CALLBACK]
        if callback == kernel._deliver:
            kind = _WIRE_DELIVER
        elif callback == kernel._drop:
            kind = _WIRE_DROP
        else:
            raise RuntimeError(
                "only message deliveries and drops may cross workers "
                f"(got {callback!r})")
        message, recipient, context = entry[_ARGS]
        cid = None
        if context is not None:
            cid = getattr(context, "_cid", None)
            if cid is None:
                raise RuntimeError(
                    "cross-worker delivery on an unregistered context")
        return (kind, entry[_TIME], entry[_SEQUENCE], message, recipient, cid)

    def _apply_wire(self, wire: list, sender_rank: int) -> None:
        kernel = self._rt.kernel
        contexts = self._rt.contexts
        workers = self._rt.workers
        for kind, event_time, sequence, message, recipient, cid in wire:
            context = contexts[cid] if cid is not None else None
            callback = (kernel._deliver if kind == _WIRE_DELIVER
                        else kernel._drop)
            entry = (event_time, SHIP_BASE + sequence * workers + sender_rank,
                     callback, (message, recipient, context))
            if (message.type._value_ in SHARD_ROUTED_TYPE_VALUES
                    and recipient not in self._control_nodes):
                dest = self.shard_of_node(recipient)
                if dest not in self._shard_queues:
                    raise RuntimeError(
                        f"worker {self._rt.rank} received a delivery for "
                        f"shard {dest} it does not own")
                heapq.heappush(self._shard_queues[dest], entry)
            else:
                heapq.heappush(self._queue, entry)

    def _min_next(self) -> Optional[tuple]:
        """Earliest event key this worker knows about — local heaps
        plus everything it is about to ship (counted by the sender so
        the coordinator's global minimum is complete).

        Keys are ``(time, sequence)`` with shipped entries carrying the
        uniform re-sequenced value they will hold *after* application,
        so keys compare identically fleet-wide — the serving-isolation
        logic relies on "is the global minimum exactly the serving
        candidate" being a pure key comparison."""
        best: Optional[tuple] = None
        for entry in itertools.chain(self._queue,
                                     *self._shard_queues.values()):
            key = (entry[_TIME], entry[_SEQUENCE])
            if best is None or key < best:
                best = key
        workers = self._rt.workers
        rank = self._rt.rank
        for entry in itertools.chain(*self._outboxes, self._bcast):
            key = (entry[_TIME],
                   SHIP_BASE + entry[_SEQUENCE] * workers + rank)
            if best is None or key < best:
                best = key
        return best

    def _serve_scan(self, end: float) -> Optional[tuple]:
        """The earliest queued shard-plane delivery before ``end`` that
        would serve from a result cache.

        Runs after the barrier's inbound wires are applied (so freshly
        shipped deliveries are scanned too) and before the window opens.
        The probe is conservative by construction: cache sites only
        *lose* validity mid-window (fills happen on replicated finish
        paths between drive steps), so a serving can never appear that
        the scan missed, while a predicted serving that fizzles merely
        truncated the window — always safe, just smaller."""
        network = self._rt.network
        kernel = self._rt.kernel
        best: Optional[tuple] = None
        for queue in self._shard_queues.values():
            for entry in queue:
                if entry[_TIME] >= end:
                    continue
                key = (entry[_TIME], entry[_SEQUENCE])
                if best is not None and key >= best:
                    continue
                if entry[_CALLBACK] != kernel._deliver:
                    continue
                message, recipient, context = entry[_ARGS]
                if network._parallel_serve_probe(message, recipient, context,
                                                 entry[_TIME]):
                    best = key
        return best

    def _barrier(self) -> str:
        runtime = self._rt
        closed_end = self._window_end
        self.barriers += 1
        # The global minimum must see what this worker is about to ship
        # (the receiver doesn't know yet), so take it before the
        # outboxes are encoded and cleared below.
        min_next = self._min_next()
        # Encode outboxes: one pickle per destination per barrier.  The
        # lookahead assertion runs sender-side, before shipping.
        out_payload: Dict[int, bytes] = {}
        self_wire: list = []
        for dest_rank in range(runtime.workers):
            entries = self._outboxes[dest_rank]
            if not entries:
                continue
            wire = [self._encode(entry, closed_end) for entry in entries]
            if dest_rank == runtime.rank:
                # Our own cross-shard traffic: applied locally below,
                # with the same uniform re-sequencing as shipped traffic
                # so heap order is worker-independent.
                self_wire = wire
            else:
                blob = pickle.dumps(wire, protocol=pickle.HIGHEST_PROTOCOL)
                self.bytes_shipped += len(blob)
                out_payload[dest_rank] = blob
        bcast_wire = [self._encode(entry, closed_end) for entry in self._bcast]
        bcast_blob = None
        if bcast_wire:
            bcast_blob = pickle.dumps(bcast_wire,
                                      protocol=pickle.HIGHEST_PROTOCOL)
            self.bytes_shipped += len(bcast_blob)
        ops_blob = None
        if runtime.ops:
            ops_blob = pickle.dumps(runtime.ops,
                                    protocol=pickle.HIGHEST_PROTOCOL)
            runtime.ops = []
        for dest_rank in range(runtime.workers):
            self._outboxes[dest_rank] = []
        self._bcast = []
        pend = {cid: tuple(entry)
                for cid, entry in runtime.pending_ledger.items()}
        runtime.pending_ledger = {}
        active = runtime.newly_active
        runtime.newly_active = []
        # Serving isolation only matters when result caches exist on the
        # shard plane; the flag is replicated config, so every worker
        # (and hence the coordinator's probe-round expectation) agrees.
        probing = (runtime.network is not None
                   and getattr(runtime.network, "result_caching", False))
        response = runtime.request({
            "tag": "barrier",
            "rank": runtime.rank,
            "now": self._now,
            "closed": closed_end,
            "out": out_payload,
            "bcast": bcast_blob,
            "ops": ops_blob,
            "pend": pend,
            "active": active,
            "min_next": min_next,
            "probing": probing,
        })
        # Apply order: replicated ops, then inbound deliveries (remote,
        # self-outbox, broadcast — heap position is decided by the
        # uniform re-sequenced keys, not by application order), then
        # coordinator-decided completions.
        for blob in response.get("ops", []):
            for op in pickle.loads(blob):
                runtime.kernel.apply_op(op)
        for sender_rank, blob in response.get("in", []):
            self._apply_wire(pickle.loads(blob), sender_rank)
        if self_wire:
            self._apply_wire(self_wire, runtime.rank)
        for sender_rank, blob in response.get("bcast", []):
            self._apply_wire(pickle.loads(blob), sender_rank)
        if bcast_wire:
            self._apply_wire(bcast_wire, runtime.rank)
        done = response.get("done", [])
        if done:
            kernel = runtime.kernel
            for cid, completed_at in done:
                context = runtime.contexts.get(cid)
                if context is not None:
                    kernel.force_complete(context, completed_at)
            return "completed"
        start = response.get("start")
        if start is None:
            self._now = max(self._now, response["drain_now"])
            # A drained serial queue executed everything, so every
            # staged record is canonical.
            stats = runtime.kernel.stats
            if isinstance(stats, WorkerStats):
                stats.commit_through(float("inf"))
            return "drained"
        window_end = start + self._lookahead
        self._stop_key = None
        self._stop_inclusive = False
        if probing:
            # Second handshake round: scan the now-complete heaps for
            # cache-serving candidates inside the proposed window and
            # let the coordinator truncate it so every serving executes
            # alone, after the barrier that replicated all prior claims.
            serve = self._serve_scan(window_end)
            decision = runtime.request({
                "tag": "probe",
                "rank": runtime.rank,
                "serve": serve,
            })
            stop = decision.get("stop")
            if stop is not None:
                self._stop_key = tuple(stop)
                self._stop_inclusive = bool(decision.get("inclusive"))
        self._window_start = start
        self._window_end = window_end
        self.windows += 1
        return "window"


# ---------------------------------------------------------------------------
# Worker process entry
# ---------------------------------------------------------------------------

def _peak_rss_bytes() -> int:
    """This process's peak resident set, in bytes (VmHWM on Linux)."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    import resource
    import sys
    kilo = 1 if sys.platform == "darwin" else 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * kilo


def _worker_main(rank: int, workers: int, conn: Any, config: Any,
                 max_results: int) -> None:
    """Spawn-safe worker entry: build the full scenario under the worker
    runtime, run the query workload in barrier lockstep, report merged
    observables."""
    try:
        runtime = WorkerRuntime(rank, workers, conn)
        _activate(runtime)
        from repro.workloads.scenario import build_scenario
        scenario = build_scenario(config)
        # detlint: ignore[DET004] -- wall-clock observability of the
        # workload phase (reported as query_wall_s); never reaches the
        # simulation clock or any pinned observable.
        started = time.perf_counter()
        counts = scenario.run_queries(max_results=max_results)
        # detlint: ignore[DET004] -- see above: benchmark-style timing.
        query_wall_s = time.perf_counter() - started
        simulator = runtime.simulator
        stats = scenario.network.stats
        # Finalization sweep: commit records the canonical clock reached
        # (the drive loop's last settle time) and discard the rest —
        # they came from window-overshoot events a serial run leaves
        # queued forever.
        stats.commit_through(simulator.now)
        stats.discard_staged()
        # Ship plain stats: the worker-gated subclass holds a runtime
        # reference that must not cross the pipe.
        plain = NetworkStats()
        plain.merge(stats)
        conn.send({
            "tag": "result",
            "rank": rank,
            "counts": counts,
            "stats": pickle.dumps(plain, protocol=pickle.HIGHEST_PROTOCOL),
            "now": simulator.now,
            "windows": simulator.windows,
            "barriers": simulator.barriers,
            "cross_shard_messages": simulator.cross_shard_messages,
            "events_processed": simulator.events_processed,
            "bytes_shipped": simulator.bytes_shipped,
            "peak_rss_bytes": _peak_rss_bytes(),
            "query_wall_s": query_wall_s,
        })
        conn.recv()  # the coordinator's release, after every rank reported
    except BaseException:  # noqa: BLE001 - ship the traceback, then die
        try:
            conn.send({"tag": "error", "rank": rank,
                       "traceback": traceback.format_exc()})
        except Exception:
            pass
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------

class ParallelRunReport:
    """What one parallel scenario run produced (merged across workers)."""

    def __init__(self, *, counts: List[int], stats: NetworkStats,
                 workers: int, shards: int, wall_s: float,
                 query_wall_s: float, windows: int, barriers: int,
                 cross_shard_messages: int, events_processed: int,
                 bytes_shipped: int, worker_peak_rss_bytes: List[int],
                 final_now: float) -> None:
        self.counts = counts
        self.stats = stats
        self.workers = workers
        self.shards = shards
        self.wall_s = wall_s
        self.query_wall_s = query_wall_s
        self.windows = windows
        self.barriers = barriers
        self.cross_shard_messages = cross_shard_messages
        self.events_processed = events_processed
        self.bytes_shipped = bytes_shipped
        self.worker_peak_rss_bytes = worker_peak_rss_bytes
        self.final_now = final_now


class ParallelShardRunner:
    """Hosts N worker processes and serves their barrier/sync rounds.

    Strictly lockstep: every round collects exactly one message from
    every worker and requires a single shared tag, so any divergence —
    workers disagreeing about the closed window, unequal replicated
    pending deltas, one worker reaching its result while another still
    barriers — fails loudly instead of silently corrupting the run.
    """

    def __init__(self, *, workers: int, timeout_s: float = 600.0) -> None:
        if workers < 1:
            raise ValueError("need at least one worker process")
        self.workers = workers
        self.timeout_s = timeout_s
        self._conns: List[Any] = []
        self._processes: List[Any] = []
        # Global completion ledger
        self._pending: Dict[int, int] = {}
        self._dec_time: Dict[int, float] = {}
        self._ever: set = set()
        self._completed: set = set()

    # -- lifecycle -------------------------------------------------------

    def _spawn(self, config: Any, max_results: int) -> None:
        context = multiprocessing.get_context("spawn")
        for rank in range(self.workers):
            parent_conn, child_conn = context.Pipe(duplex=True)
            process = context.Process(
                target=_worker_main,
                args=(rank, self.workers, child_conn, config, max_results),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._processes.append(process)

    def _kill(self) -> None:
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for process in self._processes:
            process.join(timeout=5.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass

    def _collect(self) -> List[dict]:
        rounds = []
        for rank, conn in enumerate(self._conns):
            if not conn.poll(self.timeout_s):
                self._kill()
                raise RuntimeError(
                    f"parallel barrier deadlock: worker {rank} sent nothing "
                    f"for {self.timeout_s:.0f}s")
            rounds.append(conn.recv())
        for message in rounds:
            if message["tag"] == "error":
                trace = message["traceback"]
                self._kill()
                raise RuntimeError(
                    f"parallel worker {message['rank']} failed:\n{trace}")
        tags = {message["tag"] for message in rounds}
        if len(tags) != 1:
            self._kill()
            raise RuntimeError(
                f"parallel workers desynchronized: one round carried tags "
                f"{sorted(tags)} — the lockstep protocol is broken")
        rounds.sort(key=lambda message: message["rank"])
        return rounds

    # -- rounds ----------------------------------------------------------

    def _serve_barrier(self, requests: List[dict]) -> None:
        closed = requests[0]["closed"]
        for request in requests[1:]:
            if request["closed"] != closed:
                self._kill()
                raise RuntimeError(
                    f"parallel workers desynchronized: closed-window ends "
                    f"differ ({[r['closed'] for r in requests]})")
        probing = bool(requests[0].get("probing"))
        if any(bool(request.get("probing")) != probing
               for request in requests[1:]):
            self._kill()
            raise RuntimeError(
                "parallel workers desynchronized: serving-probe "
                "expectations differ — replicated config diverged")
        candidates = set()
        for request in requests:
            candidates.update(request["pend"].keys())
            self._ever.update(request["active"])
            candidates.update(request["active"])
        for cid in sorted(candidates):
            reported = [request["pend"].get(cid, (0, 0, 0.0))
                        for request in requests]
            ctrl = reported[0][0]
            if any(entry[0] != ctrl for entry in reported):
                self._kill()
                raise RuntimeError(
                    f"parallel workers diverged: replicated pending deltas "
                    f"for context {cid} differ across workers "
                    f"({[entry[0] for entry in reported]}) — the control "
                    f"plane is no longer lockstep")
            self._pending[cid] = (self._pending.get(cid, 0) + ctrl
                                  + sum(entry[1] for entry in reported))
            dec = max(entry[2] for entry in reported)
            if dec > self._dec_time.get(cid, 0.0):
                self._dec_time[cid] = dec
        done = sorted(
            (self._dec_time.get(cid, 0.0), cid)
            for cid in candidates
            if cid in self._ever and cid not in self._completed
            and self._pending.get(cid, 0) == 0
        )
        done_list = [(cid, at_ms) for at_ms, cid in done]
        self._completed.update(cid for cid, _at in done_list)
        min_next = [tuple(request["min_next"]) for request in requests
                    if request["min_next"] is not None]
        start_key = min(min_next) if min_next else None
        start = start_key[0] if start_key is not None else None
        drain_now = max(request["now"] for request in requests)
        for rank, conn in enumerate(self._conns):
            conn.send({
                "start": start,
                "drain_now": drain_now,
                "in": [(request["rank"], request["out"][rank])
                       for request in requests if rank in request["out"]],
                "bcast": [(request["rank"], request["bcast"])
                          for request in requests
                          if request["bcast"] is not None
                          and request["rank"] != rank],
                "ops": [request["ops"] for request in requests
                        if request["ops"] is not None
                        and request["rank"] != rank],
                "done": done_list,
            })
        if probing and start is not None and not done_list:
            self._serve_probe(start_key)

    def _serve_probe(self, start_key: tuple) -> None:
        """The serving-isolation round that follows a window-opening
        barrier when result caching is live.

        Each worker reports the earliest cache-serving candidate it
        found in the proposed window (or None).  If the global earliest
        candidate S *is* the window's opening event, the window becomes
        degenerate — only S executes, alone, with every prior claim
        already applied at the barrier just served.  Otherwise the
        window is truncated exclusively before S, so S opens (and is
        isolated by) the next window instead."""
        probes = self._collect()
        if probes[0]["tag"] != "probe":
            self._kill()
            raise RuntimeError(
                f"parallel workers desynchronized: expected a probe round "
                f"but got tag {probes[0]['tag']!r}")
        serves = [tuple(probe["serve"]) for probe in probes
                  if probe.get("serve") is not None]
        stop: Optional[tuple] = None
        inclusive = False
        if serves:
            stop = min(serves)
            inclusive = stop == start_key
        for conn in self._conns:
            conn.send({"stop": stop, "inclusive": inclusive})

    def _serve_sync(self, requests: List[dict]) -> None:
        cid = requests[0]["cid"]
        if any(request["cid"] != cid for request in requests):
            self._kill()
            raise RuntimeError(
                f"parallel workers desynchronized: sync rendezvous mixes "
                f"contexts ({[r['cid'] for r in requests]})")
        fields: Dict[str, int] = {}
        for name in ("messages_sent", "bytes_sent", "peers_probed"):
            ctrl = requests[0]["ctrl"].get(name, 0)
            if any(request["ctrl"].get(name, 0) != ctrl
                   for request in requests[1:]):
                self._kill()
                raise RuntimeError(
                    f"parallel workers diverged: replicated {name} differs "
                    f"across workers for context {cid}")
            fields[name] = ctrl + sum(request["shard"].get(name, 0)
                                      for request in requests)
        owners = [request for request in requests if request.get("owner")]
        results = owners[0].get("results") if owners else None
        transfer = owners[0].get("transfer") if owners else None
        error = next((request.get("error") for request in requests
                      if request.get("error") is not None), None)
        extra: Dict[str, Any] = {}
        for request in requests:
            for key, value in request.get("extra", {}).items():
                extra[key] = extra.get(key) or value
        for conn in self._conns:
            conn.send({
                "fields": fields,
                "results": results,
                "transfer": transfer,
                "error": error,
                "extra": extra,
            })

    # -- driving ---------------------------------------------------------

    def run(self, config: Any, *, max_results: int = 100) -> ParallelRunReport:
        # detlint: ignore[DET004] -- coordinator wall-clock (wall_s in
        # the report); the simulation clocks live in the workers.
        started = time.perf_counter()
        self._spawn(config, max_results)
        try:
            while True:
                requests = self._collect()
                tag = requests[0]["tag"]
                if tag == "barrier":
                    self._serve_barrier(requests)
                elif tag == "sync":
                    self._serve_sync(requests)
                elif tag == "result":
                    for conn in self._conns:
                        conn.send({"tag": "release"})
                    break
                else:
                    self._kill()
                    raise RuntimeError(
                        f"unknown parallel protocol tag {tag!r}")
            # detlint: ignore[DET004] -- see above: report wall time.
            wall_s = time.perf_counter() - started
            merged = NetworkStats()
            for request in requests:
                merged.merge(pickle.loads(request["stats"]))
            report = ParallelRunReport(
                counts=requests[0]["counts"],
                stats=merged,
                workers=self.workers,
                shards=config.shards,
                wall_s=wall_s,
                query_wall_s=max(r["query_wall_s"] for r in requests),
                windows=requests[0]["windows"],
                barriers=requests[0]["barriers"],
                cross_shard_messages=sum(r["cross_shard_messages"]
                                         for r in requests),
                events_processed=sum(r["events_processed"]
                                     for r in requests),
                bytes_shipped=sum(r["bytes_shipped"] for r in requests),
                worker_peak_rss_bytes=[r["peak_rss_bytes"]
                                       for r in requests],
                final_now=max(r["now"] for r in requests),
            )
            for process in self._processes:
                process.join(timeout=30.0)
            return report
        except BaseException:
            self._kill()
            raise
        finally:
            for conn in self._conns:
                try:
                    conn.close()
                except OSError:
                    pass


def run_parallel_scenario(config: Any, *, workers: int = 2,
                          max_results: int = 100,
                          timeout_s: float = 600.0) -> ParallelRunReport:
    """Run ``config`` once across ``workers`` processes, one connected
    topology, bit-identical observables to the serial ``shards=1`` run.

    The coordinator never builds the scenario itself — every worker
    builds the full replica and the coordinator only merges outboxes,
    pending ledgers and sync payloads.
    """
    import dataclasses
    if config.shards < 2:
        raise ValueError("parallel execution needs shards > 1 "
                         "(one shard has nothing to partition)")
    if getattr(config, "download_chunk_bytes", None) is not None:
        raise ValueError(
            "chunked downloads (download_chunk_bytes) are not supported "
            "under parallel execution yet: mid-stream provider failover "
            "re-arms reliable envelopes from the shard plane, which the "
            "replicated pending ledger cannot account symmetrically")
    if not config.parallel:
        config = dataclasses.replace(config, parallel=True)
    runner = ParallelShardRunner(workers=workers, timeout_s=timeout_s)
    return runner.run(config, max_results=max_results)
