"""The abstract peer-network interface.

The paper's future-work section proposes modelling "the peer-to-peer
layer as providing a generic interface with primitives for create,
search and retrieve".  :class:`PeerNetwork` is exactly that interface;
the four protocol adapters implement it, and the U-P2P core is written
against it only — which is the protocol-independence property the
experiments test.

The mechanisms every organisation shares (live membership, result
caching, reliable delivery and chunked downloads, informed routing) are
configured by the four frozen groups of :mod:`repro.network.config`,
the only spelling the constructor accepts.
"""

from __future__ import annotations

import itertools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from repro.engine.kernel import EventKernel, ExchangeContext, QueryContext, RetrieveContext
from repro.network.config import (
    CacheConfig,
    MembershipConfig,
    ReliabilityConfig,
    RoutingConfig,
    check_composition,
)
from repro.network.errors import (
    DuplicatePeerError,
    PeerOfflineError,
    TransferError,
    UnknownPeerError,
)
from repro.network.faults import FaultModel, FaultPlan, build_fault_model
from repro.network.messages import (
    Message,
    MessageType,
    attachment_transfer,
    download_chunk,
    download_request,
    download_response,
    query_hit_message,
)
from repro.network.peers import Peer
from repro.network.simulator import NetworkSimulator
from repro.network.stats import DownloadRecord, NetworkStats, QueryRecord
from repro.storage.cache import CacheEntry, QueryResultCache
from repro.storage.document_store import StoredObject
from repro.storage.errors import ObjectNotFoundError
from repro.storage.plan import CompiledQuery, compile_query
from repro.storage.query import Query
from repro.storage.replicas import ReplicaRegistry


@dataclass(frozen=True)
class SearchResult:
    """One hit returned by a network search.

    The paper specifies that "results will be returned from the network
    and will consist of full meta-data for each search result", so the
    result carries the provider, the resource id and the searchable
    metadata (not the full object — that is what retrieve is for).
    """

    provider_id: str
    resource_id: str
    community_id: str
    title: str
    metadata: dict[str, tuple[str, ...]] = field(default_factory=dict)
    hops: int = 0

    @classmethod
    def from_stored(cls, provider_id: str, stored: StoredObject, *, hops: int = 0) -> "SearchResult":
        # Zero-copy: the stored object's tuple-valued metadata view is
        # built once and shared by every result generated for it.
        return cls(
            provider_id=provider_id,
            resource_id=stored.resource_id,
            community_id=stored.community_id,
            title=stored.title,
            metadata=stored.metadata_view(),
            hops=hops,
        )

    def metadata_bytes(self) -> int:
        """Approximate wire size of the carried metadata."""
        return sum(
            len(path) + sum(len(value) for value in values)
            for path, values in self.metadata.items()
        )


@dataclass
class SearchResponse:
    """Everything a search produced, including its cost."""

    query: Query
    results: list[SearchResult] = field(default_factory=list)
    messages_sent: int = 0
    bytes_sent: int = 0
    peers_probed: int = 0
    latency_ms: float = 0.0

    @property
    def result_count(self) -> int:
        return len(self.results)

    def providers_of(self, resource_id: str) -> list[str]:
        """Every peer offering ``resource_id`` (replication degree)."""
        return [result.provider_id for result in self.results if result.resource_id == resource_id]

    def distinct_resources(self) -> set[str]:
        return {result.resource_id for result in self.results}

    def best(self) -> Optional[SearchResult]:
        """The closest (fewest hops) result, if any."""
        return min(self.results, key=lambda result: result.hops, default=None)


@dataclass
class RetrieveResult:
    """Outcome of downloading one object (plus attachments) from a provider."""

    stored: StoredObject
    provider_id: str
    transfer_bytes: int
    latency_ms: float
    attachments_transferred: int = 0


@dataclass
class _PendingAck:
    """One reliably-sent message awaiting its ACK (see ``send_reliable``)."""

    message: Message
    context: Optional[ExchangeContext]
    attempt: int = 0


class PeerNetwork(ABC):
    """Common behaviour of all network organisations.

    Mechanism knobs arrive as the four frozen groups of
    :mod:`repro.network.config` (``cache=``, ``membership=``,
    ``reliability=``, ``routing=``); parameters are read from
    ``self.cache_config`` etc.  Only the four on/off flags are plain
    attributes: handlers branch on them per delivered message, and
    ``live_membership`` is runtime state flipped by :meth:`go_live`.
    """

    protocol_name = "abstract"

    def __init__(self, *, simulator: Optional[NetworkSimulator] = None,
                 stats: Optional[NetworkStats] = None, seed: int = 0,
                 compile_queries: bool = True, shards: int = 1,
                 parallel: bool = False,
                 faults: Optional[FaultPlan] = None,
                 cache: Optional[CacheConfig] = None,
                 membership: Optional[MembershipConfig] = None,
                 reliability: Optional[ReliabilityConfig] = None,
                 routing: Optional[RoutingConfig] = None) -> None:
        if shards < 1:
            raise ValueError("need at least one shard")
        #: ``None`` means the group's defaults
        self.cache_config = cache = cache or CacheConfig()
        self.membership_config = membership = membership or MembershipConfig()
        self.reliability_config = reliability = reliability or ReliabilityConfig()
        self.routing_config = routing = routing or RoutingConfig()
        check_composition(cache, routing)
        #: event-queue shard count.  ``shards=1`` (the default) keeps
        #: the single-queue simulator and the existing hot path
        #: untouched; ``shards>1`` partitions the queue across a
        #: :class:`~repro.engine.sharded.ShardedSimulator` whose
        #: conservative time-window barrier reproduces the single-queue
        #: execution bit-for-bit (pinned by the cross-shard contract).
        self.shards = shards
        #: process-parallel execution (``engine/parallel.py``): each
        #: worker process hosts its share of the shard heaps; the
        #: in-process ``parallel=False`` default is pinned bit-identical.
        #: Only meaningful inside a worker spawned by
        #: ``run_parallel_scenario`` — the coordinator never builds a
        #: network itself.
        self.parallel = parallel
        if parallel:
            from repro.engine.parallel import (
                WorkerKernel, WorkerSimulator, WorkerStats, current_runtime)
            runtime = current_runtime()
            if runtime is None:
                raise ValueError(
                    "parallel=True requires an active worker runtime; "
                    "drive parallel execution through "
                    "repro.engine.parallel.run_parallel_scenario")
            if simulator is not None or stats is not None:
                raise ValueError(
                    "parallel=True builds its own worker simulator and "
                    "stats; pass neither")
            self.simulator = WorkerSimulator(runtime, seed=seed, shards=shards)
            self.stats = WorkerStats(runtime)
            self.peers: dict[str, Peer] = {}
            self.kernel = WorkerKernel(runtime, simulator=self.simulator,
                                       peers=self.peers, stats=self.stats)
            self.kernel.bind_network(self)
        else:
            if simulator is None and shards > 1:
                from repro.engine.sharded import ShardedSimulator
                simulator = ShardedSimulator(seed=seed, shards=shards)
            self.simulator = simulator or NetworkSimulator(seed=seed)
            self.stats = stats or NetworkStats()
            self.peers = {}
            self.kernel = EventKernel(simulator=self.simulator, peers=self.peers,
                                      stats=self.stats)
        self.replicas = ReplicaRegistry()
        #: compile each query once at search start (the fast path); the
        #: flag exists so the contract suite can pin that the compiled
        #: path is result- and message-count-identical to the naive one
        self.compile_queries = compile_queries
        #: the four on/off flags (documented on the groups); off is
        #: pinned bit-identical to the mechanism's absence
        self.live_membership = membership.live
        self.result_caching = cache.enabled
        self.informed_routing = routing.informed
        self.reliable_delivery = reliability.reliable_delivery
        #: per-peer result caches (the sites that live *on* a peer:
        #: flooding peers, rendezvous edges).  A departing peer's cache
        #: dies with its RAM in both membership modes.
        self._peer_caches: dict[str, QueryResultCache] = {}
        self._cache_sweep_timer = None
        self._maintenance_timer = None
        self._query_sequence = itertools.count(1)
        #: reliably-sent messages awaiting their ACK, keyed by message id
        self._pending_acks: dict[str, _PendingAck] = {}
        self._register_handlers(self.kernel)
        #: deterministic fault injection (``faults=None``, the default,
        #: is pinned bit-identical to the perfect-link substrate)
        self.faults: Optional[FaultModel] = None
        if faults is not None:
            self.install_faults(faults)

    def install_faults(self, plan: FaultPlan) -> None:
        """Arm ``plan`` from the current virtual time onwards.

        Plan times (partition windows, crash instants) are relative to
        this moment.  Scenarios install after bootstrap so structural
        setup stays fault-free and the plan describes the measured
        workload environment; a directly-built network passing
        ``faults=`` to the constructor installs at time zero.
        """
        self.faults = build_fault_model(plan, epoch_ms=self.simulator.now)
        assert self.faults is not None
        self.kernel.faults = self.faults
        for peer_id, at_ms in plan.crashes:
            self.simulator.post(max(0.0, at_ms), self._fault_crash, peer_id)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def add_peer(self, peer: Peer) -> Peer:
        """Add ``peer`` to the network and wire it into the overlay.

        With live membership on, the arrival is a protocol event: the
        newcomer's join traffic (discovery pings, registrations, leaf
        attachment) goes through the kernel and costs real messages.
        """
        if peer.peer_id in self.peers:
            raise DuplicatePeerError(f"peer id {peer.peer_id!r} is already in the network")
        self.peers[peer.peer_id] = peer
        peer.online_since = self.simulator.now
        if self.live_membership:
            self._ensure_maintenance()
            self._on_peer_joined_live(peer)
        else:
            self._on_peer_added(peer)
        return peer

    def create_peer(self, peer_id: str) -> Peer:
        """Convenience: create, add and return a new peer."""
        return self.add_peer(Peer(peer_id=peer_id))

    def remove_peer(self, peer_id: str) -> None:
        """Remove a peer entirely (it will not come back).

        Off mode this is the structural API it always was (instant hook
        cleanup).  With live membership on, the removal is an announced
        permanent departure — UNREGISTER/LEAVE/LEAF-DETACH traffic
        through the kernel — and the off-mode hooks' free instant
        mutation never runs.  Either way the peer's open session closes
        into the uptime totals before the object is dropped.
        """
        peer = self._require_peer(peer_id, allow_offline=True)
        if self.live_membership:
            self.depart(peer_id, graceful=True)
        else:
            if peer.online:
                session_ms = self.simulator.now - peer.online_since
                peer.uptime_ms += session_ms
                self.stats.record_uptime(session_ms)
            self._on_peer_removed(peer)
        self.replicas.forget_peer(peer_id)
        self._peer_caches.pop(peer_id, None)
        del self.peers[peer_id]

    def set_online(self, peer_id: str, online: bool) -> None:
        """Toggle a peer's availability (used by the population model).

        Uptime accounting happens in both modes: each offline
        transition closes the current session and accumulates it on
        ``Peer.uptime_ms`` and the network stats.  Protocol reaction
        differs: with live membership off the legacy hooks mutate
        protocol state instantly and for free; with it on, only
        physically-observable effects happen here (a departed node's
        own RAM dies with it) and everything else — re-homing,
        re-registration, stale-record cleanup — is later protocol
        traffic.
        """
        peer = self._require_peer(peer_id, allow_offline=True)
        if peer.online == online:
            return
        now = self.simulator.now
        if online:
            peer.online = True
            peer.online_since = now
            if self.live_membership:
                self._on_peer_joined_live(peer)
            else:
                self._on_peer_returned(peer)
        else:
            session_ms = now - peer.online_since
            peer.uptime_ms += session_ms
            self.stats.record_uptime(session_ms)
            peer.last_departed_ms = now
            peer.online = False
            # The departing peer's own result cache lives in its RAM and
            # dies with it (both membership modes; a no-op when caching
            # is off because the dict stays empty).
            self._peer_caches.pop(peer.peer_id, None)
            if self.live_membership:
                self._on_peer_left_live(peer)
            else:
                self._on_peer_departed(peer)

    def depart(self, peer_id: str, *, graceful: bool = False) -> None:
        """Take a peer offline permanently (it is never rescheduled).

        With live membership on and ``graceful`` set, the peer first
        announces its departure (UNREGISTER / LEAVE / LEAF-DETACH
        traffic through the kernel) so the network cleans up without a
        staleness window; an ungraceful permanent departure leaves
        stale state behind exactly like a crash.
        """
        peer = self._require_peer(peer_id, allow_offline=True)
        if not peer.online:
            return
        if self.live_membership and graceful:
            self._announce_departure_live(peer)
        self.set_online(peer_id, False)

    # ------------------------------------------------------------------
    # Live membership
    # ------------------------------------------------------------------
    def go_live(self) -> None:
        """Switch to live membership from now on (idempotent).

        Typically called once the initial population is built: the
        bootstrap structure (overlay, elections, registrations) stands,
        freshness stamps are initialized to the current virtual time,
        and from here on every lifecycle transition is protocol traffic
        and maintenance runs on recurring kernel timers.
        """
        self.live_membership = True
        self._stamp_freshness(self.simulator.now)
        self._ensure_maintenance()

    @property
    def heartbeat_lease_ms(self) -> float:
        """How long a silent counterpart stays trusted."""
        membership = self.membership_config
        return membership.maintenance_interval_ms * membership.heartbeat_lease_intervals

    def _ensure_maintenance(self) -> None:
        # Re-arm after kernel.cancel_timers() too, so going live again
        # after a paused run actually resumes heartbeats and sweeps.
        if self._maintenance_timer is None or self._maintenance_timer.cancelled:
            # detlint: ignore[KERN001] -- network-wide tick: one round visits
            # every peer/site, so it has no single home shard; it runs on the
            # sharded simulator's control queue by design.
            self._maintenance_timer = self.kernel.every(
                self.membership_config.maintenance_interval_ms, self._maintenance_tick)

    def _maintenance_tick(self) -> None:
        self._on_maintenance_tick(self.simulator.now)

    def _note_staleness(self, provider_id: str, now: float) -> None:
        """Record that stale state of a departed peer was just purged."""
        peer = self.peers.get(provider_id)
        if peer is not None and not peer.online and peer.last_departed_ms >= 0:
            self.stats.record_staleness(now - peer.last_departed_ms)

    def snapshot_uptime(self) -> float:
        """Fold every open session into the uptime totals and return
        ``stats.uptime_ms_total``.

        Sessions normally close (and count) only at an offline
        transition, so a measurement taken mid-run would otherwise
        *undercount* the steadiest peers — the ones that never went
        down.  Call this at a measurement boundary; session clocks
        restart at the current virtual time.
        """
        now = self.simulator.now
        for peer in self.peers.values():
            if peer.online:
                session_ms = now - peer.online_since
                peer.uptime_ms += session_ms
                self.stats.record_uptime(session_ms)
                peer.online_since = now
        return self.stats.uptime_ms_total

    def online_peers(self) -> list[Peer]:
        return [peer for peer in self.peers.values() if peer.online]

    def peer(self, peer_id: str) -> Peer:
        return self._require_peer(peer_id, allow_offline=True)

    def _require_peer(self, peer_id: str, *, allow_offline: bool = False) -> Peer:
        peer = self.peers.get(peer_id)
        if peer is None:
            raise UnknownPeerError(f"unknown peer {peer_id!r}")
        if not peer.online and not allow_offline:
            raise PeerOfflineError(f"peer {peer_id!r} is offline")
        return peer

    # ------------------------------------------------------------------
    # The three primitives (create / search / retrieve)
    # ------------------------------------------------------------------
    @abstractmethod
    def publish(self, peer_id: str, community_id: str, resource_id: str,
                metadata: dict[str, list[str]], *, title: str = "") -> None:
        """Announce a locally stored object to the network."""

    @abstractmethod
    def start_search(self, origin_id: str, query: Query, *, max_results: int = 100,
                     **kwargs) -> QueryContext:
        """Inject a query into the event kernel and return its context.

        Implementations validate the origin (raising synchronously for
        unknown or offline peers), answer from the origin's local index,
        and send the protocol's opening messages.  The returned context
        completes once no message of the query remains in flight.
        """

    def search(self, origin_id: str, query: Query, *, max_results: int = 100,
               **kwargs) -> SearchResponse:
        """Search the network on behalf of ``origin_id``.

        This is the synchronous convenience wrapper: it submits the
        query, drains the event queue until the query quiesces (other
        pending events — churn, maintenance — run as their times come
        up), and returns the finished response.  Batched concurrent
        submission goes through :class:`~repro.engine.driver.QueryDriver`.
        """
        context = self.start_search(origin_id, query, max_results=max_results, **kwargs)
        self.kernel.run_until_complete([context])
        return self.finish_search(context)

    def finish_search(self, context: QueryContext) -> SearchResponse:
        """Turn a completed context into a response and record its cost."""
        # Parallel workers canonicalize the context here (counters
        # summed across the fleet, results shipped from the origin's
        # owner); serial execution holds everything already (no-op).
        self.kernel.sync_context(context)
        response = SearchResponse(
            query=context.query,
            results=list(context.results),
            messages_sent=context.messages_sent,
            bytes_sent=context.bytes_sent,
            peers_probed=context.peers_probed,
            latency_ms=context.latency_ms,
        )
        if not context.finalized:
            context.finalized = True
            if self.result_caching and not context.starved \
                    and not context.extra.get("cache_hit") \
                    and not context.extra.get("remote_cache_served"):
                # The finished result set fills this protocol's cache
                # site.  Responses already served (wholly or partly)
                # from a cache are not re-cached: refreshing the entry
                # would silently extend its TTL past the fill time.
                self._cache_store(context, response)
            self.stats.record_query(QueryRecord(
                query_id=context.extra.get("query_id")
                or f"{self.protocol_name}-{self.next_query_number()}",
                origin=context.origin_id,
                community_id=context.query.community_id,
                results=len(context.results),
                messages=context.messages_sent,
                bytes=context.bytes_sent,
                peers_probed=context.peers_probed,
                latency_ms=context.latency_ms,
                hops_to_first_result=context.first_hit_hops,
            ))
        return response

    def next_query_number(self) -> int:
        """A per-network monotonic number for fallback query ids.

        Unlike ``len(self.stats.queries)``, this stays unique while a
        concurrent batch is in flight (records are only appended at
        finish time, submissions happen earlier).
        """
        return next(self._query_sequence)

    def compile(self, query: Query) -> Optional[CompiledQuery]:
        """The query's compiled plan, or ``None`` when compilation is off."""
        return compile_query(query) if self.compile_queries else None

    def wire_form(self, query: Query, plan: Optional[CompiledQuery]) -> tuple[str, int]:
        """The query's serialized wire form and its byte length.

        With a plan both are computed once per search and shared by
        every hop's QUERY message; without one they are recomputed here
        (the naive path the contract suite compares against).
        """
        if plan is not None:
            return plan.wire_xml, plan.wire_bytes
        xml = query.to_xml_text()
        return xml, len(xml.encode("utf-8"))

    def new_context(self, origin_id: str, query: Query, *, max_results: int,
                    query_id: str = "",
                    plan: Optional[CompiledQuery] = None) -> QueryContext:
        """A fresh context stamped with the current virtual time.

        The query is compiled here, once per search — every protocol
        handler that evaluates it downstream reuses ``context.plan``.
        Callers that compiled earlier (to build the opening message)
        pass their plan in to avoid compiling twice.
        """
        context = QueryContext(
            query=query,
            origin_id=origin_id,
            max_results=max_results,
            started_at=self.simulator.now,
            plan=plan if plan is not None else self.compile(query),
        )
        if query_id:
            context.extra["query_id"] = query_id
        if self.result_caching:
            self._ensure_cache_sweep()
        return context

    def start_retrieve(self, requester_id: str, provider_id: str, resource_id: str,
                       *, bandwidth_kbps: float = 512.0) -> RetrieveContext:
        """Inject a download into the event kernel and return its context.

        The DOWNLOAD-REQUEST is scheduled like any other message; the
        provider answers at delivery time with a DOWNLOAD-RESPONSE plus
        one transfer event per attachment, and the object replicates
        into the requester's repository when the response *arrives*.
        The context quiesces by reference counting — the shared clock is
        never mutated, so downloads compose deterministically with any
        queries in flight.
        """
        self._require_peer(requester_id)
        self._require_peer(provider_id)
        if bandwidth_kbps <= 0:
            raise ValueError("bandwidth must be positive")
        context = RetrieveContext(
            requester_id=requester_id,
            provider_id=provider_id,
            resource_id=resource_id,
            bandwidth_kbps=bandwidth_kbps,
            started_at=self.simulator.now,
        )
        request = download_request(requester_id, provider_id, resource_id)
        self.send_reliable(request, context=context)
        if self.reliability_config.download_chunk_bytes is not None:
            # The stall watchdog holds a pending token so a download
            # whose chunks stop arriving stays open long enough to
            # re-request or fail over instead of completing as lost.
            context.pending += 1
            context.watchdog_held = True
            self._arm_download_watchdog(context)
        return context

    def retrieve(self, requester_id: str, provider_id: str, resource_id: str,
                 *, bandwidth_kbps: float = 512.0) -> RetrieveResult:
        """Download the full object (and attachments) from ``provider_id``.

        The object is replicated into the requester's repository, which
        is how popular objects gain availability (paper §II).  This is
        the synchronous convenience wrapper over
        :meth:`start_retrieve` / :meth:`finish_retrieve`; batched mixed
        workloads go through :class:`~repro.engine.driver.QueryDriver`.
        """
        context = self.start_retrieve(requester_id, provider_id, resource_id,
                                      bandwidth_kbps=bandwidth_kbps)
        self.kernel.run_until_complete([context])
        return self.finish_retrieve(context)

    def finish_retrieve(self, context: RetrieveContext) -> RetrieveResult:
        """Turn a completed retrieve context into a result, or raise.

        Raises the failure recorded during the exchange (e.g. the
        provider had no such object) or :class:`TransferError` when the
        transfer never completed (provider churned offline mid-request,
        requester churned before the response arrived, starvation).
        """
        self.kernel.sync_context(context)
        if not context.finalized:
            context.finalized = True
            if context.succeeded:
                self.stats.record_download(context.transfer_bytes, DownloadRecord(
                    resource_id=context.resource_id,
                    requester=context.requester_id,
                    provider=context.provider_id,
                    bytes=context.transfer_bytes,
                    latency_ms=context.latency_ms,
                    attachments=context.attachments_transferred,
                ))
        if context.error is not None:
            raise context.error
        if context.stored is None:
            raise TransferError(
                f"download of {context.resource_id!r} from {context.provider_id!r} "
                f"did not complete (dropped in flight)"
            )
        return RetrieveResult(
            stored=context.stored,
            provider_id=context.provider_id,
            transfer_bytes=context.transfer_bytes,
            latency_ms=context.latency_ms,
            attachments_transferred=context.attachments_transferred,
        )

    def locate_provider(self, resource_id: str, *,
                        exclude: Union[str, Iterable[str], None] = None) -> Optional[str]:
        """An online peer currently holding ``resource_id``, or ``None``.

        Deterministic: originals are preferred over replicas, ties
        break by peer id.  Used by the mixed-workload driver to resolve
        a download target at submission time, and by download failover
        to pick the next-ranked replica — ``exclude`` takes a single
        peer id or a collection (the requester plus every provider that
        already crashed or stalled out of the transfer).
        """
        excluded = frozenset((exclude,)) if isinstance(exclude, str) \
            else frozenset(exclude or ())
        for holder in self.replicas.holders(resource_id, exclude=excluded):
            peer = self.peers.get(holder)
            if peer is not None and peer.online \
                    and peer.repository.documents.contains(resource_id):
                return holder
        return None

    def replication_degree(self, resource_id: str, *, online_only: bool = False) -> int:
        """How many peers hold a copy of ``resource_id``."""
        holders = self.replicas.holders(resource_id)
        if not online_only:
            return len(holders)
        return sum(
            1 for holder in holders
            if holder in self.peers and self.peers[holder].online
        )

    # ------------------------------------------------------------------
    # Query-result caching (the ``result_caching`` knob)
    # ------------------------------------------------------------------
    def _peer_cache(self, peer_id: str, *, create: bool = True) -> Optional[QueryResultCache]:
        """The result cache living on ``peer_id`` (flooding peers and
        rendezvous edges cache on the peer itself)."""
        cache = self._peer_caches.get(peer_id)
        if cache is None and create:
            peer = self.peers.get(peer_id)
            if peer is None or not peer.online:
                return None
            cache = QueryResultCache(capacity=self.cache_config.capacity,
                                     ttl_ms=self.cache_config.ttl_ms)
            self._peer_caches[peer_id] = cache
        return cache

    def _context_cache_key(self, context: QueryContext) -> tuple:
        """The context's canonical cache key, computed once per search.

        Keys include ``max_results`` because cached entries hold the
        truncated result set as answered for that room.  With query
        compilation off the plan is compiled here for keying only —
        evaluation still follows the naive path.
        """
        key = context.extra.get("cache_key")
        if key is None:
            plan = context.plan if context.plan is not None else compile_query(context.query)
            # "cache_scope" carries whatever else bounds the search's
            # coverage (gnutella's flood TTL): a shallow search's sparse
            # result set must never answer a deeper repeat.
            key = (plan.cache_key, context.max_results, context.extra.get("cache_scope"))
            context.extra["cache_key"] = key
        return key

    def _promised_results(self, context: QueryContext) -> set[tuple[str, str]]:
        """The ``(provider, resource)`` identities already promised to
        this query — arrived, claimed in flight, or held locally by the
        origin (the lazy seed).  Every caching-mode generation site
        filters against this set and registers what it claims, so no
        identity is ever promised twice."""
        seen = context.extra.get("seen_results")
        if seen is None:
            seen = {(result.provider_id, result.resource_id)
                    for result in context.results}
            context.extra["seen_results"] = seen
        return seen

    def _count_offline_providers(self, results) -> int:
        """How many of ``results`` name a currently-unreachable provider
        (the stale answers a cached serving can contain)."""
        peers = self.peers
        return sum(
            1 for result in results
            if (peer := peers.get(result.provider_id)) is None or not peer.online
        )

    def _serve_cached_locally(self, context: QueryContext, entry: CacheEntry) -> None:
        """Answer the search from a cache co-located with the origin:
        results append directly, no message is sent, and the query
        quiesces with zero latency — the cache's entire point."""
        seen = self._promised_results(context)
        served = []
        for result in entry.results:
            if len(context.results) >= context.max_results:
                break
            identity = (result.provider_id, result.resource_id)
            if identity in seen:
                continue
            seen.add(identity)
            context.add_result(result)
            served.append(result)
        self.kernel.note_result_claims(
            context, tuple((result.provider_id, result.resource_id)
                           for result in served))
        context.extra["cache_hit"] = True
        self.stats.record_cache_hit(stale_results=self._count_offline_providers(served))

    def _send_cached_hit(self, sender_id: str, context: QueryContext, cached: CacheEntry,
                         *, message_id: str, copies: int = 1,
                         reply_when_empty: bool = False) -> None:
        """Serve a cached result set as one QUERY-HIT back to the origin.

        The shared serving path of every remote cache site (the index
        server, a flooding path peer, an entry super-peer): slice to
        the context's room, account the hit (counting results whose
        provider has since departed as stale), claim the room and send
        the hit with the elapsed forward-path latency.  An empty served
        set sends nothing unless ``reply_when_empty`` — the centralized
        server always answers, a flood peer stays silent.

        Cached results already promised to the origin — its own local
        answers, an earlier serving, a direct hit claimed in flight —
        are filtered *before* the room is claimed, and the served ones
        are registered in turn: claiming room for a result that never
        lands (or lands twice) would starve other answerers below
        ``max_results``."""
        seen = self._promised_results(context)
        fresh = [result for result in cached.results
                 if (result.provider_id, result.resource_id) not in seen]
        served = fresh[: context.room()]
        self.stats.record_cache_hit(stale_results=self._count_offline_providers(served))
        context.extra["remote_cache_served"] = True
        if not served and not reply_when_empty:
            return
        seen.update((result.provider_id, result.resource_id) for result in served)
        self.kernel.note_result_claims(
            context, tuple((result.provider_id, result.resource_id)
                           for result in served))
        context.claim(len(served))
        metadata_bytes = (cached.metadata_bytes if len(served) == len(cached.results)
                          else sum(result.metadata_bytes() for result in served))
        hit = query_hit_message(sender_id, context.origin_id, result_count=len(served),
                                metadata_bytes=metadata_bytes, message_id=message_id)
        hit.carried_results = tuple(served)
        self.kernel.send(hit, context=context, copies=copies,
                         latency_ms=self.simulator.now - context.started_at)

    def _store_response_at(self, cache: Optional[QueryResultCache], context: QueryContext,
                           response: SearchResponse, *,
                           lease_ms: Optional[float] = None) -> None:
        """Fill ``cache`` with a finished response (the shared body of
        the per-protocol ``_cache_store`` hooks)."""
        if cache is None:
            return
        results = tuple(response.results)
        metadata_bytes = sum(result.metadata_bytes() for result in results)
        cache.put(self._context_cache_key(context), results, metadata_bytes,
                  self.simulator.now, lease_ms=lease_ms)

    def _cache_store(self, context: QueryContext, response: SearchResponse) -> None:
        """Subclass hook: store a finished response at this protocol's
        cache site (the base class caches nowhere)."""

    def _parallel_serve_probe(self, message: Message,
                              context: Optional[QueryContext],
                              at_ms: float) -> bool:
        """Would delivering this queued QUERY serve from a shard-plane
        cache site?  (Process-parallel exactness hook — see
        ``engine/parallel.py``.)

        A cached serving filters against the context's promised-result
        registry, which is instantaneous-global in a serial run but
        replicates one barrier late across workers; the parallel runner
        therefore isolates each predicted serving in its own window so
        every prior claim has replicated before it executes.  The
        prediction must never miss a real serving (caches only *lose*
        validity mid-window — puts happen at replicated finish paths),
        while over-predicting merely truncates a window, which is
        always safe.  The base class has no shard-plane cache sites."""
        return False

    def _iter_caches(self):
        """Every live cache site (subclasses add non-peer sites)."""
        yield from self._peer_caches.values()

    def _ensure_cache_sweep(self) -> None:
        # Expired entries are also rejected lazily at lookup; the
        # recurring sweep (one TTL period) just bounds memory and keeps
        # the expiration counters honest.
        if self._cache_sweep_timer is None or self._cache_sweep_timer.cancelled:
            # detlint: ignore[KERN001] -- sweeps every cache site in one pass
            # (peer caches plus subclass sites), so it is control-plane work
            # with no single home shard.
            self._cache_sweep_timer = self.kernel.every(
                self.cache_config.ttl_ms, self._cache_sweep)

    def _cache_sweep(self) -> None:
        now = self.simulator.now
        for cache in self._iter_caches():
            cache.sweep(now)

    # ------------------------------------------------------------------
    # Reliable delivery (ACK + capped exponential backoff + timeout)
    # ------------------------------------------------------------------
    def send_reliable(self, message: Message, *,
                      context: Optional[ExchangeContext] = None) -> None:
        """Send ``message``, retransmitting until acknowledged.

        With ``reliable_delivery`` off this is a plain ``kernel.send``
        (the pinned default).  On, the message is marked for
        acknowledgement, parked in the pending-ACK table and
        retransmitted on a capped exponential backoff until its ACK
        arrives or ``retry_max_attempts`` sends are exhausted.  Only
        traffic that semantically needs delivery goes through here —
        REGISTER / JOIN / AD-RENEW / LEAF-ATTACH and DOWNLOAD-REQUEST;
        floods and heartbeats stay best-effort by design.
        """
        if not self.reliable_delivery:
            self.kernel.send(message, context=context)
            return
        message.ack_to = message.sender
        entry = _PendingAck(message=message, context=context)
        self._pending_acks[message.message_id] = entry
        if context is not None:
            # The envelope holds a pending token: a dropped request's
            # arrival-time bookkeeping must not complete the exchange
            # while a retransmission may still extend it.
            context.pending += 1
        self.kernel.send(message, context=context)
        self._arm_retry(entry)

    def _retry_timeout_for(self, attempt: int) -> float:
        """Capped exponential backoff: 1x, 2x, 4x, ... up to 8x."""
        return self.reliability_config.retry_timeout_ms * min(2.0 ** attempt, 8.0)

    def _arm_retry(self, entry: _PendingAck) -> None:
        # post_keyed declares the retry timer's shard affinity (the
        # sender's home shard) and enqueues directly there, bypassing
        # the cross-shard outbox — so a short timeout never violates
        # the sharded kernel's conservative lookahead window.
        self.simulator.post_keyed(
            entry.message.sender, self._retry_timeout_for(entry.attempt),
            self._check_reliable, entry.message.message_id, entry.attempt)

    def _check_reliable(self, message_id: str, attempt: int) -> None:
        """One retry timer firing: retransmit, give up, or stand down."""
        entry = self._pending_acks.get(message_id)
        if entry is None or entry.attempt != attempt:
            return  # acked meanwhile, or a newer attempt armed its own timer
        sender = entry.message.sender
        peer = self.peers.get(sender)
        if (peer is None or not peer.online) and sender not in self.kernel.virtual_nodes:
            # The sender crashed or churned offline: nobody is left to
            # retransmit.  Settle quietly — this is the sender's death,
            # not a delivery timeout.
            self._settle_reliable(message_id, entry)
            return
        if entry.attempt + 1 >= self.reliability_config.retry_max_attempts:
            self.stats.record_timeout()
            self._settle_reliable(message_id, entry)
            return
        entry.attempt += 1
        self.stats.record_retry()
        self.kernel.send(entry.message, context=entry.context)
        self._arm_retry(entry)

    def _settle_reliable(self, message_id: str, entry: _PendingAck) -> None:
        del self._pending_acks[message_id]
        if entry.context is not None:
            self.kernel.release(entry.context)

    def _on_ack(self, peer: Optional[Peer], message: Message, context) -> None:
        """The sender's ACK arrival: resolve the pending envelope.

        Idempotent under duplication — a retransmitted original
        produces multiple ACKs carrying the same message id, and every
        one after the first finds the table entry already gone.
        """
        entry = self._pending_acks.pop(message.message_id, None)
        if entry is None:
            return
        if entry.context is not None:
            self.kernel.release(entry.context)

    def _fault_crash(self, peer_id: str) -> None:
        """A crash-stop failure from the fault plan: the peer goes
        offline permanently (never rescheduled), exactly like an
        ungraceful churn departure."""
        peer = self.peers.get(peer_id)
        if peer is None or not peer.online:
            return
        self.depart(peer_id, graceful=False)

    # ------------------------------------------------------------------
    # Chunked downloads: stall detection and replica failover
    # ------------------------------------------------------------------
    def _chunk_sizes(self, payload_bytes: int) -> tuple:
        chunk_bytes = self.reliability_config.download_chunk_bytes
        assert chunk_bytes is not None
        total = max(1, math.ceil(payload_bytes / chunk_bytes))
        return tuple([chunk_bytes] * (total - 1)
                     + [payload_bytes - chunk_bytes * (total - 1)])

    def _begin_chunked_serve(self, peer: Peer, stored: StoredObject,
                             context: RetrieveContext) -> None:
        """The provider streams the whole object as paced chunk emissions.

        Unlike the legacy single-response path — which schedules every
        delivery up front, so a provider crash mid-transfer changes
        nothing — each chunk is emitted by its own event that checks
        the provider is still online.  A crash-stop between chunks
        therefore strands the rest of the stream, which is exactly what
        the requester's stall watchdog exists to notice.

        Attachments stream *first* (each one chunked like the document)
        and the document chunks come last: the assembled object rides
        the very final chunk, so ``context.stored`` is only set once
        everything arrived and a stall at *any* point is recoverable by
        the watchdog's full restart against a surviving replica.
        """
        sizes = self._chunk_sizes(len(stored.to_xml_text().encode("utf-8")))
        uris = tuple(uri for uri in stored.metadata.get("__attachments__", [])
                     if peer.repository.attachments.has(uri))
        if uris:
            self._emit_attachment(peer.peer_id, stored, uris, sizes, 0, 0,
                                  context, False)
        else:
            self._emit_chunk(peer.peer_id, stored, sizes, 0, context, False)

    def _stream_live(self, provider_id: str, context: RetrieveContext) -> bool:
        """Is this emission chain still the download's active stream?"""
        peer = self.peers.get(provider_id)
        if peer is None or not peer.online:
            return False  # crash-stop mid-transfer: the rest never leaves
        if context.done or context.stored is not None \
                or context.provider_id != provider_id:
            return False  # completed meanwhile, or the requester failed over
        return True

    def _emit_chunk(self, provider_id: str, stored: StoredObject,
                    sizes: tuple, index: int, context: RetrieveContext,
                    holds_token: bool) -> None:
        """Emit document chunk ``index`` and schedule the next emission.

        Scheduled emissions hold a pending token on the context so the
        exchange cannot complete between two chunks; the token is
        released here whatever path the emission takes.
        """
        try:
            if not self._stream_live(provider_id, context):
                return
            size = sizes[index]
            total = len(sizes)
            latency = self.simulator.transfer_time(
                provider_id, context.requester_id, size,
                bandwidth_kbps=context.bandwidth_kbps)
            chunk = download_chunk(provider_id, context.requester_id,
                                   context.resource_id, index=index, total=total,
                                   size_bytes=size,
                                   payload_object=stored if index == total - 1 else None)
            self.kernel.send(chunk, context=context, latency_ms=latency)
            if index + 1 < total:
                transmission = latency - self.simulator.link_latency(
                    provider_id, context.requester_id)
                context.pending += 1
                self.simulator.post_keyed(provider_id, transmission, self._emit_chunk,
                                          provider_id, stored, sizes, index + 1,
                                          context, True)
        finally:
            if holds_token:
                self.kernel.release(context)

    def _emit_attachment(self, provider_id: str, stored: StoredObject,
                         uris: tuple, doc_sizes: tuple, uri_index: int,
                         chunk_index: int, context: RetrieveContext,
                         holds_token: bool) -> None:
        """Emit one chunk of one attachment, paced like the doc stream.

        After the last chunk of the last attachment the chain hands
        over to :meth:`_emit_chunk` for the document itself.
        """
        try:
            if not self._stream_live(provider_id, context):
                return
            peer = self.peers[provider_id]
            uri = uris[uri_index]
            transmission = 0.0
            last_of_attachment = True
            if peer.repository.attachments.has(uri):
                attachment = peer.repository.attachments.serve(uri)
                sizes = self._chunk_sizes(attachment.size_bytes)
                size = sizes[chunk_index]
                last_of_attachment = chunk_index + 1 >= len(sizes)
                latency = self.simulator.transfer_time(
                    provider_id, context.requester_id, size,
                    bandwidth_kbps=context.bandwidth_kbps)
                transfer = attachment_transfer(
                    provider_id, context.requester_id, context.resource_id,
                    uri=uri, size_bytes=size,
                    payload_object=attachment if last_of_attachment else None,
                    chunk_index=chunk_index, chunk_total=len(sizes))
                self.kernel.send(transfer, context=context, latency_ms=latency)
                transmission = latency - self.simulator.link_latency(
                    provider_id, context.requester_id)
            context.pending += 1
            if not last_of_attachment:
                self.simulator.post_keyed(provider_id, transmission,
                                          self._emit_attachment, provider_id,
                                          stored, uris, doc_sizes, uri_index,
                                          chunk_index + 1, context, True)
            elif uri_index + 1 < len(uris):
                self.simulator.post_keyed(provider_id, transmission,
                                          self._emit_attachment, provider_id,
                                          stored, uris, doc_sizes, uri_index + 1,
                                          0, context, True)
            else:
                self.simulator.post_keyed(provider_id, transmission,
                                          self._emit_chunk, provider_id, stored,
                                          doc_sizes, 0, context, True)
        finally:
            if holds_token:
                self.kernel.release(context)

    def _download_progress(self, context: RetrieveContext) -> tuple:
        """The watchdog's progress mark: any arrival moves it.

        Bytes (not chunk ordinals) are the primary signal so progress
        during the attachment phase — when ``chunks_received`` is still
        empty — keeps the watchdog quiet.
        """
        return (context.transfer_bytes, len(context.chunks_received),
                context.provider_id, context.provider_attempts)

    def _arm_download_watchdog(self, context: RetrieveContext) -> None:
        # Keyed to the requester: the watchdog is the requester's own
        # timer, so it runs on the requester's home shard and stays
        # lookahead-safe at any timeout value.
        self.simulator.post_keyed(
            context.requester_id, self.reliability_config.download_stall_timeout_ms,
            self._check_download, context, self._download_progress(context))

    def _check_download(self, context: RetrieveContext, progress_then: tuple) -> None:
        """One watchdog firing: re-arm on progress, recover on stall."""
        if context.done or context.stored is not None or not context.watchdog_held:
            return
        requester = self.peers.get(context.requester_id)
        if requester is None or not requester.online:
            # Nobody is left to collect the download.
            self._release_watchdog(context)
            return
        if self._download_progress(context) != progress_then:
            self._arm_download_watchdog(context)
            return
        self._recover_download(context)

    def _recover_download(self, context: RetrieveContext) -> None:
        """A stalled transfer: re-request the provider, then fail over.

        A provider that is still online gets ``retry_max_attempts``
        requests in total (the stall may have been a lost request or a
        lost chunk).  A dead or exhausted provider is struck off and
        the download restarts against the next-ranked replica from the
        registry — deterministically, so a mid-transfer crash degrades
        to a slower download instead of a lost one.  With no replica
        left the watchdog stands down and the exchange completes as a
        failed transfer.
        """
        provider = self.peers.get(context.provider_id)
        if provider is not None and provider.online \
                and context.provider_attempts + 1 < self.reliability_config.retry_max_attempts:
            context.provider_attempts += 1
            self.stats.record_retry()
        else:
            context.failed_providers.append(context.provider_id)
            next_provider = self.locate_provider(
                context.resource_id,
                exclude=[context.requester_id, *context.failed_providers])
            if next_provider is None:
                self.stats.record_timeout()
                self._release_watchdog(context)
                return
            self.stats.record_failover()
            context.provider_id = next_provider
            context.provider_attempts = 0
        # Restart the stream: stale partial state is discarded
        # (transfer_bytes keeps accumulating — the wasted wire bytes
        # are an honest cost of the recovery).
        context.error = None
        context.chunks_received.clear()
        context.extra.pop("chunk_payload", None)
        request = download_request(context.requester_id, context.provider_id,
                                   context.resource_id)
        self.send_reliable(request, context=context)
        self._arm_download_watchdog(context)

    def _release_watchdog(self, context: RetrieveContext) -> None:
        if context.watchdog_held:
            context.watchdog_held = False
            self.kernel.release(context)

    # ------------------------------------------------------------------
    # Download message handlers (shared by every protocol)
    # ------------------------------------------------------------------
    def _on_download_request(self, peer: Optional[Peer], message: Message,
                             context) -> None:
        """The provider serves the object: a response event for the
        document plus one transfer event per attachment, each arriving
        after its cumulative transmission time."""
        if peer is None or not isinstance(context, RetrieveContext):
            return
        if peer.peer_id != context.provider_id:
            return  # a late retransmission reached a struck-off provider
        try:
            stored = peer.repository.retrieve(message.resource_id)
        except ObjectNotFoundError as error:
            context.error = error
            return
        if self.reliability_config.download_chunk_bytes is not None:
            if context.extra.get("serving") == (peer.peer_id, context.provider_attempts):
                return  # a duplicated request: this stream is already running
            context.extra["serving"] = (peer.peer_id, context.provider_attempts)
            self._begin_chunked_serve(peer, stored, context)
            return
        payload = len(stored.to_xml_text().encode("utf-8"))
        latency = self.simulator.transfer_time(peer.peer_id, context.requester_id, payload,
                                               bandwidth_kbps=context.bandwidth_kbps)
        response = download_response(peer.peer_id, context.requester_id, message.resource_id,
                                     payload_bytes=payload, message_id=message.message_id,
                                     payload_object=stored)
        self.kernel.send(response, context=context, latency_ms=latency)
        for uri in stored.metadata.get("__attachments__", []):
            if not peer.repository.attachments.has(uri):
                continue
            attachment = peer.repository.attachments.serve(uri)
            latency += self.simulator.transfer_time(peer.peer_id, context.requester_id,
                                                    attachment.size_bytes,
                                                    bandwidth_kbps=context.bandwidth_kbps)
            transfer = attachment_transfer(peer.peer_id, context.requester_id,
                                           message.resource_id, uri=uri,
                                           size_bytes=attachment.size_bytes,
                                           payload_object=attachment)
            self.kernel.send(transfer, context=context, latency_ms=latency)

    def _on_download_response(self, peer: Optional[Peer], message: Message,
                              context) -> None:
        """The requester receives the document (replicating it and
        re-announcing through this protocol's own publish path) or one
        attachment.  A requester that churned offline never gets here —
        the kernel dropped the delivery."""
        if peer is None or not isinstance(context, RetrieveContext):
            return
        if message.attachment_uri:
            if message.chunk_total:
                # A chunk of a streamed attachment: partial chunks only
                # count bytes; the attachment itself rides the final
                # chunk of its stream.
                context.transfer_bytes += message.payload_bytes
                attachment = message.payload_object
                if attachment is None:
                    return
                seen = context.extra.setdefault("attachments_seen", set())
                if message.attachment_uri in seen:
                    return  # a duplicate, or a failover re-serving it
                seen.add(message.attachment_uri)
                peer.repository.attachments.receive(attachment)
                context.attachments_transferred += 1
                return
            attachment = message.payload_object
            if attachment is None:
                return
            if self.faults is not None:
                # Duplicate-tolerance under injected faults: each
                # attachment counts once per download.  (Gated so the
                # pinned faults=None byte accounting stays untouched.)
                seen = context.extra.setdefault("attachments_seen", set())
                if message.attachment_uri in seen:
                    return
                seen.add(message.attachment_uri)
            peer.repository.attachments.receive(attachment)
            context.attachments_transferred += 1
            context.transfer_bytes += attachment.size_bytes
            return
        if message.chunk_total:
            self._on_chunk_arrival(peer, message, context)
            return
        stored = message.payload_object
        if stored is None:
            return
        if context.stored is not None:
            return  # a duplicated response: the document already arrived
        context.transfer_bytes += message.payload_bytes
        self._complete_document(peer, context, stored)

    def _on_chunk_arrival(self, peer: Peer, message: Message,
                          context: RetrieveContext) -> None:
        """One chunk of a chunked download reached the requester."""
        if context.stored is not None:
            return  # the document already completed (a straggler chunk)
        context.transfer_bytes += message.payload_bytes
        if message.chunk_index in context.chunks_received:
            return  # a duplicated delivery: bytes burned, no progress
        context.chunks_received.add(message.chunk_index)
        context.chunk_total = message.chunk_total
        if message.payload_object is not None:
            # The assembled object rides the final chunk; stash it in
            # case faults deliver chunks out of order.
            context.extra["chunk_payload"] = message.payload_object
        if len(context.chunks_received) >= message.chunk_total:
            stored = context.extra.pop("chunk_payload", None)
            if stored is None:
                return  # payload chunk lost; the watchdog will re-request
            self._complete_document(peer, context, stored)

    def _complete_document(self, peer: Peer, context: RetrieveContext,
                           stored: StoredObject) -> None:
        """The document arrived in full: replicate and re-announce it."""
        context.stored = stored
        replica = peer.repository.publish(
            stored.community_id, stored.document, dict(stored.metadata), title=stored.title
        )
        self.replicas.note_replica(replica.resource_id, peer.peer_id,
                                   at_ms=self.simulator.now)
        context.replicated = True
        # The new replica is announced so later searches can find it here.
        self.publish(peer.peer_id, stored.community_id, replica.resource_id,
                     dict(stored.metadata), title=stored.title)
        self._release_watchdog(context)
        # Parallel workers replicate this completion to the rest of the
        # fleet at the next barrier (no-op in serial execution).
        self.kernel.note_document_completed(peer, context, stored)

    def _on_query_hit(self, peer: Optional[Peer], message: Message,
                      context) -> None:
        """Results ride the QUERY-HIT and count only on arrival at an
        online origin: if the origin churned offline while the hit was
        in flight, the kernel dropped the delivery and the promised
        results never existed."""
        if peer is None or not isinstance(context, QueryContext):
            return
        # With caching on, duplicates cannot arrive: every generation
        # site — a cached serving or a direct answerer — filters and
        # registers against the query's promised-identities set at
        # claim time (see ``_promised_results``), so each
        # (provider, resource) is claimed and sent at most once.
        results = message.carried_results
        if self.faults is not None:
            # Injected duplication can replay a QUERY (the answerer
            # responds twice) or a QUERY-HIT (the same hit arrives
            # twice); each (provider, resource) counts once per query.
            # (Gated so the pinned faults=None path stays untouched.)
            seen = context.extra.setdefault("hit_identities", set())
            results = [result for result in results
                       if (result.provider_id, result.resource_id) not in seen]
            seen.update((result.provider_id, result.resource_id)
                        for result in results)
        for result in results:
            if len(context.results) >= context.max_results:
                break
            context.add_result(result)

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------
    def _register_handlers(self, kernel: EventKernel) -> None:
        """Register the shared handlers; subclasses extend via super()."""
        kernel.register(MessageType.DOWNLOAD_REQUEST, self._on_download_request)
        kernel.register(MessageType.DOWNLOAD_RESPONSE, self._on_download_response)
        kernel.register(MessageType.QUERY_HIT, self._on_query_hit)
        kernel.register(MessageType.ACK, self._on_ack)

    def _on_peer_added(self, peer: Peer) -> None:
        """Subclass hook: wire a new peer into the overlay."""

    def _on_peer_removed(self, peer: Peer) -> None:
        """Subclass hook: unwire a removed peer."""

    def _on_peer_departed(self, peer: Peer) -> None:
        """Subclass hook: a peer went offline (churn)."""

    def _on_peer_returned(self, peer: Peer) -> None:
        """Subclass hook: a peer came back online (churn)."""

    # ------------------------------------------------------------------
    # Live-membership hooks (protocol traffic instead of free mutation)
    # ------------------------------------------------------------------
    def _on_peer_joined_live(self, peer: Peer) -> None:
        """Subclass hook: a peer arrived or returned; emit join traffic."""

    def _on_peer_left_live(self, peer: Peer) -> None:
        """Subclass hook: a peer crashed/departed.  Only physically
        observable effects belong here (state held *on* the departed
        node dies with it); everything held *about* it elsewhere must
        persist until repair traffic notices."""

    def _announce_departure_live(self, peer: Peer) -> None:
        """Subclass hook: a graceful goodbye (UNREGISTER/LEAVE traffic)."""

    def _on_maintenance_tick(self, now: float) -> None:
        """Subclass hook: one recurring maintenance round (heartbeats,
        lease renewals, expiry sweeps).  Runs as a kernel event."""

    def _stamp_freshness(self, now: float) -> None:
        """Subclass hook: initialize heartbeat/lease stamps at go-live."""

    # ------------------------------------------------------------------
    def _account(self, message: Message) -> None:
        """Record one message in the statistics."""
        self.stats.record_message(message)

    def describe(self) -> str:
        online = len(self.online_peers())
        return f"{self.protocol_name} network: {online}/{len(self.peers)} peers online"
