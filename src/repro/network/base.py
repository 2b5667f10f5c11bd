"""The abstract peer-network interface.

The paper's future-work section proposes modelling "the peer-to-peer
layer as providing a generic interface with primitives for create,
search and retrieve".  :class:`PeerNetwork` is exactly that interface;
the four protocol adapters implement it, and the U-P2P core is written
against it only — which is the protocol-independence property the
experiments test.

``PeerNetwork`` itself owns the peer lifecycle (with the hooks that are
the adapter contract), the search contexts and ``finish_search``, and
fault installation.  The mechanisms every organisation shares are
collaborators it composes, each built from its frozen group of
:mod:`repro.network.config` and owning its own state:

* ``channel`` — :class:`~repro.network.reliable.ReliableChannel`, the
  pending-ACK table and retry timers;
* ``downloads`` — :class:`~repro.network.transfer.DownloadManager`, both
  ends of the retrieve primitive, chunk streaming, stall watchdog and
  replica failover;
* ``caches`` — :class:`~repro.network.result_cache.ResultCacheLayer`,
  every result-cache site plus the shared serving paths.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from repro.engine.kernel import EventKernel, QueryContext, RetrieveContext
from repro.network.config import (
    HEARTBEAT_LEASE_INTERVALS,
    CacheConfig,
    MembershipConfig,
    ReliabilityConfig,
    RoutingConfig,
    check_composition,
)
from repro.network.errors import DuplicatePeerError, PeerOfflineError, UnknownPeerError
from repro.network.faults import FaultModel, FaultPlan, build_fault_model
from repro.network.messages import (
    Message,
    MessageType,
    ad_renew_message,
    query_hit_message,
    register_message,
)
from repro.network.peers import Peer
from repro.network.reliable import ReliableChannel
from repro.network.result_cache import ResultCacheLayer
from repro.network.simulator import NetworkSimulator
from repro.network.stats import NetworkStats, QueryRecord
from repro.network.transfer import DownloadManager, RetrieveResult
from repro.storage.document_store import StoredObject, metadata_wire_bytes
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
    #: ``metadata_wire_bytes(metadata)``, when the builder already knows it
    wire_bytes: int = field(default=-1, compare=False, repr=False)

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
            wire_bytes=stored.metadata_wire_bytes(),
        )

    def metadata_bytes(self) -> int:
        """Approximate wire size of the carried metadata."""
        if self.wire_bytes >= 0:
            return self.wire_bytes
        return metadata_wire_bytes(self.metadata)


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

    def distinct_resources(self) -> set[str]:
        return {result.resource_id for result in self.results}


class PeerNetwork(ABC):
    """Common behaviour of all network organisations.

    Mechanism knobs arrive as the four frozen groups of
    :mod:`repro.network.config` (``cache=``, ``membership=``,
    ``reliability=``, ``routing=``); parameters are read from
    ``self.cache_config`` etc. and by the collaborator each group
    builds (``channel``, ``downloads``, ``caches``).  Only the on/off
    flags handlers branch on per delivered message are plain
    attributes, and ``live_membership`` is runtime state flipped by
    :meth:`go_live`.
    """

    protocol_name = "abstract"

    def __init__(self, *, seed: int = 0, shards: int = 1, parallel: bool = False,
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
        reliability = reliability or ReliabilityConfig()
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
            self.simulator = WorkerSimulator(runtime, seed=seed, shards=shards)
            self.stats = WorkerStats(runtime)
            self.peers: dict[str, Peer] = {}
            self.kernel = WorkerKernel(runtime, simulator=self.simulator,
                                       peers=self.peers, stats=self.stats)
            self.kernel.bind_network(self)
        else:
            if shards > 1:
                from repro.engine.sharded import ShardedSimulator
                self.simulator = ShardedSimulator(seed=seed, shards=shards)
            else:
                self.simulator = NetworkSimulator(seed=seed)
            self.stats = NetworkStats()
            self.peers = {}
            self.kernel = EventKernel(simulator=self.simulator, peers=self.peers,
                                      stats=self.stats)
        self.replicas = ReplicaRegistry()
        #: peers that left for good (:meth:`depart`, a fault-plan crash):
        #: :meth:`set_online` never brings one back, so a permanent
        #: departure sticks whatever churn return is still queued
        self.gone: set[str] = set()
        #: the online peers in insertion order (see :meth:`online_peers`);
        #: ``None`` until read again after an online transition
        self._online: Optional[list[Peer]] = None
        #: the on/off flags handlers branch on per delivered message
        #: (documented on the groups); off is pinned bit-identical to
        #: the mechanism's absence
        self.live_membership = membership.live
        self.result_caching = cache.enabled
        self.informed_routing = routing.informed
        self.channel = ReliableChannel(self.kernel, reliability)
        self.downloads = DownloadManager(self.kernel, reliability, channel=self.channel,
                                         replicas=self.replicas, announce=self.publish)
        self.caches = ResultCacheLayer(self.kernel, cache)
        self._maintenance_timer = None
        self._query_sequence = itertools.count(1)
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

    def _fault_crash(self, peer_id: str) -> None:
        """A crash-stop failure from the fault plan: the peer goes
        offline permanently (:meth:`depart`) — and stays gone even if
        it was already offline (a churn absence then never ends)."""
        if peer_id in self.peers:
            self.depart(peer_id)

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
        if peer.online and self._online is not None:
            self._online.append(peer)
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
        traffic.  A peer that is :attr:`gone` is never brought back
        online: the call is a no-op.
        """
        peer = self._require_peer(peer_id, allow_offline=True)
        if peer.online == online or (online and peer_id in self.gone):
            return
        self._online = None
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
            # is off because the site table stays empty).
            self.caches.drop(peer.peer_id)
            if self.live_membership:
                self._on_peer_left_live(peer)
            else:
                self._on_peer_departed(peer)

    def depart(self, peer_id: str) -> None:
        """Take a peer offline permanently: it joins :attr:`gone`, even
        when it is offline already, so it never comes back.  Nobody is
        told: with live membership on, the state others hold about the
        peer goes stale until their leases lapse, exactly like a crash.
        """
        peer = self._require_peer(peer_id, allow_offline=True)
        self.gone.add(peer_id)
        if peer.online:
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
        return self.membership_config.maintenance_interval_ms * HEARTBEAT_LEASE_INTERVALS

    def _ensure_maintenance(self) -> None:
        # Re-arm after kernel.cancel_timers() too, so going live again
        # after a paused run actually resumes heartbeats and sweeps.
        if self._maintenance_timer is None or self._maintenance_timer.cancelled:
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
        """The online peers in insertion order, kept as an index:
        :meth:`add_peer` extends it and :meth:`set_online`, the only
        other writer of ``Peer.online``, drops it for one rescan at the
        next read.  Callers must not mutate it."""
        online = self._online
        if online is None:
            online = self._online = [peer for peer in self.peers.values() if peer.online]
        return online

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

    def new_context(self, origin_id: str, query: Query, *, max_results: int,
                    query_id: str = "") -> QueryContext:
        """A fresh context stamped with the current virtual time.

        Creating it compiles the query, once per search: every protocol
        handler that evaluates it downstream, and every hop's QUERY
        message, reuses ``context.plan``.
        """
        context = QueryContext(
            query=query,
            origin_id=origin_id,
            max_results=max_results,
            started_at=self.simulator.now,
        )
        if query_id:
            context.extra["query_id"] = query_id
        if self.result_caching:
            self.caches.ensure_sweep()
        return context

    def start_retrieve(self, requester_id: str, provider_id: str, resource_id: str,
                       *, bandwidth_kbps: float = 512.0) -> RetrieveContext:
        """Inject a download into the event kernel and return its context
        (:meth:`repro.network.transfer.DownloadManager.start`)."""
        self._require_peer(requester_id)
        self._require_peer(provider_id)
        return self.downloads.start(requester_id, provider_id, resource_id,
                                    bandwidth_kbps=bandwidth_kbps)

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
        """Turn a completed retrieve context into a result, or raise the
        failure recorded during the exchange."""
        return self.downloads.finish(context)

    def locate_provider(self, resource_id: str, *,
                        exclude: Union[str, Iterable[str], None] = None) -> Optional[str]:
        """An online peer currently holding ``resource_id``, or ``None``
        (deterministic: originals before replicas, ties by peer id;
        ``exclude`` takes one peer id or a collection)."""
        return self.downloads.locate_provider(resource_id, exclude=exclude)

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
    # Helpers shared by the adapters
    # ------------------------------------------------------------------
    def _answer_locally(self, origin: Peer, context: QueryContext) -> None:
        """Open a search at its origin: answer from the origin's own
        index — no messages."""
        for stored in origin.repository.search(context.plan)[:context.max_results]:
            context.add_result(SearchResult.from_stored(origin.peer_id, stored, hops=0))

    def _send_hit(self, sender_id: str, context: QueryContext, results,
                  metadata_bytes: int, *, message_id: str, hops: int = 0) -> None:
        """Ship ``results`` to the origin as one QUERY-HIT.

        Results ride the hit and count only on arrival at the origin;
        the room they will occupy is claimed here, so concurrent
        answerers never promise more than ``max_results`` between them.
        A hit that travels ``hops`` hops back along the reverse path
        costs one message per hop (at least one) and arrives after the
        same latency the query spent getting to the sender.
        """
        context.claim(len(results))
        hit = query_hit_message(sender_id, context.origin_id, result_count=len(results),
                                metadata_bytes=metadata_bytes, message_id=message_id)
        hit.carried_results = tuple(results)
        self.kernel.send(hit, context=context, copies=max(1, hops),
                         latency_ms=self.simulator.now - context.started_at)

    def _upload(self, peer_id: str, hub_id: str, community_id: str, resource_id: str,
                metadata: dict[str, list[str]], title: str, *,
                renew: bool = False) -> None:
        """Reliably ship one object's searchable metadata to the index
        point ``hub_id`` (a REGISTER, or an AD-RENEW when ``renew``).

        The record lands when the message *arrives* — the recipient's
        handler inserts it — and a lost upload makes the object
        invisible, which is why this traffic is retried under faults.
        """
        build = ad_renew_message if renew else register_message
        self.channel.send(build(
            peer_id, hub_id, community_id=community_id, resource_id=resource_id,
            metadata_bytes=metadata_wire_bytes(metadata),
            payload_object=(dict(metadata), title)))

    def _upload_all(self, peer: Peer, hub_id: str, *, renew: bool = False) -> None:
        """Re-upload everything ``peer`` shares (a join, a re-attachment
        or a lease renewal pays the full upload)."""
        for stored in peer.repository.documents:
            self._upload(peer.peer_id, hub_id, stored.community_id, stored.resource_id,
                         stored.metadata, stored.title, renew=renew)

    def _account_registration(self, peer_id: str, hub_id: str, community_id: str,
                              resource_id: str, metadata_bytes: int) -> None:
        """Off mode a registration mutates the index point instantly and
        for free, but still counts as one REGISTER on the wire."""
        self.stats.record_message(register_message(
            peer_id, hub_id, community_id=community_id, resource_id=resource_id,
            metadata_bytes=metadata_bytes))
        self.stats.record_registration()

    def _cache_store(self, context: QueryContext, response: SearchResponse) -> None:
        """Subclass hook: store a finished response at this protocol's
        cache site (the base class caches nowhere)."""

    def _parallel_serve_probe(self, message: Message, recipient: str,
                              context: Optional[QueryContext],
                              at_ms: float) -> bool:
        """Would delivering this queued QUERY to ``recipient`` serve from
        a shard-plane cache site?  (Process-parallel exactness hook — see
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
        # claim time (see ``ResultCacheLayer.promised``), so each
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
        """Register the shared handlers (each collaborator registers its
        own); subclasses extend via super()."""
        kernel.register(MessageType.QUERY_HIT, self._on_query_hit)

    def _on_peer_added(self, peer: Peer) -> None:
        """Subclass hook: wire a new peer into the overlay."""

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

    def _on_maintenance_tick(self, now: float) -> None:
        """Subclass hook: one recurring maintenance round (heartbeats,
        lease renewals, expiry sweeps).  Runs as a kernel event."""

    def _stamp_freshness(self, now: float) -> None:
        """Subclass hook: initialize heartbeat/lease stamps at go-live."""
