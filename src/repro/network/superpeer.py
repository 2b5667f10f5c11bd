"""FastTrack-style super-peer network organisation.

A fraction of well-connected peers are promoted to *super-peers*.  Leaf
peers attach to one super-peer and upload the searchable metadata of
their shared objects to it (exactly what FastTrack and later Gnutella
ultrapeers did).  A query travels from the leaf to its super-peer and
is then relayed only among super-peers, each of which answers from its
aggregated index — far fewer messages than full flooding while keeping
much better coverage than a TTL-limited flood.

On the event kernel the leaf's QUERY is delivered to its entry
super-peer after one link latency; the entry answers from its own
aggregated index and relays one copy to every other online super-peer,
each of which answers independently as its copy arrives.  A super-peer
that churns offline while a relay is in flight simply never answers —
no special-casing, the dropped delivery is the failure model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.engine.kernel import EventKernel, QueryContext
from repro.engine.local import local_matches
from repro.network.base import PeerNetwork, SearchResult
from repro.network.messages import (
    Message,
    MessageType,
    leaf_attach_message,
    leaf_detach_message,
    metadata_wire_bytes,
    ping_message,
    pong_message,
    query_hit_message,
    query_message,
    register_message,
)
from repro.network.peers import Peer
from repro.storage.cache import QueryResultCache
from repro.storage.index import AttributeIndex
from repro.storage.interning import intern_view
from repro.storage.query import Query


@dataclass
class _SuperPeerState:
    """Index and bookkeeping one super-peer maintains for its leaves."""

    index: AttributeIndex = field(default_factory=AttributeIndex)
    records: dict[str, tuple[str, str, dict[str, tuple[str, ...]], str, int]] = \
        field(default_factory=dict)
    # replica key -> (community_id, title, metadata view, provider_id,
    # metadata wire bytes).  The tuple-valued metadata view and its byte
    # count are built once at registration, so answering a query shares
    # them with every generated SearchResult instead of re-copying.
    leaves: set[str] = field(default_factory=set)
    #: live-membership soft state: leaf id -> virtual time its last
    #: heartbeat (PING / LEAF-ATTACH / REGISTER) arrived here
    last_heard: dict[str, float] = field(default_factory=dict)
    #: this super-peer's result cache (``result_caching`` mode): it
    #: lives in the super's RAM and dies with the state on departure
    cache: Optional[QueryResultCache] = None


class SuperPeerProtocol(PeerNetwork):
    """Two-tier super-peer / leaf organisation."""

    protocol_name = "super-peer"

    def __init__(self, *, super_peer_ratio: float = 0.1, max_leaves: int = 50, **kwargs) -> None:
        super().__init__(**kwargs)
        if not 0.0 < super_peer_ratio <= 1.0:
            raise ValueError("super_peer_ratio must be in (0, 1]")
        self.super_peer_ratio = super_peer_ratio
        self.max_leaves = max_leaves
        self._states: dict[str, _SuperPeerState] = {}

    # ------------------------------------------------------------------
    # Role assignment and attachment
    # ------------------------------------------------------------------
    def elect_super_peers(self, count: Optional[int] = None) -> list[str]:
        """Promote ``count`` peers (default: ratio of population) to super-peers
        and (re)attach every leaf to the least-loaded online super-peer."""
        online = self.online_peers()
        if not online:
            return []
        if count is None:
            count = max(1, round(len(online) * self.super_peer_ratio))
        count = min(count, len(online))
        # Stable election: lowest peer ids become super-peers, which keeps
        # experiments deterministic across runs.
        chosen = sorted(online, key=lambda peer: peer.peer_id)[:count]
        chosen_ids = {peer.peer_id for peer in chosen}
        for peer in self.peers.values():
            peer.is_super_peer = peer.peer_id in chosen_ids
            if peer.is_super_peer:
                peer.super_peer_id = peer.peer_id
                self._states.setdefault(peer.peer_id, _SuperPeerState())
        for super_id in list(self._states):
            if super_id not in chosen_ids:
                del self._states[super_id]
        for peer in self.online_peers():
            if not peer.is_super_peer:
                self._attach_leaf(peer)
        return sorted(chosen_ids)

    def _attach_leaf(self, leaf: Peer) -> None:
        candidates = [
            (len(state.leaves), super_id)
            for super_id, state in self._states.items()
            if self.peers[super_id].online and len(state.leaves) < self.max_leaves
        ]
        if not candidates:
            # Everything full: attach to the globally least loaded anyway.
            candidates = [
                (len(state.leaves), super_id)
                for super_id, state in self._states.items()
                if self.peers[super_id].online
            ]
        if not candidates:
            leaf.super_peer_id = None
            return
        _, super_id = min(candidates)
        previous = leaf.super_peer_id
        if previous and previous in self._states:
            self._detach_leaf(leaf, previous)
        leaf.super_peer_id = super_id
        state = self._states[super_id]
        state.leaves.add(leaf.peer_id)
        # The leaf re-uploads its metadata to its new super-peer.
        for stored in leaf.repository.documents:
            self._register(leaf.peer_id, super_id, stored.community_id, stored.resource_id,
                           stored.metadata, stored.title)

    def _detach_leaf(self, leaf: Peer, super_id: str) -> None:
        state = self._states.get(super_id)
        if state is None:
            return
        state.leaves.discard(leaf.peer_id)
        if state.cache is not None:
            state.cache.invalidate_provider(leaf.peer_id)
        for resource_id in [rid for rid, record in state.records.items() if record[3] == leaf.peer_id]:
            state.index.remove(resource_id)
            del state.records[resource_id]

    # ------------------------------------------------------------------
    # Churn hooks
    # ------------------------------------------------------------------
    def _on_peer_departed(self, peer: Peer) -> None:
        if peer.is_super_peer:
            # Sorted, not raw set order: orphans re-attach least-loaded
            # first-come, so the iteration order decides the new
            # leaf->super map.  Raw set[str] order varies with the
            # per-process string-hash salt (PYTHONHASHSEED), which made
            # super-peer churn runs irreproducible across processes.
            orphans = sorted(self._states.get(peer.peer_id, _SuperPeerState()).leaves)
            self._states.pop(peer.peer_id, None)
            peer.is_super_peer = False
            for orphan_id in orphans:
                orphan = self.peers.get(orphan_id)
                if orphan is not None and orphan.online:
                    self._attach_leaf(orphan)
        elif peer.super_peer_id:
            self._detach_leaf(peer, peer.super_peer_id)

    def _on_peer_returned(self, peer: Peer) -> None:
        if not self._states:
            self.elect_super_peers()
            return
        self._attach_leaf(peer)

    def _on_peer_removed(self, peer: Peer) -> None:
        self._on_peer_departed(peer)

    # ------------------------------------------------------------------
    # Live membership: leaves attach with LEAF-ATTACH + REGISTER
    # traffic, heartbeat their super each tick, and re-home themselves
    # (promoting a replacement super when none remain) only once the
    # heartbeat lease lapses.  A super's record of a departed leaf
    # persists — stale — until the leaf's silence exceeds the lease.
    # ------------------------------------------------------------------
    def _on_peer_joined_live(self, peer: Peer) -> None:
        peer.is_super_peer = False
        peer.super_peer_id = None
        self._live_attach(peer)

    def _on_peer_left_live(self, peer: Peer) -> None:
        if peer.is_super_peer:
            # The aggregated index lived in the departed super's RAM and
            # dies with it; its leaves only find out through heartbeats.
            self._states.pop(peer.peer_id, None)
            peer.is_super_peer = False

    def _announce_departure_live(self, peer: Peer) -> None:
        if not peer.is_super_peer and peer.super_peer_id is not None:
            self.kernel.send(leaf_detach_message(peer.peer_id, peer.super_peer_id))

    def _live_attach(self, peer: Peer) -> None:
        """Attach ``peer`` as a leaf (or promote it when no super is
        reachable), paying the attach + full metadata re-upload."""
        now = self.simulator.now
        candidates = sorted(super_id for super_id in self._states
                            if super_id in self.peers and self.peers[super_id].online)
        if not candidates:
            self._promote_super(peer)
            return
        target = min(candidates,
                     key=lambda super_id: (len(self._states[super_id].leaves), super_id))
        peer.super_peer_id = target
        # Grace stamp: trust the new super until the first heartbeat
        # round has had a chance to be answered.
        peer.last_pong_ms[target] = now
        # Attachment and the metadata re-upload are the leaf's whole
        # searchability — reliable delivery retries them under faults.
        self.send_reliable(leaf_attach_message(peer.peer_id, target))
        for stored in peer.repository.documents:
            metadata = stored.metadata
            metadata_bytes = metadata_wire_bytes(metadata)
            self.send_reliable(register_message(
                peer.peer_id, target, community_id=stored.community_id,
                resource_id=stored.resource_id, metadata_bytes=metadata_bytes,
                payload_object=(dict(metadata), stored.title)))

    def _promote_super(self, peer: Peer) -> None:
        """Deterministic promotion: the peer that found no reachable
        super becomes one itself (maintenance iterates peers in sorted
        order, so the lowest-id orphan promotes first)."""
        peer.is_super_peer = True
        peer.super_peer_id = peer.peer_id
        self._states.setdefault(peer.peer_id, _SuperPeerState())
        for stored in peer.repository.documents:
            metadata = stored.metadata
            metadata_bytes = metadata_wire_bytes(metadata)
            self._insert_record(peer.peer_id, peer.peer_id, stored.community_id,
                                stored.resource_id, metadata, stored.title,
                                metadata_bytes)

    def _purge_leaf(self, state: _SuperPeerState, leaf_id: str, *,
                    now: Optional[float] = None) -> None:
        """Drop one leaf and its records from a super's soft state.
        With ``now`` given, the purge is a staleness repair and the
        window since the leaf's departure is recorded."""
        state.leaves.discard(leaf_id)
        state.last_heard.pop(leaf_id, None)
        if state.cache is not None:
            # The super learned this leaf is gone (a graceful LEAF-DETACH
            # or its heartbeat lease lapsing): cached answers naming it
            # die at the same moment its records do, so a stale cached
            # hit never outlives the membership staleness window here.
            state.cache.invalidate_provider(leaf_id)
        stale_keys = [key for key, record in state.records.items()
                      if record[3] == leaf_id]
        for key in stale_keys:
            if now is not None:
                self._note_staleness(leaf_id, now)
            state.index.remove(key)
            del state.records[key]

    def _on_maintenance_tick(self, now: float) -> None:
        lease = self.heartbeat_lease_ms
        for peer_id in sorted(self.peers):
            peer = self.peers[peer_id]
            if not peer.online:
                continue
            if peer.is_super_peer:
                state = self._states.get(peer_id)
                if state is None:
                    continue
                for leaf_id in sorted(state.leaves):
                    if state.last_heard.get(leaf_id, 0.0) <= now - lease:
                        self._purge_leaf(state, leaf_id, now=now)
                continue
            super_id = peer.super_peer_id
            if super_id is None or super_id not in self._states \
                    or peer.last_pong_ms.get(super_id, 0.0) <= now - lease:
                # The super went silent (or was never reachable): re-home.
                self._live_attach(peer)
            else:
                self.kernel.send(ping_message(peer_id, super_id))

    def _stamp_freshness(self, now: float) -> None:
        for state in self._states.values():
            state.last_heard = {leaf_id: now for leaf_id in sorted(state.leaves)}
        for peer in self.peers.values():
            if not peer.is_super_peer and peer.super_peer_id is not None:
                peer.last_pong_ms[peer.super_peer_id] = now

    # ------------------------------------------------------------------
    # Live-membership handlers
    # ------------------------------------------------------------------
    def _on_register(self, peer: Optional[Peer], message: Message, context) -> None:
        """A metadata upload arrived.  If the recipient stopped being a
        super in the meantime the upload is simply lost — the sender's
        heartbeats will eventually notice and re-home it."""
        if peer is None or message.payload_object is None:
            return
        state = self._states.get(peer.peer_id)
        if state is None:
            return
        metadata, title = message.payload_object
        self.stats.record_registration()
        self._insert_record(message.sender, peer.peer_id, message.community_id,
                            message.resource_id, metadata, title,
                            message.payload_bytes)
        state.last_heard[message.sender] = self.simulator.now

    def _on_leaf_attach(self, peer: Optional[Peer], message: Message, context) -> None:
        if peer is None:
            return
        state = self._states.get(peer.peer_id)
        if state is None:
            return
        state.leaves.add(message.sender)
        state.last_heard[message.sender] = self.simulator.now

    def _on_leaf_detach(self, peer: Optional[Peer], message: Message, context) -> None:
        if peer is None:
            return
        state = self._states.get(peer.peer_id)
        if state is not None:
            self._purge_leaf(state, message.sender)

    def _on_ping(self, peer: Optional[Peer], message: Message, context) -> None:
        """A leaf heartbeat.  A recipient that is no super any more
        stays silent, so the leaf's lease lapses and it re-homes."""
        if peer is None:
            return
        state = self._states.get(peer.peer_id)
        if state is None:
            return
        state.last_heard[message.sender] = self.simulator.now
        self.kernel.send(pong_message(peer.peer_id, message.sender,
                                      message_id=message.message_id))

    def _on_pong(self, peer: Optional[Peer], message: Message, context) -> None:
        if peer is not None:
            peer.last_pong_ms[message.sender] = self.simulator.now

    # ------------------------------------------------------------------
    # Primitives
    # ------------------------------------------------------------------
    def publish(self, peer_id: str, community_id: str, resource_id: str,
                metadata: dict[str, list[str]], *, title: str = "") -> None:
        peer = self._require_peer(peer_id)
        self.replicas.note_original(resource_id, peer_id, at_ms=self.simulator.now)
        if self.live_membership:
            self._publish_live(peer, community_id, resource_id, metadata, title)
            return
        if not self._states:
            self.elect_super_peers()
        target = peer.peer_id if peer.is_super_peer else peer.super_peer_id
        if target is None:
            self._attach_leaf(peer)
            target = peer.super_peer_id
        if target is None:
            return
        self._register(peer_id, target, community_id, resource_id, metadata, title,
                       count_message=not peer.is_super_peer)

    def _publish_live(self, peer: Peer, community_id: str, resource_id: str,
                      metadata: dict[str, list[str]], title: str) -> None:
        """Live publication: a super-peer indexes its own object for
        free; a leaf ships a REGISTER that lands when it lands.  An
        orphaned leaf (its super died, repair has not run yet) shares
        nothing — the next re-attachment re-uploads everything."""
        metadata_bytes = metadata_wire_bytes(metadata)
        if peer.is_super_peer and peer.peer_id in self._states:
            self._insert_record(peer.peer_id, peer.peer_id, community_id,
                                resource_id, metadata, title, metadata_bytes)
            return
        target = peer.super_peer_id
        if target is None:
            return
        self.send_reliable(register_message(
            peer.peer_id, target, community_id=community_id,
            resource_id=resource_id, metadata_bytes=metadata_bytes,
            payload_object=(dict(metadata), title)))

    def _register(self, peer_id: str, super_id: str, community_id: str, resource_id: str,
                  metadata: dict[str, list[str]], title: str, *, count_message: bool = True) -> None:
        metadata_bytes = metadata_wire_bytes(metadata)
        if count_message and peer_id != super_id:
            message = register_message(peer_id, super_id, community_id=community_id,
                                       resource_id=resource_id, metadata_bytes=metadata_bytes)
            self._account(message)
            self.stats.record_registration()
        self._insert_record(peer_id, super_id, community_id, resource_id,
                            metadata, title, metadata_bytes)

    def _insert_record(self, peer_id: str, super_id: str, community_id: str,
                       resource_id: str, metadata: dict[str, list[str]],
                       title: str, metadata_bytes: int) -> None:
        state = self._states.setdefault(super_id, _SuperPeerState())
        if state.cache is not None:
            # A registration arriving is the invalidation traffic: the
            # super's catalog version moves, stale cached answers drop.
            state.cache.bump_version()
        replica_key = f"{resource_id}@{peer_id}"
        view = intern_view(metadata)
        state.records[replica_key] = (community_id, title, view, peer_id, metadata_bytes)
        state.index.add(community_id, replica_key, metadata)

    def _state_cache(self, state: _SuperPeerState, *, create: bool = True
                     ) -> Optional[QueryResultCache]:
        if not self.result_caching:
            return None
        if state.cache is None and create:
            state.cache = QueryResultCache(capacity=self.cache_config.capacity,
                                           ttl_ms=self.cache_config.ttl_ms)
        return state.cache

    def _iter_caches(self):
        yield from super()._iter_caches()
        for state in self._states.values():
            if state.cache is not None:
                yield state.cache

    # ------------------------------------------------------------------
    def start_search(self, origin_id: str, query: Query, *, max_results: int = 100,
                     **kwargs) -> QueryContext:
        origin = self._require_peer(origin_id)
        if not self._states and not self.live_membership:
            self.elect_super_peers()
        context = self.new_context(
            origin_id, query, max_results=max_results,
            query_id=query.query_id or f"sp-{self.next_query_number()}",
        )
        wire_xml, wire_bytes = self.wire_form(query, context.plan)
        context.extra["query_xml"] = wire_xml
        context.extra["query_bytes"] = wire_bytes

        # Local index is always consulted first.
        for stored in local_matches(origin.repository, query, plan=context.plan,
                                    limit=max_results):
            context.add_result(SearchResult.from_stored(origin_id, stored, hops=0))

        entry = origin.peer_id if origin.is_super_peer else origin.super_peer_id
        if entry is None and not self.live_membership:
            self._attach_leaf(origin)
            entry = origin.super_peer_id
        context.extra["entry"] = entry
        if entry is None:
            # Live mode: an orphaned leaf answers locally only, until
            # its own maintenance heartbeat re-homes it.
            self.kernel.finish_if_idle(context)
            return context

        if origin.is_super_peer:
            # The origin IS the entry super-peer: answer and relay now.
            self._answer_at_super(self.peers[entry], hops=0, context=context)
        else:
            # The entry may be a dead super the origin has not noticed
            # yet (live mode): the kernel drops the delivery and the
            # query quiesces with local results only.
            message = query_message(origin_id, entry, wire_xml,
                                    community_id=query.community_id,
                                    payload_bytes=wire_bytes)
            message.hops = 1
            self.kernel.send(message, context=context)
        self.kernel.finish_if_idle(context)
        return context

    # ------------------------------------------------------------------
    # Message handlers
    # ------------------------------------------------------------------
    def _register_handlers(self, kernel: EventKernel) -> None:
        super()._register_handlers(kernel)
        kernel.register(MessageType.QUERY, self._on_query)
        kernel.register(MessageType.REGISTER, self._on_register)
        kernel.register(MessageType.LEAF_ATTACH, self._on_leaf_attach)
        kernel.register(MessageType.LEAF_DETACH, self._on_leaf_detach)
        kernel.register(MessageType.PING, self._on_ping)
        kernel.register(MessageType.PONG, self._on_pong)

    def _on_query(self, peer: Optional[Peer], message: Message,
                  context: Optional[QueryContext]) -> None:
        if peer is None or context is None:
            return
        if self.live_membership and peer.peer_id not in self._states:
            # The leaf's believed super was demoted while the query was
            # in flight: the message is lost, like any stale-state cost.
            return
        self._answer_at_super(peer, hops=message.hops, context=context)

    def _answer_at_super(self, super_peer: Peer, *, hops: int, context: QueryContext) -> None:
        """Answer from one super-peer's aggregated index; the entry
        super-peer additionally relays to every other online super-peer.
        Results ride the QUERY-HIT and count only on arrival at the
        origin; the room they will occupy is claimed here."""
        super_id = super_peer.peer_id
        context.peers_probed += 1
        if self.result_caching and super_id == context.extra.get("entry"):
            # The entry super is where this organisation's repeats
            # concentrate (its leaf fan-in): a cached answer serves the
            # whole network's result set and skips the relay broadcast.
            state = self._states.get(super_id)
            cached = (state.cache.get(self._context_cache_key(context), self.simulator.now)
                      if state is not None and state.cache is not None else None)
            if cached is not None:
                self._serve_cached_at_entry(super_peer, hops, context, cached)
                return
            self.stats.record_cache_miss()
        results: list[SearchResult] = []
        metadata_bytes = 0
        room = context.room()
        for resource_id, community_id, title, view, provider_id, record_bytes in \
                self._matches_at(super_id, context):
            if len(results) >= room:
                break
            provider = self.peers.get(provider_id)
            if provider is None or not provider.online or provider_id == context.origin_id:
                continue
            result = SearchResult(
                provider_id=provider_id,
                resource_id=resource_id,
                community_id=community_id,
                title=title,
                metadata=view,
                hops=hops + 1,
            )
            results.append(result)
            metadata_bytes += record_bytes
        if results:
            context.claim(len(results))
            # One hit message per hop of the reverse path (at least one).
            hit = query_hit_message(super_id, context.origin_id, result_count=len(results),
                                    metadata_bytes=metadata_bytes,
                                    message_id=f"sp-{len(self.stats.queries)}")
            hit.carried_results = tuple(results)
            self.kernel.send(hit, context=context, copies=hops or 1,
                             latency_ms=self.simulator.now - context.started_at)
        if super_id == context.extra.get("entry"):
            query_xml = context.extra["query_xml"]
            query_bytes = context.extra["query_bytes"]
            for other_id in sorted(self._states):
                if other_id == super_id:
                    continue
                other = self.peers.get(other_id)
                if other is None or not other.online:
                    continue
                relay = query_message(super_id, other_id, query_xml,
                                      community_id=context.query.community_id,
                                      payload_bytes=query_bytes)
                relay.hops = hops + 1
                self.kernel.send(relay, context=context)

    def _serve_cached_at_entry(self, super_peer: Peer, hops: int,
                               context: QueryContext, cached) -> None:
        """Serve a cached result set from the entry super-peer.

        A super-peer origin answers itself directly (no message); a
        leaf origin gets one QUERY-HIT back.  Either way the relay to
        the other super-peers — the organisation's per-query broadcast
        cost — never happens."""
        if super_peer.peer_id == context.origin_id:
            self._serve_cached_locally(context, cached)
            return
        self._send_cached_hit(super_peer.peer_id, context, cached,
                              message_id=f"spc-{self.next_query_number()}",
                              copies=hops or 1)

    def _cache_store(self, context: QueryContext, response) -> None:
        """The finished response fills the entry super-peer's cache, the
        fan-in point every leaf behind it shares."""
        entry = context.extra.get("entry")
        if entry is None:
            return
        state = self._states.get(entry)
        entry_peer = self.peers.get(entry)
        if state is None or entry_peer is None or not entry_peer.online:
            return
        self._store_response_at(self._state_cache(state), context, response)

    def _parallel_serve_probe(self, message: Message, context, at_ms: float) -> bool:
        """A queued QUERY serves from the entry super-peer's cache iff
        it targets the context's entry and the entry holds a live entry
        (the branch ``_answer_at_super`` takes, read side-effect free)."""
        if not self.result_caching or context is None:
            return False
        if message.type is not MessageType.QUERY:
            return False
        if message.recipient != context.extra.get("entry"):
            return False
        state = self._states.get(message.recipient)
        if state is None or state.cache is None:
            return False
        return state.cache.peek(self._context_cache_key(context), at_ms) is not None

    # ------------------------------------------------------------------
    def _matches_at(
        self, super_id: str, context: QueryContext
    ) -> list[tuple[str, str, str, dict[str, tuple[str, ...]], str, int]]:
        """Matching records at one super-peer.

        Returns tuples ``(resource_id, community_id, title, metadata
        view, provider_id, metadata bytes)``.  The aggregated index keys
        replicas as ``"<resource_id>@<provider>"`` so the same object
        shared by two leaves stays distinguishable; the bare id is
        recovered here.  Evaluation goes through the context's compiled
        plan when one exists.
        """
        state = self._states.get(super_id)
        if state is None:
            return []
        evaluator = context.plan if context.plan is not None else context.query
        if evaluator.is_empty:
            keys = sorted(key for key, record in state.records.items()
                          if record[0] == evaluator.community_id)
        else:
            keys = sorted(evaluator.evaluate(state.index))
        matches = []
        for key in keys:
            record = state.records.get(key)
            if record is None:
                continue
            community_id, title, view, provider_id, record_bytes = record
            bare_id = key.rsplit("@", 1)[0]
            matches.append((bare_id, community_id, title, view, provider_id, record_bytes))
        return matches

    def super_peer_ids(self) -> list[str]:
        return sorted(self._states)

    def leaves_of(self, super_id: str) -> set[str]:
        state = self._states.get(super_id)
        return set(state.leaves) if state else set()
