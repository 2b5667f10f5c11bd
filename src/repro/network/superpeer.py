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

The hub catalog and the lifecycle shared with the rendezvous adapter
live in :mod:`repro.network.twotier`.  This module holds what is the
super-peer organisation's own: least-loaded attachment, purge on
detach, leaf heartbeats with a lease, the entry super-peer's result
cache and the relay broadcast.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.engine.kernel import EventKernel, ExchangeContext, QueryContext
from repro.network.base import SearchResponse
from repro.network.messages import (
    Message,
    MessageType,
    ping_message,
    pong_message,
    query_message,
)
from repro.network.peers import Peer
from repro.network.twotier import HubCatalog, TwoTierNetwork
from repro.storage.query import Query

#: leaves a super-peer takes before attachment prefers a less loaded one
MAX_LEAVES = 50


class SuperPeerProtocol(TwoTierNetwork):
    """Two-tier super-peer / leaf organisation."""

    protocol_name = "super-peer"

    def __init__(self, *, super_peer_ratio: float = 0.1, **kwargs: Any) -> None:
        super().__init__(hub_ratio=super_peer_ratio, **kwargs)

    # ------------------------------------------------------------------
    # Role assignment and attachment
    # ------------------------------------------------------------------
    def elect_super_peers(self, count: Optional[int] = None) -> list[str]:
        """Promote ``count`` peers (default: ratio of population) to super-peers
        and (re)attach every leaf to the least-loaded online super-peer."""
        return self._elect(count)

    def _choose_hub(self, peer: Peer, online_hubs: Optional[list[str]] = None, *,
                    cap: Optional[int] = None) -> Optional[str]:
        """The least-loaded online super-peer (ties by id).  With a
        ``cap``, supers below it are preferred; when everything is full
        the globally least loaded takes the leaf anyway."""
        hubs = self._online_hubs() if online_hubs is None else online_hubs
        if cap is not None:
            hubs = [hub_id for hub_id in hubs
                    if len(self._hubs[hub_id].members) < cap] or hubs
        return min(hubs, key=lambda hub_id: (len(self._hubs[hub_id].members), hub_id),
                   default=None)

    def _attach(self, leaf: Peer, online_hubs: Optional[list[str]] = None) -> None:
        hub_id = self._choose_hub(leaf, online_hubs, cap=MAX_LEAVES)
        if hub_id is None:
            leaf.super_peer_id = None
            return
        previous = leaf.super_peer_id
        if previous and previous in self._hubs:
            self._purge_leaf(previous, leaf.peer_id)
        leaf.super_peer_id = hub_id
        self._hubs[hub_id].members.add(leaf.peer_id)
        # The leaf re-uploads its metadata to its new super-peer.
        for stored in leaf.repository.documents:
            self._register(leaf.peer_id, hub_id, stored.community_id, stored.resource_id,
                           stored.metadata, stored.title)

    def _detach(self, peer: Peer, hub_id: str) -> None:
        self._purge_leaf(hub_id, peer.peer_id)

    def _drop_hub(self, hub_id: str) -> Optional[HubCatalog]:
        # The entry cache is part of the super's hub state: it dies
        # with the role even when the peer itself stays up (demotion).
        self.caches.drop(hub_id)
        return super()._drop_hub(hub_id)

    def _purge_leaf(self, hub_id: str, leaf_id: str, *,
                    now: Optional[float] = None) -> None:
        """Drop one leaf and its records from a super's soft state.
        With ``now`` given, the purge is a staleness repair and the
        window since the leaf's departure is recorded."""
        hub = self._hubs[hub_id]
        hub.members.discard(leaf_id)
        hub.last_heard.pop(leaf_id, None)
        cache = self.caches.sites.get(hub_id)
        if cache is not None:
            # The super learned this leaf is gone (a detach or its
            # heartbeat lease lapsing): cached answers naming it die at
            # the same moment its records do, so a stale cached hit
            # never outlives the membership staleness window here.
            cache.invalidate_provider(leaf_id)
        removed = hub.remove_where(lambda record: record.provider_id == leaf_id)
        if now is not None:
            for _record in removed:
                self._note_staleness(leaf_id, now)

    def _insert(self, hub_id: str, provider_id: str, community_id: str,
                resource_id: str, metadata: dict[str, list[str]], title: str,
                metadata_bytes: int) -> None:
        cache = self.caches.sites.get(hub_id)
        if cache is not None:
            # A registration arriving is the invalidation traffic: the
            # super's catalog version moves, stale cached answers drop.
            cache.bump_version()
        self._hubs[hub_id].insert(provider_id, community_id, resource_id, metadata, title,
                                  metadata_bytes)

    # ------------------------------------------------------------------
    # Live membership: leaves heartbeat their super each tick and
    # re-home themselves (promoting a replacement super when none
    # remain) only once the heartbeat lease lapses.  A super's record
    # of a departed leaf persists — stale — until the leaf's silence
    # exceeds the lease.
    # ------------------------------------------------------------------
    def _live_attach(self, peer: Peer) -> Optional[str]:
        hub_id = super()._live_attach(peer)
        if hub_id is not None:
            # Grace stamp: trust the new super until the first heartbeat
            # round has had a chance to be answered.
            peer.last_pong_ms[hub_id] = self.simulator.now
            self._upload_all(peer, hub_id)
        return hub_id

    def _on_maintenance_tick(self, now: float) -> None:
        lease = self.heartbeat_lease_ms
        for peer_id in sorted(self.peers):
            peer = self.peers[peer_id]
            if not peer.online:
                continue
            hub = self._hubs.get(peer_id)
            if hub is not None:
                for leaf_id in sorted(hub.members):
                    if hub.last_heard.get(leaf_id, 0.0) <= now - lease:
                        self._purge_leaf(peer_id, leaf_id, now=now)
                continue
            super_id = peer.super_peer_id
            if super_id is None or super_id not in self._hubs \
                    or peer.last_pong_ms.get(super_id, 0.0) <= now - lease:
                # The super went silent (or was never reachable): re-home.
                self._live_attach(peer)
            else:
                self.kernel.send(ping_message(peer_id, super_id))

    def _stamp_freshness(self, now: float) -> None:
        for hub in self._hubs.values():
            hub.last_heard = {leaf_id: now for leaf_id in sorted(hub.members)}
        for peer in self.peers.values():
            if peer.peer_id not in self._hubs and peer.super_peer_id is not None:
                peer.last_pong_ms[peer.super_peer_id] = now

    # ------------------------------------------------------------------
    # Live-membership handlers
    # ------------------------------------------------------------------
    def _on_ping(self, peer: Optional[Peer], message: Message,
                 context: Optional[ExchangeContext]) -> None:
        """A leaf heartbeat.  A recipient that is no super any more
        stays silent, so the leaf's lease lapses and it re-homes."""
        if peer is None or peer.peer_id not in self._hubs:
            return
        self._hubs[peer.peer_id].last_heard[message.sender] = self.simulator.now
        self.kernel.send(pong_message(peer.peer_id, message.sender,
                                      message_id=message.message_id))

    def _on_pong(self, peer: Optional[Peer], message: Message,
                 context: Optional[ExchangeContext]) -> None:
        if peer is not None:
            peer.last_pong_ms[message.sender] = self.simulator.now

    # ------------------------------------------------------------------
    # Primitives
    # ------------------------------------------------------------------
    def publish(self, peer_id: str, community_id: str, resource_id: str,
                metadata: dict[str, list[str]], *, title: str = "") -> None:
        self._publish(peer_id, community_id, resource_id, metadata, title)

    def start_search(self, origin_id: str, query: Query, *, max_results: int = 100,
                     **kwargs: Any) -> QueryContext:
        origin = self._require_peer(origin_id)
        if not self._hubs and not self.live_membership:
            self._elect(None)
        context = self.new_context(
            origin_id, query, max_results=max_results,
            query_id=query.query_id or f"sp-{self.next_query_number()}",
        )
        # Local index is always consulted first.
        self._answer_locally(origin, context)

        entry = origin_id if origin_id in self._hubs else origin.super_peer_id
        if entry is None and not self.live_membership:
            self._attach(origin)
            entry = origin.super_peer_id
        context.extra["entry"] = entry
        if entry is None:
            # Live mode: an orphaned leaf answers locally only, until
            # its own maintenance heartbeat re-homes it.
            self.kernel.finish_if_idle(context)
            return context

        # The query's descriptor; the relay broadcast forwards copies of it.
        message = query_message(origin_id, entry, context.plan.wire_xml,
                                community_id=query.community_id,
                                payload_bytes=context.plan.wire_bytes,
                                message_id=context.extra["query_id"])
        if origin_id in self._hubs:
            # The origin IS the entry super-peer: answer and relay now
            # (no hop travelled, nothing sent to get here).
            self._answer_at_super(self.peers[entry], message, context)
        else:
            # The entry may be a dead super the origin has not noticed
            # yet (live mode): the kernel drops the delivery and the
            # query quiesces with local results only.
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
        kernel.register(MessageType.PING, self._on_ping)
        kernel.register(MessageType.PONG, self._on_pong)

    def _on_query(self, peer: Optional[Peer], message: Message,
                  context: Optional[QueryContext]) -> None:
        if peer is None or context is None:
            return
        if self.live_membership and peer.peer_id not in self._hubs:
            # The leaf's believed super was demoted while the query was
            # in flight: the message is lost, like any stale-state cost.
            return
        self._answer_at_super(peer, message, context)

    def _answer_at_super(self, super_peer: Peer, message: Message,
                         context: QueryContext) -> None:
        """Answer ``message``, the QUERY as it reached this super-peer,
        from its aggregated index; the entry super-peer additionally
        relays to every other online super-peer."""
        super_id = super_peer.peer_id
        hops = message.hops
        at_entry = super_id == context.extra.get("entry")
        context.peers_probed += 1
        if self.result_caching and at_entry:
            # The entry super is where this organisation's repeats
            # concentrate (its leaf fan-in): a cached answer serves the
            # whole network's result set and skips the relay broadcast —
            # the organisation's per-query cost — altogether.
            cached = self.caches.lookup(super_id, context)
            if cached is not None:
                if super_id == context.origin_id:
                    # A super-peer origin answers itself directly.
                    self.caches.serve_locally(context, cached)
                    return
                message_id = f"spc-{self.next_query_number()}"
                served, served_bytes = self.caches.take(context, cached)
                if served:
                    self._send_hit(super_id, context, served, served_bytes,
                                   message_id=message_id, hops=hops)
                return
        hub = self._hubs.get(super_id)
        if hub is not None:
            results, metadata_bytes = hub.take(context, self.peers, hops)
            if results:
                self._send_hit(super_id, context, results, metadata_bytes,
                               message_id=f"sp-{len(self.stats.queries)}", hops=hops)
        if at_entry:
            self.kernel.send_many(
                message, super_id,
                [other_id for other_id in self._online_hubs() if other_id != super_id],
                context=context)

    def _cache_store(self, context: QueryContext, response: SearchResponse) -> None:
        """The finished response fills the entry super-peer's cache, the
        fan-in point every leaf behind it shares."""
        entry = context.extra.get("entry")
        if entry is not None and entry in self._hubs:
            self.caches.store(entry, context, response.results)

    def _parallel_serve_probe(self, message: Message, recipient: str,
                              context: Optional[QueryContext], at_ms: float) -> bool:
        """A queued QUERY serves from the entry super-peer's cache iff
        it targets the context's entry and the entry holds a live entry
        (the branch ``_answer_at_super`` takes, read side-effect free)."""
        if not self.result_caching or context is None:
            return False
        if message.type is not MessageType.QUERY:
            return False
        if recipient != context.extra.get("entry"):
            return False
        return self.caches.would_serve(recipient, context, at_ms)
