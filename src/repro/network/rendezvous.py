"""JXTA-style rendezvous network organisation (paper §VI future work).

The paper proposes JXTA as a future network layer: peers publish
*advertisements* of their shared resources to rendezvous peers, and
queries are resolved by walking the rendezvous overlay.  The adapter
below models the parts that matter for U-P2P:

* a subset of peers act as **rendezvous peers** holding advertisement
  indexes for the edge peers attached to them;
* advertisements carry the object's searchable metadata and **expire**
  after a lease, so edge peers must re-publish periodically (the JXTA
  lease model) — stale objects disappear from search without any
  explicit withdrawal;
* queries go edge → rendezvous and then along a deterministic walk of
  the rendezvous ring (JXTA's rendezvous propagation), stopping early
  once enough results are found.

On the event kernel the walk is a chain of QUERY deliveries: each
rendezvous peer answers from its advertisement index when its copy
arrives, then relays a single copy to the next ring position — unless
enough results have accumulated or the walk budget is spent.  The
relay is the origin's QUERY forwarded (:meth:`Message.forwarded`), so
every step carries the query's descriptor id; its ``ttl`` counts below
zero and nothing reads it — ``walk_limit`` (default: every online
rendezvous) is what bounds the walk.  A rendezvous peer that churns
offline mid-walk drops the chain, ending the walk early, which is
exactly the fragility the lease/renewal model is there to paper over.

The hub catalog (an advertisement is a
:class:`~repro.network.twotier.HubRecord` with a lease) and the
lifecycle shared with the super-peer adapter live in
:mod:`repro.network.twotier`.  This module holds what is the
rendezvous organisation's own: hashed attachment, leases that decay
instead of purges, renewal maintenance, the edge's result cache and
the bounded ring walk instead of a full broadcast.
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Optional

from repro.engine.kernel import EventKernel, QueryContext
from repro.network.base import SearchResponse
from repro.network.config import check_rendezvous_lease
from repro.network.messages import Message, MessageType, query_message
from repro.network.peers import Peer
from repro.network.twotier import HubRecord, TwoTierNetwork
from repro.storage.query import Query


def _expired_by(now: float) -> Callable[[HubRecord], bool]:
    """Selects the advertisements whose lease ran out by ``now``."""
    return lambda record: record.expires_at_ms <= now


class RendezvousProtocol(TwoTierNetwork):
    """A JXTA-flavoured rendezvous/advertisement organisation."""

    protocol_name = "rendezvous"

    def __init__(self, *, rendezvous_ratio: float = 0.15, lease_ms: float = 30 * 60 * 1000.0,
                 walk_limit: Optional[int] = None, **kwargs: Any) -> None:
        super().__init__(hub_ratio=rendezvous_ratio, **kwargs)
        if lease_ms <= 0:
            raise ValueError("the advertisement lease must be positive")
        self.lease_ms = lease_ms
        self.walk_limit = walk_limit
        #: live-membership renewal clocks: peer id -> virtual time it
        #: last re-advertised its objects
        self._last_renewed: dict[str, float] = {}

    def go_live(self) -> None:
        check_rendezvous_lease(self.lease_ms, self.membership_config)
        super().go_live()

    # ------------------------------------------------------------------
    # Role assignment
    # ------------------------------------------------------------------
    def elect_rendezvous(self, count: Optional[int] = None) -> list[str]:
        """Promote peers to rendezvous and attach every edge peer."""
        return self._elect(count)

    def _choose_hub(self, peer: Peer,
                    online_hubs: Optional[list[str]] = None) -> Optional[str]:
        # Deterministic assignment: a stable hash of the peer id picks
        # the rendezvous (crc32, not the salted builtin hash, so runs
        # agree across processes and CI).
        online = self._online_hubs() if online_hubs is None else online_hubs
        if not online:
            return None
        return online[zlib.crc32(peer.peer_id.encode("utf-8")) % len(online)]

    def _attach(self, peer: Peer, online_hubs: Optional[list[str]] = None) -> None:
        peer.super_peer_id = hub_id = self._choose_hub(peer, online_hubs)
        if hub_id is not None:
            self._hubs[hub_id].members.add(peer.peer_id)

    def _insert(self, hub_id: str, provider_id: str, community_id: str,
                resource_id: str, metadata: dict[str, list[str]], title: str,
                metadata_bytes: int) -> None:
        """(Re)insert an advertisement whose lease starts now."""
        self._hubs[hub_id].insert(provider_id, community_id, resource_id, metadata, title,
                                  metadata_bytes,
                                  expires_at_ms=self.simulator.now + self.lease_ms)

    # ------------------------------------------------------------------
    # Live membership: edges renew their advertisements on a timer (the
    # JXTA lease model as standing traffic), leases expire in recurring
    # sweeps instead of being pulled at search time, and an edge whose
    # rendezvous died re-homes — and re-advertises everything — at its
    # next renewal tick, which is the organic repair path.
    # ------------------------------------------------------------------
    def _live_attach(self, peer: Peer) -> Optional[str]:
        hub_id = super()._live_attach(peer)
        if hub_id is not None:
            self._upload_all(peer, hub_id, renew=True)
            self._last_renewed[peer.peer_id] = self.simulator.now
        return hub_id

    def _promote(self, peer: Peer) -> None:
        super()._promote(peer)
        self._last_renewed[peer.peer_id] = self.simulator.now

    def _on_maintenance_tick(self, now: float) -> None:
        renew_after = self.lease_ms / 2
        expired = _expired_by(now)
        for peer_id in sorted(self.peers):
            peer = self.peers[peer_id]
            if not peer.online:
                continue
            hub = self._hubs.get(peer_id)
            if hub is not None:
                # A rendezvous peer renews its *own* ads in place (it
                # holds its own index: no wire cost, like self-publish)
                # before sweeping — otherwise they would expire too.
                if now - self._last_renewed.get(peer_id, 0.0) >= renew_after:
                    for record in hub.records.values():
                        if record.provider_id == peer_id:
                            record.expires_at_ms = now + self.lease_ms
                    self._last_renewed[peer_id] = now
                # The sweep pays the staleness window for ads whose
                # provider already departed.
                for record in hub.remove_where(expired):
                    self._note_staleness(record.provider_id, now)
                continue
            rendezvous_id = peer.super_peer_id
            if rendezvous_id is None or rendezvous_id not in self._hubs:
                # The edge's rendezvous is gone: re-home and repair.
                self._live_attach(peer)
            elif now - self._last_renewed.get(peer_id, 0.0) >= renew_after:
                # Lease renewal: re-ship every shared object's advertisement.
                self._upload_all(peer, rendezvous_id, renew=True)
                self._last_renewed[peer_id] = now

    def _stamp_freshness(self, now: float) -> None:
        self._last_renewed = {peer_id: now for peer_id in sorted(self.peers)}

    # ------------------------------------------------------------------
    # Primitives
    # ------------------------------------------------------------------
    def publish(self, peer_id: str, community_id: str, resource_id: str,
                metadata: dict[str, list[str]], *, title: str = "") -> None:
        """Publish an advertisement with a lease to the peer's rendezvous."""
        cache = self.caches.sites.get(peer_id)
        if cache is not None:
            # The publisher's own cached answers predate the new object;
            # other edges' caches are bounded by the TTL/lease instead.
            cache.bump_version()
        self._publish(peer_id, community_id, resource_id, metadata, title)

    def expire_advertisements(self) -> int:
        """Drop expired advertisements everywhere; returns how many died."""
        expired = _expired_by(self.simulator.now)
        # (Off mode this runs before every search: at population scale
        # most rendezvous peers hold no advertisement and are skipped.)
        return sum(len(hub.remove_where(expired)) for hub in self._hubs.values()
                   if hub.records)

    def advertisement_count(self) -> int:
        """Live advertisements across all rendezvous peers."""
        return sum(len(hub.records) for hub in self._hubs.values())

    def start_search(self, origin_id: str, query: Query, *, max_results: int = 100,
                     **kwargs: Any) -> QueryContext:
        origin = self._require_peer(origin_id)
        if not self._hubs and not self.live_membership:
            self._elect(None)
        if not self.live_membership:
            # Off-mode lease handling is a pull at search time; in live
            # mode expiry happens only in the recurring sweep, so a
            # search between sweeps can still see (and pay for) stale
            # advertisements.
            self.expire_advertisements()
        context = self.new_context(
            origin_id, query, max_results=max_results,
            query_id=query.query_id or f"rdv-{self.next_query_number()}",
        )
        if self.result_caching:
            cached = self.caches.lookup(origin_id, context, create=True)
            if cached is not None:
                # The edge re-asked a query whose walk it recently paid
                # for: the cached set returns with zero messages.
                self.caches.serve_locally(context, cached)
                self.kernel.finish_if_idle(context)
                return context
        self._answer_locally(origin, context)

        entry = origin_id if origin_id in self._hubs else origin.super_peer_id
        if entry is None or entry not in self._hubs:
            if self.live_membership:
                # An orphaned edge answers locally only until its next
                # renewal tick re-homes it.
                entry = None
            else:
                self._attach(origin)
                entry = origin.super_peer_id
        if entry is None:
            self.kernel.finish_if_idle(context)
            return context

        # The walk order is fixed at submission: the ring of online
        # rendezvous peers, rotated to start at the entry point.
        ring = self._online_hubs()
        if entry in ring:
            start = ring.index(entry)
            ordered = ring[start:] + ring[:start]
        else:
            ordered = ring
        limit = self.walk_limit if self.walk_limit is not None else len(ordered)
        walk = ordered[:limit]
        context.extra["walk"] = walk
        if not walk:
            self.kernel.finish_if_idle(context)
            return context

        hop_to_entry = 0 if origin_id in self._hubs else 1
        context.extra["hop_to_entry"] = hop_to_entry
        # The query's descriptor; every walk step relays a copy of it.
        message = query_message(origin_id, walk[0], context.plan.wire_xml,
                                community_id=query.community_id,
                                payload_bytes=context.plan.wire_bytes,
                                message_id=context.extra["query_id"])
        message.hops = hop_to_entry
        if hop_to_entry:
            self.kernel.send(message, context=context)
        else:
            # The origin IS the entry rendezvous: it takes the first step.
            self._answer_at_rendezvous(origin, message, context)
        self.kernel.finish_if_idle(context)
        return context

    # ------------------------------------------------------------------
    # Message handlers
    # ------------------------------------------------------------------
    def _register_handlers(self, kernel: EventKernel) -> None:
        super()._register_handlers(kernel)
        kernel.register(MessageType.QUERY, self._on_query)
        kernel.register(MessageType.AD_RENEW, self._on_upload)

    def _on_query(self, peer: Optional[Peer], message: Message,
                  context: Optional[QueryContext]) -> None:
        if peer is None or context is None:
            return
        self._answer_at_rendezvous(peer, message, context)

    def _answer_at_rendezvous(self, peer: Peer, message: Message,
                              context: QueryContext) -> None:
        """One walk step: answer ``message``, the QUERY as it reached
        this rendezvous, then relay it to the next.

        The room the results will occupy is claimed as the hit is sent,
        so the walk stops at the same point it would if hits were
        instantaneous.  The relay keeps the descriptor id; its ``ttl``
        is not read — ``walk_limit`` bounds the walk."""
        hops = message.hops
        context.peers_probed += 1
        hub = self._hubs.get(peer.peer_id)
        if hub is not None:
            results, metadata_bytes = hub.take(context, self.peers, hops)
            if results:
                self._send_hit(peer.peer_id, context, results, metadata_bytes,
                               message_id=f"rdv-{len(self.stats.queries)}")
        walk: list[str] = context.extra["walk"]
        position = hops - context.extra.get("hop_to_entry", 0)
        if context.room() <= 0 or position + 1 >= len(walk):
            return
        self.kernel.send(message.forwarded(peer.peer_id, walk[position + 1]),
                         context=context)

    def _cache_store(self, context: QueryContext, response: SearchResponse) -> None:
        """The origin edge caches its finished response.  Entry lifetime
        is additionally capped at one advertisement lease from the fill:
        an advertisement serving the response had at most that much
        life left, so a cached answer can outlive any individual ad by
        at most one lease period (within the TTL bound as always)."""
        self.caches.store(context.origin_id, context, response.results,
                          lease_ms=self.lease_ms)
