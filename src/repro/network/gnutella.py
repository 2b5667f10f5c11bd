"""Gnutella-style flooding network organisation.

Queries are flooded along the overlay with a TTL and duplicate
suppression; every peer evaluates the query against its own local
index and routes hits back along the reverse path, exactly the
Gnutella 0.4 behaviour the paper refers to.  Publishing costs no
messages (objects stay local until somebody downloads them), which is
the trade-off against the centralized organisation that experiment E3
quantifies.

The flood is executed on the event kernel: the origin hands one QUERY
message per neighbour to the kernel; each delivery at a not-yet-visited
peer evaluates the query locally (attribute-index intersection),
schedules a QUERY-HIT back along the reverse path, and re-floods to its
own neighbours, except the one that delivered it, with the TTL
decremented.  Deliveries at peers that already saw the query — or that
churned offline while the message is in flight — are dropped, which is
how duplicate suppression and mid-query churn fall out of the message
model instead of being special cases of a graph walk.

Reliability stance: gnutella's traffic is *best-effort by design*, so
the ``reliable_delivery`` knob changes nothing here except downloads
(the DOWNLOAD-REQUEST envelope of the shared ``DownloadManager``).  The
flood's redundancy — many paths, duplicate suppression — is its loss recovery:
under injected message loss a query hit can still arrive along another
path, and the duplicate-suppression ``visited`` set makes duplicated
QUERY deliveries harmless.  PING/PONG keepalives are likewise
unacknowledged; a lost heartbeat is indistinguishable from a dead
neighbour one lease later, exactly as in the real protocol.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.engine.kernel import EventKernel, MembershipContext, QueryContext
from repro.network.base import PeerNetwork, SearchResult
from repro.network.config import ROUTING_HASH_COUNT
from repro.network.messages import (
    Message,
    MessageType,
    ping_message,
    pong_message,
    query_message,
)
from repro.network.peers import Peer
from repro.network.routing import RoutingIndex
from repro.network.topology import build_topology
from repro.storage.query import Query

#: sentinel distinguishing "probe keys not computed yet" from the
#: legitimate ``None`` of an unprobeable query
_KEYS_NOT_HASHED = object()


class GnutellaProtocol(PeerNetwork):
    """TTL-scoped query flooding over an unstructured overlay.

    The overlay is stored once, in each peer's ``Peer.neighbors``: every
    link is written on both ends (``build_overlay``, joins, discovery
    PONGs) and removed from both ends (``_drop_link``), so the flood,
    the routing BFS and the keepalives all read that one set.  A
    departure removes no link: its neighbours keep it until the
    keepalive lease lapses.
    """

    protocol_name = "gnutella"

    def __init__(self, *, default_ttl: int = 7, topology_kind: str = "power-law",
                 degree: int = 4, seed: int = 0, **kwargs) -> None:
        super().__init__(seed=seed, **kwargs)
        if default_ttl < 1:
            raise ValueError("TTL must be at least 1")
        self.default_ttl = default_ttl
        self.topology_kind = topology_kind
        self.degree = degree
        self._seed = seed
        # peer id -> its *online* neighbours in flood order, each with
        # its link latency (see ``_fan_out``), cached because every
        # flood, discovery re-flood and reachability walk re-reads the
        # same adjacency.  Dropped whole on every online transition
        # (``set_online``) and every overlay change.
        self._fan_outs: dict[str, list[tuple[str, float]]] = {}
        #: per-neighbour attenuated Bloom filters (``informed_routing``
        #: knob); ``None`` keeps the blind flood untouched on the hot path
        self._routing: Optional[RoutingIndex] = None
        if self.informed_routing:
            routing = self.routing_config
            self._routing = RoutingIndex(
                self, filter_bits=routing.filter_bits,
                hash_count=ROUTING_HASH_COUNT, depth=routing.depth)

    # ------------------------------------------------------------------
    # Overlay maintenance
    # ------------------------------------------------------------------
    def build_overlay(self) -> None:
        """(Re)build the neighbour graph over the current peer set."""
        topology = build_topology(
            self.peers, kind=self.topology_kind, degree=self.degree, seed=self._seed
        )
        self._fan_outs.clear()
        for peer in self.peers.values():
            peer.neighbors = set(topology.neighbors(peer.peer_id))
        if self._routing is not None:
            self._routing.note_overlay_changed()

    def _on_peer_added(self, peer: Peer) -> None:
        # Attach the newcomer to a few random online peers; experiments
        # that want a specific topology call build_overlay() afterwards.
        self._fan_outs.clear()
        if self._routing is not None:
            self._routing.note_overlay_changed()
        # An online newcomer is the online index's last entry: drawing
        # positions among the others makes the same draws as sampling
        # a list of them, without building one per join.
        online = self.online_peers()
        others = len(online) - 1 if peer.online else len(online)
        if not others:
            return
        for index in self.simulator.random.sample(range(others), min(self.degree, others)):
            neighbor = online[index]
            peer.connect(neighbor.peer_id)
            neighbor.connect(peer.peer_id)

    def set_online(self, peer_id: str, online: bool) -> None:
        peer = self.peers.get(peer_id)
        if peer is not None and peer.online != online:
            # An online transition moves the peer in or out of every
            # neighbour's fan-out.
            self._fan_outs.clear()
        super().set_online(peer_id, online)

    def _fan_out(self, peer: Peer) -> list[tuple[str, float]]:
        """``peer``'s online neighbours in flood order (sorted by id),
        each paired with its link latency: the one spelling of who a
        flood, a discovery re-flood or a reachability walk forwards to,
        and the row :meth:`EventKernel.send_many` sends from.  Cached
        until an online transition or an overlay change; callers must
        not mutate it."""
        fan_out = self._fan_outs.get(peer.peer_id)
        if fan_out is None:
            peers = self.peers
            fan_out = self._fan_outs[peer.peer_id] = self.kernel.fan_out(peer.peer_id, [
                neighbor_id for neighbor_id in sorted(peer.neighbors)
                if (neighbor := peers.get(neighbor_id)) is not None and neighbor.online])
        return fan_out

    # ------------------------------------------------------------------
    # Live membership: joins bootstrap links with a TTL-2 PING/PONG
    # discovery flood; links to departed neighbours go stale on both
    # sides and decay only when keepalive PINGs stop being PONGed.
    # ------------------------------------------------------------------
    bootstrap_ttl = 2

    def _on_peer_joined_live(self, peer: Peer) -> None:
        # A newcomer may reuse the id of a peer whose neighbours still
        # hold a stale link to it: it is back among their online ones.
        self._fan_outs.clear()
        self._discover_neighbors(peer, kind="join")

    def _discover_neighbors(self, peer: Peer, *, kind: str) -> None:
        """Send a discovery PING through a bootstrap peer.

        The bootstrap choice itself is out-of-band (a host cache, in
        real Gnutella) and deterministic: the lowest-id online peer.
        Every PONG that makes it back while the joiner still wants
        links becomes a neighbour edge.
        """
        bootstrap = next((peer_id for peer_id in sorted(self.peers)
                          if peer_id != peer.peer_id and self.peers[peer_id].online),
                         None)
        if bootstrap is None:
            return
        context = MembershipContext(peer_id=peer.peer_id, kind=kind,
                                    started_at=self.simulator.now)
        context.visited.add(peer.peer_id)
        ping = ping_message(peer.peer_id, bootstrap, ttl=self.bootstrap_ttl)
        ping.hops = 1
        self.kernel.send(ping, context=context)

    def _on_ping(self, peer: Optional[Peer], message: Message, context) -> None:
        if peer is None:
            return
        now = self.simulator.now
        if isinstance(context, MembershipContext):
            # Discovery ping (first arrival here — the kernel drops the
            # flood's duplicates): answer with a PONG routed back along
            # the reverse path, then re-flood while TTL remains.
            pong = pong_message(peer.peer_id, context.peer_id,
                                message_id=message.message_id)
            self.kernel.send(pong, context=context, copies=max(1, message.hops),
                             latency_ms=now - context.started_at)
            if message.ttl <= 1:
                return
            # ``visited`` already holds the delivering neighbour, so the
            # re-flood never echoes back to it.
            visited = context.visited
            self.kernel.send_many(
                message, peer.peer_id,
                [pair for pair in self._fan_out(peer) if pair[0] not in visited],
                context=context)
            return
        # Keepalive ping from a neighbour: acknowledge directly.  Under
        # informed routing the PONG also piggybacks this peer's routing
        # filter whenever the copy the neighbour holds went stale — the
        # filters decay and refresh on exactly the lease cadence the
        # membership layer already pays for.
        pong = pong_message(peer.peer_id, message.sender,
                            message_id=message.message_id)
        if self._routing is not None and self.live_membership:
            advert_bytes = self._routing.advertisement_bytes(
                peer.peer_id, message.sender)
            if advert_bytes:
                pong.payload_bytes += advert_bytes
                self.stats.record_filter_advert(advert_bytes)
        self.kernel.send(pong)

    def _on_pong(self, peer: Optional[Peer], message: Message, context) -> None:
        if peer is None:
            return
        now = self.simulator.now
        if isinstance(context, MembershipContext):
            # A discovery answer: take the responder as a neighbour if
            # there is still room.  The responder may have churned
            # offline since it ponged — then the link is stale from
            # birth, which is exactly the fidelity live mode is for.
            other = self.peers.get(message.sender)
            if other is None:
                return
            if message.sender in peer.neighbors:
                peer.last_pong_ms[message.sender] = now
                return
            if len(peer.neighbors) >= self.degree:
                return
            if len(other.neighbors) >= 2 * self.degree:
                # Connection refused: the responder is saturated.  Every
                # join routes through the same deterministic bootstrap,
                # so without this cap a flash crowd would grow one
                # peer's fan-out (and its keepalive bill) without bound.
                return
            peer.connect(message.sender)
            other.connect(peer.peer_id)
            peer.last_pong_ms[message.sender] = now
            other.last_pong_ms[peer.peer_id] = now
            self._fan_outs.clear()
            if self._routing is not None:
                self._routing.note_overlay_changed()
            return
        peer.last_pong_ms[message.sender] = now

    def _on_maintenance_tick(self, now: float) -> None:
        """One keepalive round per online peer: drop links silent
        beyond the lease, PING the rest, and run discovery again when
        the neighbour set fell below the target degree."""
        lease = self.heartbeat_lease_ms
        for peer_id in sorted(self.peers):
            peer = self.peers[peer_id]
            if not peer.online:
                continue
            for neighbor_id in sorted(peer.neighbors):
                if peer.last_pong_ms.get(neighbor_id, 0.0) <= now - lease:
                    self._drop_link(peer, neighbor_id, now)
            for neighbor_id in sorted(peer.neighbors):
                self.kernel.send(ping_message(peer_id, neighbor_id))
            if len(peer.neighbors) < self.degree:
                self._discover_neighbors(peer, kind="repair")

    def _drop_link(self, peer: Peer, neighbor_id: str, now: float) -> None:
        peer.disconnect(neighbor_id)
        peer.last_pong_ms.pop(neighbor_id, None)
        other = self.peers.get(neighbor_id)
        if other is not None:
            other.disconnect(peer.peer_id)
            other.last_pong_ms.pop(peer.peer_id, None)
        self._note_staleness(neighbor_id, now)
        self._fan_outs.clear()
        if self._routing is not None:
            self._routing.note_overlay_changed()
            self._routing.forget_link(peer.peer_id, neighbor_id)

    def _stamp_freshness(self, now: float) -> None:
        for peer in self.peers.values():
            for neighbor_id in sorted(peer.neighbors):
                peer.last_pong_ms[neighbor_id] = now
        if self._routing is not None:
            # Going live is a structural hand-off, not protocol traffic:
            # the filters every neighbour currently holds count as
            # already advertised, so only *changes* from here on ride
            # (and bill) the keepalive PONGs.
            self._routing.mark_all_advertised()

    # ------------------------------------------------------------------
    # Primitives
    # ------------------------------------------------------------------
    def publish(self, peer_id: str, community_id: str, resource_id: str,
                metadata: dict[str, list[str]], *, title: str = "") -> None:
        """Publishing is free in Gnutella: the object simply sits in the
        peer's repository waiting for queries to reach it."""
        self._require_peer(peer_id)
        self.replicas.note_original(resource_id, peer_id, at_ms=self.simulator.now)
        if self._routing is not None:
            self._routing.note_content_changed(peer_id)
        if self.result_caching:
            # The publisher's own cached answers predate the new object;
            # nobody else hears about a free publish, so remote caches
            # stay bounded by their TTL instead.
            cache = self.caches.sites.get(peer_id)
            if cache is not None:
                cache.bump_version()

    def start_search(self, origin_id: str, query: Query, *, max_results: int = 100,
                     ttl: Optional[int] = None, **kwargs) -> QueryContext:
        origin = self._require_peer(origin_id)
        ttl = ttl if ttl is not None else self.default_ttl
        context = self.new_context(
            origin_id, query, max_results=max_results,
            query_id=query.query_id or f"flood-{self.next_query_number()}",
        )
        context.visited.add(origin_id)
        # The flood TTL bounds coverage, so it scopes the cache key: a
        # ttl=1 search's sparse answer must not satisfy a ttl=6 repeat
        # (a false negative).  The scope is deliberately one-directional:
        # a same-ttl entry cached at a *different* vantage point may
        # serve true results from beyond this origin's flood horizon —
        # that is classic Gnutella query-hit caching, extra coverage for
        # free, and never a fabricated answer.
        context.extra["cache_scope"] = ttl
        if self.result_caching:
            cached = self.caches.lookup(origin_id, context, create=True)
            if cached is not None:
                # The origin re-asked a query it recently completed: the
                # whole flood is saved and the cached set (its own local
                # answers included) returns with zero messages.
                self.caches.serve_locally(context, cached)
                self.kernel.finish_if_idle(context)
                return context
        # The origin searches its own index first (no messages).
        self._answer_locally(origin, context)

        # The descriptor as the origin holds it: no hop travelled, one
        # TTL unit above the copies it sends (forwarding spends one per
        # hop).  Its id — the Gnutella descriptor GUID — is the query
        # id, and every copy of the flood carries it.
        self._flood_from(origin, query_message(
            origin_id, origin_id, context.plan.wire_xml, ttl=ttl + 1,
            community_id=query.community_id,
            payload_bytes=context.plan.wire_bytes,
            message_id=context.extra["query_id"]), context)
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
        # Both floods (search and neighbour discovery) reach a peer along
        # many paths; only the first arrival per exchange gets a handler.
        kernel.deliver_once_per_node(MessageType.QUERY)
        kernel.deliver_once_per_node(MessageType.PING)

    def _on_query(self, peer: Optional[Peer], message: Message,
                  context: Optional[QueryContext]) -> None:
        """The first QUERY copy of a flood arrived at ``peer``: answer,
        re-flood.  (Later copies never get here: QUERY is delivered once
        per node, see ``_register_handlers``.)

        Hits ride the QUERY-HIT back to the origin along the reverse
        path and only count on arrival (see ``PeerNetwork._send_hit`` /
        ``_on_query_hit``).
        """
        if peer is None or context is None:
            return
        context.peers_probed += 1
        hops = message.hops

        if self.result_caching and peer.peer_id in self.caches.sites:
            # (Symmetric accounting: every lookup at a cache site counts
            # as hit or miss, so the hit ratio compares across protocols.)
            cached = self.caches.lookup(peer.peer_id, context)
            if cached is not None:
                # Path caching: this peer completed the same query
                # recently and answers for its whole flood subtree
                # from the cached set — the flood stops here.  (An
                # empty cached set still cuts the flood, silently:
                # repeated miss-queries are the most expensive to
                # re-flood.)
                served, served_bytes = self.caches.take(context, cached)
                if served:
                    self._send_hit(peer.peer_id, context, served, served_bytes,
                                   message_id=message.message_id, hops=hops)
                return

        room = context.room()
        if room <= 0:
            taken = []
        elif self.result_caching:
            # A cached serving elsewhere in the flood may already have
            # promised some of this peer's results; those are filtered
            # *before* the room limit is applied (a promised duplicate
            # must neither claim room twice nor consume a limit slot a
            # fresh match needed), and the survivors register in turn.
            seen = self.caches.promised(context)
            taken = [stored
                     for stored in peer.repository.search(context.plan)
                     if (peer.peer_id, stored.resource_id) not in seen][:room]
            self.caches.claim(context, tuple((peer.peer_id, stored.resource_id)
                                             for stored in taken))
        else:
            taken = peer.repository.search(context.plan)[:room]
        if (self._routing is not None and message.ttl == 1 and room > 0
                and not taken
                and context.extra.get("routing_keys") is not None
                and message.sender not in context.extra.get("fallback_hops", ())):
            # Fringe copy that an attenuated filter admitted (this hop
            # was pruned, not a blind fallback) yet the local index has
            # nothing: a Bloom false positive paid for in one message.
            self.stats.record_routing_fp()
        if taken:
            self._send_hit(
                peer.peer_id, context,
                [SearchResult.from_stored(peer.peer_id, stored, hops=hops) for stored in taken],
                sum(stored.metadata_wire_bytes() for stored in taken),
                message_id=message.message_id, hops=hops)

        self._flood_from(peer, message, context)

    def _cache_store(self, context: QueryContext, response) -> None:
        """The origin caches its finished response, becoming a cache
        site for its own repeats and for floods passing through it."""
        self.caches.store(context.origin_id, context, response.results)

    def _parallel_serve_probe(self, message: Message, recipient: str, context,
                              at_ms: float) -> bool:
        """A queued QUERY serves from ``recipient``'s path cache iff the
        peer is fresh for this flood and holds a live entry (the same
        branch ``_on_query`` takes, read side-effect free)."""
        if not self.result_caching or context is None:
            return False
        if message.type is not MessageType.QUERY:
            return False
        if recipient in context.visited:
            return False
        return self.caches.would_serve(recipient, context, at_ms)

    def _flood_from(self, peer: Peer, message: Message, context: QueryContext) -> None:
        """Forward ``message``, the QUERY ``peer`` holds, to every online
        neighbour but its sender while TTL remains — one kernel fan-out
        per hop.

        Every copy shares the immutable wire form rendered at search
        start and the flood's descriptor id — no per-neighbour
        serialization, byte counting or id draw.

        Under ``informed_routing`` the fan-out narrows once the
        remaining TTL fits inside the filter depth: only neighbours
        whose attenuated filter admits the query's probe keys within
        the remaining horizon get a copy.  The filters have no false
        negatives over the current overlay, so pruning drops only
        copies that could not have produced a hit; if *no* neighbour
        admits, the hop falls back to the full blind fan-out rather
        than silently truncating the flood.
        """
        ttl = message.ttl - 1  # what the copies carry
        if ttl <= 0:
            return
        extra = context.extra
        peer_id = peer.peer_id
        fan_out = self._fan_out(peer)
        routing = self._routing
        if routing is not None and fan_out and ttl <= routing.depth:
            mask = extra.get("routing_keys", _KEYS_NOT_HASHED)
            if mask is _KEYS_NOT_HASHED:
                # Hash the probe keys into one mask per flood; every hop
                # reuses it.  ``None`` marks an unprobeable query (no
                # compilable criterion), which floods blind.
                keys = context.plan.routing_keys
                mask = None if keys is None else routing.hash_keys(keys)
                extra["routing_keys"] = mask
            if mask is not None:
                admitted = [pair for pair in fan_out
                            if routing.admits(pair[0], mask, ttl)]
                if admitted:
                    self.stats.record_routing_pruned(len(fan_out) - len(admitted))
                    fan_out = admitted
                else:
                    # No filter admits the query from here: fall back to
                    # the blind fan-out (the no-lost-results contract) and
                    # exempt this hop's receivers from FP accounting.
                    self.stats.record_routing_fallback()
                    extra.setdefault("fallback_hops", set()).add(peer_id)
        # Gnutella forwards to every neighbour *except the one that
        # delivered the descriptor*: it already handled the flood, so
        # the copy could only arrive as a duplicate.  Excluded after the
        # routing decision, which must see every neighbour (before it,
        # a hop whose only admitting filter is the sender's would fall
        # back to the blind fan-out).  The origin's own copy has
        # ``sender == origin``, never a neighbour.
        self.kernel.send_many(message, peer_id, fan_out, exclude=message.sender,
                              context=context)

    # ------------------------------------------------------------------
    def reachable_peers(self, origin_id: str, ttl: Optional[int] = None) -> int:
        """How many online peers a flood from ``origin_id`` can reach."""
        ttl = ttl if ttl is not None else self.default_ttl
        visited = {origin_id}
        queue: deque[tuple[str, int]] = deque([(origin_id, ttl)])
        while queue:
            current_id, remaining = queue.popleft()
            if remaining <= 0:
                continue
            current = self.peers.get(current_id)
            if current is None or not current.online:
                continue
            for neighbor_id, _latency in self._fan_out(current):
                if neighbor_id in visited:
                    continue
                visited.add(neighbor_id)
                queue.append((neighbor_id, remaining - 1))
        return len(visited) - 1
