"""Informed routing: per-neighbour attenuated Bloom filters.

Gnutella's blind flood is the paper's message-count outlier — every hop
forwards to every neighbour whether or not anything matching lies in
that direction.  This module gives each peer a *routing index*: for
every neighbour ``v``, an **attenuated Bloom filter** — a tuple of
``depth`` Bloom filters where level ``d`` summarizes the searchable
content of every peer at overlay distance exactly ``d`` from ``v``
(level 0 is ``v``'s own index).  A flood hop with remaining TTL ``r``
reaches peers at distance ``0 .. r-1`` from the neighbour it forwards
to, so the probe checks levels ``0 .. min(r, depth) - 1``; when the
remaining TTL sees past the filter horizon (``r > depth``) the filter
is silent about the tail and the hop forwards unconditionally.

Every Bloom filter is a plain Python int of ``filter_bits`` bits: a
key's bits are set by OR-ing its mask in, a level is the OR of its
peers' self-filters.  The probe keys are the
:attr:`CompiledQuery.routing_keys` exact/token keys, the same
normalization the attribute index stores, and a query probes with one
mask, the OR of all its keys' masks: a level admits the query iff
``level & mask == mask``, i.e. iff it holds every bit of every key.
Hashing is crc32-based double hashing (no builtin ``hash()``: filter
decisions must not depend on the process hash salt, pinned by detlint
DET002).

Safety argument (the "can only save messages, never lose a result"
contract): Bloom filters have no false negatives, level unions are
supersets of each member peer's keys, and filters summarize the
*topology* graph — **including currently-offline peers' content** — so
a peer that churns back online mid-query is still admitted.  Every
criterion key of a matching peer at distance ``d*`` from neighbour
``v`` is therefore in level ``d*`` of ``v``'s filter, and any path the
blind flood delivers a result along survives pruning edge by edge.
False positives merely forward a query that finds nothing (counted as
``routing_fp_forwards``).  The argument needs filters that are current
when consulted, which holds when the overlay does not *grow* mid-query:
link repair under live membership can add a path after a hop was
already pruned, so the strict contract cells run with the static
overlay (churn included — the online flag is not part of the filter)
and the live-membership cells are pinned empirically.

Cost model: filter *state* is maintained instantly from the simulation
oracle (matching the instantaneous membership semantics when live mode
is off).  With live membership on, propagation is charged for: a
changed filter rides the next keepalive PONG to each neighbour
(``payload_bytes`` grows by the filter wire size, classified as control
traffic), and a dropped link forgets what was advertised across it —
the same lease machinery that decays the link itself — so a repaired
link pays the advertisement again.
"""

from __future__ import annotations

from typing import TYPE_CHECKING
from zlib import crc32

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (base imports us)
    from repro.network.base import PeerNetwork

#: second crc32 stream is salted so the two hash values are independent
_SALT = 0x9747B28C
#: per-advertisement framing: level count + bit-size descriptor
_ADVERT_HEADER_BYTES = 4


def _mask(key: str, size_bits: int, hash_count: int) -> int:
    """The ``hash_count`` bit positions of ``key`` OR-ed into one int:
    classic double hashing ``h1 + i*h2`` over two independent crc32
    streams (the stride is forced odd so it never collapses to a single
    position)."""
    data = key.encode("utf-8")
    h1 = crc32(data)
    h2 = crc32(data, _SALT) | 1
    mask = 0
    for i in range(hash_count):
        mask |= 1 << (h1 + i * h2) % size_bits
    return mask


class RoutingIndex:
    """The network-wide informed-routing state (``informed_routing`` knob).

    Owns one self-filter per peer (its indexed content as exact/token
    keys), one attenuated filter per peer (what that peer advertises to
    its neighbours) and the per-directed-link advertisement versions
    that drive the keepalive piggyback cost.

    Rebuilds are lazy behind a dirty flag: content changes (publish)
    dirty one peer's self-filter, overlay changes (edge add/remove,
    peer add/remove) dirty the BFS; the next probe or advertisement
    rebuilds everything in sorted-peer order, so the state is a pure
    deterministic function of (topology, repositories, config).
    """

    def __init__(self, network: "PeerNetwork", *, filter_bits: int,
                 hash_count: int, depth: int) -> None:
        self.network = network
        self.filter_bits = filter_bits
        self.hash_count = hash_count
        self.depth = depth
        #: peers whose self-filter must be rebuilt from their index
        self._dirty_content: set[str] = set()
        #: overlay changed: every attenuated filter must be re-derived
        self._dirty_graph = True
        self._self_filters: dict[str, int] = {}
        self._filters: dict[str, tuple[int, ...]] = {}
        #: per-peer advertisement version, bumped only when the filter
        #: content actually changed across a rebuild
        self._versions: dict[str, int] = {}
        #: directed link (advertiser, observer) -> last version shipped
        self._advertised: dict[tuple[str, str], int] = {}
        #: probe mask per key (shared across all filters)
        self._mask_memo: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Dirty hooks (called by the owning protocol's mutation paths)
    # ------------------------------------------------------------------
    def note_content_changed(self, peer_id: str) -> None:
        """``peer_id`` published or replicated an object."""
        self._dirty_content.add(peer_id)
        self._dirty_graph = True

    def note_overlay_changed(self) -> None:
        """An edge was added or removed, or a peer joined."""
        self._dirty_graph = True

    def forget_link(self, peer_a: str, peer_b: str) -> None:
        """The lease machinery dropped the link: both directions forget
        what was advertised, so a repaired link re-pays the bytes."""
        self._advertised.pop((peer_a, peer_b), None)
        self._advertised.pop((peer_b, peer_a), None)

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def hash_keys(self, keys: tuple[str, ...]) -> int:
        """A plan's probe mask, computed once per query: the union of
        every key's bits (each key hashed once, memoized — the same
        workload re-probes the same keys)."""
        memo = self._mask_memo
        mask = 0
        for key in keys:
            key_mask = memo.get(key)
            if key_mask is None:
                key_mask = memo[key] = _mask(key, self.filter_bits, self.hash_count)
            mask |= key_mask
        return mask

    def admits(self, neighbor_id: str, mask: int, remaining_ttl: int) -> bool:
        """Does forwarding to ``neighbor_id`` with ``remaining_ttl``
        possibly reach a peer matching the whole conjunction?

        A matching peer holds every probe key, so some level within
        reach must hold every bit of the mask.  A hop with remaining TTL
        ``r`` covers distances ``0 .. r-1`` from the neighbour; past the
        filter horizon (``r > depth``) the filter is silent and the
        answer must be yes.
        """
        if remaining_ttl > self.depth:
            return True
        self._ensure_current()
        levels = self._filters.get(neighbor_id)
        if levels is None:
            return True  # nothing known about the neighbour: stay blind
        for level in levels[:remaining_ttl]:
            if level & mask == mask:
                return True
        return False

    # ------------------------------------------------------------------
    # Advertisement cost (the live-membership keepalive piggyback)
    # ------------------------------------------------------------------
    def advertisement_bytes(self, advertiser_id: str, observer_id: str) -> int:
        """Wire bytes the advertiser's next PONG to ``observer_id``
        carries: the full filter when its content changed since the
        last advertisement across this link, nothing otherwise."""
        self._ensure_current()
        version = self._versions.get(advertiser_id, 0)
        link = (advertiser_id, observer_id)
        if self._advertised.get(link) == version:
            return 0
        self._advertised[link] = version
        if advertiser_id not in self._filters:
            return 0
        return _ADVERT_HEADER_BYTES + self.depth * self.filter_bits // 8

    def mark_all_advertised(self) -> None:
        """Stamp every current link as advertised (go-live boundary:
        the bootstrap-built filters are structural setup, so steady-state
        keepalives only pay for *changes* from here on)."""
        self._ensure_current()
        for peer_id in sorted(self.network.peers):
            peer = self.network.peers[peer_id]
            version = self._versions.get(peer_id, 0)
            for neighbor_id in sorted(peer.neighbors):
                self._advertised[(peer_id, neighbor_id)] = version

    # ------------------------------------------------------------------
    # Rebuild
    # ------------------------------------------------------------------
    def _ensure_current(self) -> None:
        if not self._dirty_graph and not self._dirty_content:
            return
        peers = self.network.peers
        for peer_id in sorted(self._dirty_content):
            if peer_id in peers:
                self._self_filters[peer_id] = self._build_self_filter(peer_id)
        self._dirty_content.clear()
        for peer_id in sorted(peers):
            if peer_id not in self._self_filters:
                self._self_filters[peer_id] = self._build_self_filter(peer_id)
        for peer_id in sorted(peers):
            rebuilt = self._build_attenuated(peer_id)
            if self._filters.get(peer_id) != rebuilt:
                self._filters[peer_id] = rebuilt
                self._versions[peer_id] = self._versions.get(peer_id, 0) + 1
        self._dirty_graph = False

    def _build_self_filter(self, peer_id: str) -> int:
        """One peer's indexed content as a Bloom filter of the same
        exact/token keys :attr:`CompiledQuery.routing_keys` probes."""
        size_bits, hash_count = self.filter_bits, self.hash_count
        bits = 0
        for entry in self.network.peers[peer_id].repository.index.iter_entries():
            community = entry.community_id
            field = entry.field_path
            bits |= _mask(f"e\x1f{community}\x1f{field}\x1f{entry.value_lower}",
                          size_bits, hash_count)
            for token in entry.tokens:
                bits |= _mask(f"t\x1f{community}\x1f{field}\x1f{token}",
                              size_bits, hash_count)
                bits |= _mask(f"a\x1f{community}\x1f{token}", size_bits, hash_count)
        return bits

    def _build_attenuated(self, peer_id: str) -> tuple[int, ...]:
        """BFS over the overlay (offline peers included — see the module
        safety argument) OR-ing self-filters by exact distance."""
        peers = self.network.peers
        self_filters = self._self_filters
        levels: list[int] = []
        seen = {peer_id}
        frontier = [peer_id]
        for _ in range(self.depth):
            bits = 0
            next_frontier: list[str] = []
            for node_id in frontier:
                bits |= self_filters[node_id]
                for neighbor_id in sorted(peers[node_id].neighbors):
                    if neighbor_id not in seen and neighbor_id in peers:
                        seen.add(neighbor_id)
                        next_frontier.append(neighbor_id)
            levels.append(bits)
            frontier = next_frontier
        return tuple(levels)
