"""Informed routing: per-neighbour attenuated Bloom filters.

Gnutella's blind flood is the paper's message-count outlier — every hop
forwards to every neighbour whether or not anything matching lies in
that direction.  This module gives each peer a *routing index*: for
every neighbour ``v``, an **attenuated Bloom filter** — an array of
``depth`` Bloom filters where level ``d`` summarizes the searchable
content of every peer at overlay distance exactly ``d`` from ``v``
(level 0 is ``v``'s own index).  A flood hop with remaining TTL ``r``
reaches peers at distance ``0 .. r-1`` from the neighbour it forwards
to, so the probe checks levels ``0 .. min(r, depth) - 1``; when the
remaining TTL sees past the filter horizon (``r > depth``) the filter
is silent about the tail and the hop forwards unconditionally.

The probe keys are the :attr:`CompiledQuery.routing_keys` exact/token
keys, the same normalization the attribute index stores — a compiled
plan tests against a filter without re-tokenizing.  Hashing is
crc32-based double hashing (no builtin ``hash()``: filter decisions
must not depend on the process hash salt, pinned by detlint DET002).

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

from typing import TYPE_CHECKING, Optional
from zlib import crc32

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (base imports us)
    from repro.network.base import PeerNetwork

#: second crc32 stream is salted so the two hash values are independent
_SALT = 0x9747B28C
#: per-advertisement framing: level count + bit-size descriptor
_ADVERT_HEADER_BYTES = 4


def _positions(key: str, size_bits: int, hash_count: int) -> tuple[int, ...]:
    """The ``hash_count`` bit positions of ``key``: classic double
    hashing ``h1 + i*h2`` over two independent crc32 streams (the
    stride is forced odd so it never collapses to a single position)."""
    data = key.encode("utf-8")
    h1 = crc32(data)
    h2 = crc32(data, _SALT) | 1
    return tuple((h1 + i * h2) % size_bits for i in range(hash_count))


class BloomFilter:
    """A fixed-size Bloom filter over string keys.

    The bit array is one Python int (union is ``|``, membership is a
    shift-and-mask), which keeps level merges cheap during rebuilds.
    """

    __slots__ = ("size_bits", "hash_count", "bits")

    def __init__(self, size_bits: int, hash_count: int, bits: int = 0) -> None:
        self.size_bits = size_bits
        self.hash_count = hash_count
        self.bits = bits

    def add(self, key: str) -> None:
        for position in _positions(key, self.size_bits, self.hash_count):
            self.bits |= 1 << position

    def contains_positions(self, positions: tuple[int, ...]) -> bool:
        """Membership test against pre-hashed bit positions (the probe
        hot path hashes each query key once, not once per filter)."""
        bits = self.bits
        return all(bits >> position & 1 for position in positions)

    def merge(self, other: "BloomFilter") -> None:
        self.bits |= other.bits

    def fill_ratio(self) -> float:
        """Fraction of bits set — the saturation diagnostic E11 charts
        against false-positive forwards."""
        return bin(self.bits).count("1") / self.size_bits

    def wire_bytes(self) -> int:
        return self.size_bits // 8


class AttenuatedFilter:
    """One neighbour's depth-array of Bloom filters.

    ``levels[d]`` is the union of the self-filters of every peer at
    overlay distance exactly ``d`` from the advertising neighbour.
    """

    __slots__ = ("levels",)

    def __init__(self, levels: tuple[BloomFilter, ...]) -> None:
        self.levels = levels

    def admits(self, key_groups: tuple[tuple[tuple[int, ...], ...], ...],
               level_limit: int) -> bool:
        """Could a single peer within ``level_limit`` levels satisfy the
        whole conjunction?  Each key group is one criterion's pre-hashed
        keys; a matching peer holds *all* keys of *every* group, so the
        probe asks for one level containing the complete conjunction.
        """
        for level in self.levels[:level_limit]:
            if all(level.contains_positions(positions)
                   for group in key_groups for positions in group):
                return True
        return False

    def wire_bytes(self) -> int:
        return _ADVERT_HEADER_BYTES + sum(level.wire_bytes() for level in self.levels)

    def stamp(self) -> tuple[int, ...]:
        """A content fingerprint: equal stamps mean nothing to re-advertise."""
        return tuple(level.bits for level in self.levels)


class RoutingIndex:
    """The network-wide informed-routing state (``informed_routing`` knob).

    Owns one self-filter per peer (its indexed content as exact/token
    keys), one :class:`AttenuatedFilter` per peer (what that peer
    advertises to its neighbours) and the per-directed-link
    advertisement versions that drive the keepalive piggyback cost.

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
        self._self_filters: dict[str, BloomFilter] = {}
        self._filters: dict[str, AttenuatedFilter] = {}
        #: per-peer advertisement version, bumped only when the filter
        #: content actually changed across a rebuild
        self._versions: dict[str, int] = {}
        self._stamps: dict[str, tuple[int, ...]] = {}
        #: directed link (advertiser, observer) -> last version shipped
        self._advertised: dict[tuple[str, str], int] = {}
        #: pre-hashed probe positions per key (shared across all filters)
        self._position_memo: dict[str, tuple[int, ...]] = {}

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
    def hash_keys(self, key_groups: tuple[tuple[str, ...], ...],
                  ) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Pre-hash a plan's probe keys once per query (memoized — the
        same workload re-probes the same keys at every hop)."""
        memo = self._position_memo
        hashed = []
        for group in key_groups:
            positions = []
            for key in group:
                cached = memo.get(key)
                if cached is None:
                    cached = _positions(key, self.filter_bits, self.hash_count)
                    memo[key] = cached
                positions.append(cached)
            hashed.append(tuple(positions))
        return tuple(hashed)

    def admits(self, neighbor_id: str,
               hashed_keys: tuple[tuple[tuple[int, ...], ...], ...],
               remaining_ttl: int) -> bool:
        """Does forwarding to ``neighbor_id`` with ``remaining_ttl``
        possibly reach a peer matching the whole conjunction?

        A hop with remaining TTL ``r`` covers distances ``0 .. r-1``
        from the neighbour; past the filter horizon (``r > depth``) the
        filter is silent and the answer must be yes.
        """
        if remaining_ttl > self.depth:
            return True
        self._ensure_current()
        advertised = self._filters.get(neighbor_id)
        if advertised is None:
            return True  # nothing known about the neighbour: stay blind
        return advertised.admits(hashed_keys, remaining_ttl)

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
        advertised = self._filters.get(advertiser_id)
        return advertised.wire_bytes() if advertised is not None else 0

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

    def filter_wire_bytes(self) -> int:
        """Wire size of one peer's full advertisement."""
        return _ADVERT_HEADER_BYTES + self.depth * (self.filter_bits // 8)

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
            stamp = rebuilt.stamp()
            if self._stamps.get(peer_id) != stamp:
                self._stamps[peer_id] = stamp
                self._versions[peer_id] = self._versions.get(peer_id, 0) + 1
                self._filters[peer_id] = rebuilt
        self._dirty_graph = False

    def _build_self_filter(self, peer_id: str) -> BloomFilter:
        """One peer's indexed content as a Bloom filter of the same
        exact/token keys :attr:`CompiledQuery.routing_keys` probes."""
        bloom = BloomFilter(self.filter_bits, self.hash_count)
        add = bloom.add
        for entry in self.network.peers[peer_id].repository.index.iter_entries():
            community = entry.community_id
            field = entry.field_path
            add(f"e\x1f{community}\x1f{field}\x1f{entry.value_lower}")
            for token in entry.tokens:
                add(f"t\x1f{community}\x1f{field}\x1f{token}")
                add(f"a\x1f{community}\x1f{token}")
        return bloom

    def _build_attenuated(self, peer_id: str) -> AttenuatedFilter:
        """BFS over the overlay (offline peers included — see the module
        safety argument) collecting self-filters by exact distance."""
        peers = self.network.peers
        levels = tuple(BloomFilter(self.filter_bits, self.hash_count)
                       for _ in range(self.depth))
        seen = {peer_id}
        frontier = [peer_id]
        for level in levels:
            next_frontier: list[str] = []
            for node_id in frontier:
                level.merge(self._self_filters[node_id])
                for neighbor_id in sorted(peers[node_id].neighbors):
                    if neighbor_id not in seen and neighbor_id in peers:
                        seen.add(neighbor_id)
                        next_frontier.append(neighbor_id)
            frontier = next_frontier
            if not frontier:
                break
        return AttenuatedFilter(levels)


def routing_index_for(network: "PeerNetwork") -> Optional[RoutingIndex]:
    """The network's routing index when informed routing is on."""
    return getattr(network, "_routing", None)
