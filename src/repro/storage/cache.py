"""Query-result caching: answer repeated queries without re-discovery.

Every network organisation re-pays its full discovery cost each time a
popular query is re-issued — the flood re-floods, the walk re-walks,
the server re-intersects its index.  :class:`QueryResultCache` stores
finished result sets keyed by the *canonical form* of a compiled query
(:attr:`repro.storage.plan.CompiledQuery.cache_key`), so two
differently-ordered spellings of the same conjunction share one entry.

The cache is deliberately small and honest about staleness:

* **LRU** — at most ``capacity`` entries; the least recently used entry
  is evicted on overflow.
* **TTL / lease** — every entry expires ``ttl_ms`` after it was filled
  (a protocol with a natural lease, e.g. the rendezvous advertisement
  lease, passes a shorter per-entry lease), which bounds how long a
  cached hit can reference state the network no longer agrees on.
* **Version** — the cache owner bumps :attr:`version` whenever its
  catalog changes (a publish or replica announcement arrives); entries
  filled under an older version miss on lookup and are dropped.
* **Provider invalidation** — when the owner learns a peer departed
  (a heartbeat/lease purge, or an off-mode leaf detach), every entry
  carrying a result from that provider dies with
  :meth:`invalidate_provider`, so a stale cached hit never outlives the
  staleness window the membership layer already reports.  The cache
  indexes its keys by provider, so this costs time proportional to the
  entries naming that provider, not to the cache.

The cache never touches the simulation clock; owners sweep expired
entries on a recurring kernel timer (``EventKernel.every``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional


class CacheEntry:
    """One cached result set, with the bookkeeping its lifetime needs."""

    __slots__ = (
        "key",
        "results",
        "metadata_bytes",
        "version",
        "created_at_ms",
        "expires_at_ms",
        "hits",
    )

    def __init__(
        self,
        key: tuple,
        results: tuple,
        metadata_bytes: int,
        version: int,
        created_at_ms: float,
        expires_at_ms: float,
    ) -> None:
        self.key = key
        self.results = results
        self.metadata_bytes = metadata_bytes
        self.version = version
        self.created_at_ms = created_at_ms
        self.expires_at_ms = expires_at_ms
        self.hits = 0


class QueryResultCache:
    """An LRU + TTL + versioned cache of finished search result sets.

    One instance belongs to one *cache site* — the central index
    server, a flooding peer, a super-peer, a rendezvous edge — and only
    that owner's observations (arriving publishes, lease purges,
    detaches) invalidate it.  Anything the owner cannot observe is
    bounded by the TTL instead, which is why callers should keep
    ``ttl_ms`` at or below the membership layer's staleness lease.
    """

    def __init__(self, *, capacity: int = 128, ttl_ms: float = 2_000.0) -> None:
        if capacity < 1:
            raise ValueError("the cache needs room for at least one entry")
        if ttl_ms <= 0:
            raise ValueError("the cache TTL must be positive")
        self.capacity = capacity
        self.ttl_ms = ttl_ms
        self.version = 0
        self._entries: OrderedDict[tuple, CacheEntry] = OrderedDict()
        #: provider id -> keys of the entries carrying one of its
        #: results (insertion-ordered dicts, never sets, so no hash-salted
        #: order reaches a decision); no bucket is ever left empty
        self._by_provider: dict[str, dict[tuple, None]] = {}
        # Local counters (the network-wide ones live on NetworkStats).
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    # ------------------------------------------------------------------
    # Lookup and fill
    # ------------------------------------------------------------------
    def get(self, key: tuple, now: float) -> Optional[CacheEntry]:
        """The live entry under ``key``, or ``None`` (counted as a miss).

        An entry that expired, or that was filled before the owner's
        last catalog change, is dropped on the spot.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if entry.expires_at_ms <= now:
            self._forget(key, entry)
            self.expirations += 1
            self.misses += 1
            return None
        if entry.version != self.version:
            self._forget(key, entry)
            self.invalidations += 1
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        entry.hits += 1
        self.hits += 1
        return entry

    def peek(self, key: tuple, now: float) -> Optional[CacheEntry]:
        """Like :meth:`get` but side-effect free: no LRU touch, no
        counter movement, no lazy drops.  Exists so a parallel worker
        can *predict* whether a queued query delivery will be served
        from this cache (see ``repro.engine.parallel``) without
        perturbing the cache state the real lookup will see."""
        entry = self._entries.get(key)
        if entry is None or entry.expires_at_ms <= now \
                or entry.version != self.version:
            return None
        return entry

    def put(
        self,
        key: tuple,
        results: tuple,
        metadata_bytes: int,
        now: float,
        *,
        lease_ms: Optional[float] = None,
    ) -> CacheEntry:
        """Fill ``key`` with ``results`` (empty result sets cache too —
        repeated miss-queries are the most expensive kind to re-flood).

        ``lease_ms`` caps the entry's life below the cache TTL when the
        protocol has a natural shorter lease.
        """
        life = self.ttl_ms if lease_ms is None else min(self.ttl_ms, lease_ms)
        entry = CacheEntry(
            key=key,
            results=results,
            metadata_bytes=metadata_bytes,
            version=self.version,
            created_at_ms=now,
            expires_at_ms=now + life,
        )
        old = self._entries.get(key)
        if old is not None:
            self._forget(key, old)
        self._entries[key] = entry
        for result in results:
            self._by_provider.setdefault(result.provider_id, {})[key] = None
        while len(self._entries) > self.capacity:
            oldest = next(iter(self._entries))
            self._forget(oldest, self._entries[oldest])
            self.evictions += 1
        return entry

    def _forget(self, key: tuple, entry: CacheEntry) -> None:
        """The one way an entry leaves: drop it and its index marks."""
        del self._entries[key]
        by_provider = self._by_provider
        for result in entry.results:
            keys = by_provider.get(result.provider_id)
            if keys is None:
                continue  # named twice, or its bucket is being invalidated
            keys.pop(key, None)
            if not keys:
                del by_provider[result.provider_id]

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def bump_version(self) -> None:
        """The owner's catalog changed: every existing entry is stale."""
        self.version += 1

    def invalidate_provider(self, provider_id: str) -> int:
        """Drop every entry carrying a result from ``provider_id``.

        Called when the owner *learns* of a departure — a heartbeat or
        lease purge, or an off-mode leaf detach — so cached hits stop
        referencing the departed peer the moment the membership layer
        itself stops.  Returns how many entries died.
        """
        # Detached first, so forgetting these keys never edits the
        # bucket being walked.
        stale = self._by_provider.pop(provider_id, None)
        if stale is None:
            return 0
        for key in stale:
            self._forget(key, self._entries[key])
        self.invalidations += len(stale)
        return len(stale)

    def sweep(self, now: float) -> int:
        """Drop every expired entry (the recurring timer's body)."""
        dead = [(key, entry) for key, entry in self._entries.items() if entry.expires_at_ms <= now]
        for key, entry in dead:
            self._forget(key, entry)
        self.expirations += len(dead)
        return len(dead)

    def clear(self) -> None:
        self._entries.clear()
        self._by_provider.clear()

