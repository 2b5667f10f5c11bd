"""Query-result caching across the network (the ``result_caching`` knob).

:class:`ResultCacheLayer` owns every cache site of a network in one
table keyed by the node whose RAM holds it — a flooding peer, a
rendezvous edge, an entry super-peer, the index server — so a site dies
with its node whatever the organisation.  *Where* a protocol caches
stays in its ``_cache_store`` hook and its handlers; the cache key, the
promised-identity registry, local and remote serving, the fill and the
sweep timer live here once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.engine.kernel import EventKernel, MaintenanceTimer, QueryContext
from repro.network.config import CacheConfig
from repro.storage.cache import CacheEntry, QueryResultCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.network.base import SearchResult


def _identities(results: Iterable["SearchResult"]) -> tuple[tuple[str, str], ...]:
    return tuple((result.provider_id, result.resource_id) for result in results)


class ResultCacheLayer:
    """Every result-cache site of one network, plus the shared serving paths."""

    def __init__(self, kernel: EventKernel, config: CacheConfig) -> None:
        self.kernel = kernel
        self.config = config
        #: node id -> the result cache living in that node's RAM
        self.sites: dict[str, QueryResultCache] = {}
        self._sweep_timer: Optional[MaintenanceTimer] = None

    # ------------------------------------------------------------------
    # Sites
    # ------------------------------------------------------------------
    def site(self, node_id: str) -> Optional[QueryResultCache]:
        """The cache on ``node_id``, created on first use — but only on
        a node that is up (an online peer or an always-on virtual node)."""
        cache = self.sites.get(node_id)
        if cache is None:
            peer = self.kernel.peers.get(node_id)
            if (peer is None or not peer.online) \
                    and node_id not in self.kernel.virtual_nodes:
                return None
            cache = self.sites[node_id] = QueryResultCache(
                capacity=self.config.capacity, ttl_ms=self.config.ttl_ms)
        return cache

    def drop(self, node_id: str) -> None:
        """The node went away: its cache lived in its RAM and dies with it."""
        self.sites.pop(node_id, None)

    def ensure_sweep(self) -> None:
        # Expired entries are also rejected lazily at lookup; the
        # recurring sweep (one TTL period) just bounds memory and keeps
        # the expiration counters honest.
        if self._sweep_timer is None or self._sweep_timer.cancelled:
            # detlint: ignore[KERN001] -- sweeps every cache site in one pass,
            # so it is control-plane work with no single home shard.
            self._sweep_timer = self.kernel.every(self.config.ttl_ms, self._sweep)

    def _sweep(self) -> None:
        now = self.kernel.simulator.now
        for cache in self.sites.values():
            cache.sweep(now)

    # ------------------------------------------------------------------
    # Per-query bookkeeping
    # ------------------------------------------------------------------
    def key(self, context: QueryContext) -> tuple:
        """The context's canonical cache key, computed once per search.

        Keys include ``max_results`` because cached entries hold the
        truncated result set as answered for that room.
        """
        key = context.extra.get("cache_key")
        if key is None:
            # "cache_scope" carries whatever else bounds the search's
            # coverage (gnutella's flood TTL): a shallow search's sparse
            # result set must never answer a deeper repeat.
            key = (context.plan.cache_key, context.max_results,
                   context.extra.get("cache_scope"))
            context.extra["cache_key"] = key
        return key

    def promised(self, context: QueryContext) -> set[tuple[str, str]]:
        """The ``(provider, resource)`` identities already promised to
        this query — arrived, claimed in flight, or held locally by the
        origin (the lazy seed).  Every caching-mode generation site
        filters against this set and registers what it claims, so no
        identity is ever promised twice."""
        seen = context.extra.get("seen_results")
        if seen is None:
            seen = set(_identities(context.results))
            context.extra["seen_results"] = seen
        return seen

    def claim(self, context: QueryContext,
              identities: tuple[tuple[str, str], ...]) -> None:
        """Register ``identities`` as promised to the query (fleet-wide
        under process-parallel execution)."""
        self.promised(context).update(identities)
        self.kernel.note_result_claims(context, identities)

    # ------------------------------------------------------------------
    # Lookup, serving and fill
    # ------------------------------------------------------------------
    def lookup(self, node_id: str, context: QueryContext, *,
               create: bool = False) -> Optional[CacheEntry]:
        """The live entry answering ``context`` at ``node_id``'s site, or
        ``None`` — counted as a network-wide miss.  ``create`` opens
        the site first (origin-side lookups; a path peer only consults
        a cache it already has)."""
        cache = self.site(node_id) if create else self.sites.get(node_id)
        entry = (cache.get(self.key(context), self.kernel.simulator.now)
                 if cache is not None else None)
        if entry is None:
            self.kernel.stats.record_cache_miss()
        return entry

    def would_serve(self, node_id: str, context: QueryContext, at_ms: float) -> bool:
        """Does ``node_id`` hold a live entry for ``context`` at
        ``at_ms``?  Side-effect free (see ``_parallel_serve_probe``)."""
        cache = self.sites.get(node_id)
        return cache is not None and cache.peek(self.key(context), at_ms) is not None

    def _record_hit(self, served: Sequence["SearchResult"]) -> None:
        """Account one serving, counting results that name a currently
        unreachable provider as stale."""
        peers = self.kernel.peers
        self.kernel.stats.record_cache_hit(stale_results=sum(
            1 for result in served
            if (peer := peers.get(result.provider_id)) is None or not peer.online))

    def serve_locally(self, context: QueryContext, entry: CacheEntry) -> None:
        """Answer the search from a cache co-located with the origin:
        results append directly, no message is sent, and the query
        quiesces with zero latency — the cache's entire point."""
        seen = self.promised(context)
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
        self.kernel.note_result_claims(context, _identities(served))
        context.extra["cache_hit"] = True
        self._record_hit(served)

    def take(self, context: QueryContext,
             entry: CacheEntry) -> tuple[list["SearchResult"], int]:
        """The part of a cached result set a remote site (the index
        server, a flooding path peer, an entry super-peer) may still
        serve, with its metadata bytes; the caller ships it back.

        Cached results already promised to the origin — its own local
        answers, an earlier serving, a direct hit claimed in flight —
        are filtered *before* the slice to the context's room, and the
        served ones are registered in turn: claiming room for a result
        that never lands (or lands twice) would starve other answerers
        below ``max_results``."""
        seen = self.promised(context)
        fresh = [result for result in entry.results
                 if (result.provider_id, result.resource_id) not in seen]
        served = fresh[: context.room()]
        self._record_hit(served)
        context.extra["remote_cache_served"] = True
        self.claim(context, _identities(served))
        metadata_bytes = (entry.metadata_bytes if len(served) == len(entry.results)
                          else sum(result.metadata_bytes() for result in served))
        return served, metadata_bytes

    def store(self, node_id: str, context: QueryContext,
              results: Sequence["SearchResult"], *,
              metadata_bytes: Optional[int] = None,
              lease_ms: Optional[float] = None) -> None:
        """Fill ``node_id``'s site with a finished result set (nothing
        is stored on a node that is down)."""
        cache = self.site(node_id)
        if cache is None:
            return
        if metadata_bytes is None:
            metadata_bytes = sum(result.metadata_bytes() for result in results)
        cache.put(self.key(context), tuple(results), metadata_bytes,
                  self.kernel.simulator.now, lease_ms=lease_ms)
