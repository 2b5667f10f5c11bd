"""Network statistics collection for the experiment harness."""

from __future__ import annotations

from collections import Counter
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional

from repro.network.messages import Message, MessageType

#: message-type values per traffic class, used for the control / query /
#: download breakdown the membership experiments chart (overhead vs.
#: availability).  Registrations count as control: they are index
#: maintenance, not query answering.
CONTROL_TYPE_VALUES = frozenset({
    MessageType.PING.value, MessageType.PONG.value, MessageType.REGISTER.value,
    MessageType.JOIN.value, MessageType.LEAF_ATTACH.value,
    MessageType.AD_RENEW.value, MessageType.ACK.value,
})
QUERY_TYPE_VALUES = frozenset({MessageType.QUERY.value, MessageType.QUERY_HIT.value})
DOWNLOAD_TYPE_VALUES = frozenset({
    MessageType.DOWNLOAD_REQUEST.value, MessageType.DOWNLOAD_RESPONSE.value,
})


@dataclass
class QueryRecord:
    """Outcome of one search operation (a row in the experiment tables)."""

    query_id: str
    origin: str
    community_id: str
    results: int
    messages: int
    bytes: int
    peers_probed: int
    latency_ms: float
    hops_to_first_result: Optional[int] = None


@dataclass
class DownloadRecord:
    """Outcome of one retrieve operation (replication provenance rows)."""

    resource_id: str
    requester: str
    provider: str
    bytes: int
    latency_ms: float
    attachments: int = 0


@dataclass
class NetworkStats:
    """Counters accumulated while a protocol runs."""

    messages_by_type: Counter = field(default_factory=Counter)
    bytes_by_type: Counter = field(default_factory=Counter)
    queries: list[QueryRecord] = field(default_factory=list)
    download_records: list[DownloadRecord] = field(default_factory=list)
    downloads: int = 0
    download_bytes: int = 0
    registrations: int = 0
    #: how long each purged piece of stale protocol state (a departed
    #: peer's registration, ad, or leaf record) outlived its owner's
    #: departure before repair traffic noticed, in virtual ms
    staleness_windows_ms: list[float] = field(default_factory=list)
    #: online-session time accumulated across all peers.  Sessions count
    #: when they close (an offline transition); call
    #: ``PeerNetwork.snapshot_uptime()`` at a measurement boundary to
    #: fold still-open sessions in, or the steadiest peers undercount.
    uptime_ms_total: float = 0.0
    #: query-result cache outcomes (``result_caching`` mode): lookups
    #: at any cache site that served a cached result set / that fell
    #: through to discovery (each site counts both ways, so the ratio
    #: compares across protocols)
    cache_hits: int = 0
    cache_misses: int = 0
    #: cached results served whose provider was offline at serve time —
    #: the stale answers the cache's TTL/invalidation rules bound
    cache_stale_served: int = 0
    # Fault / recovery axis (``faults`` + reliable-delivery modes): what
    # the injected faults cost and what the hardening recovered.
    #: deliveries lost to injected faults (loss draws + partition cuts)
    dropped: int = 0
    #: of ``dropped``, those cut by a scheduled partition window
    partition_dropped: int = 0
    #: extra deliveries produced by the duplication fault
    duplicated: int = 0
    #: reliable-envelope retransmissions plus same-provider download
    #: re-requests
    retries: int = 0
    #: reliable sends (or downloads) abandoned after the retry budget
    timeouts: int = 0
    #: downloads re-pointed at the next-ranked replica mid-transfer
    failovers: int = 0
    # Informed-routing axis (``informed_routing`` mode): what the
    # attenuated Bloom filters saved and what they cost.
    #: QUERY copies the routing filters pruned from the flood fan-out
    routing_pruned: int = 0
    #: hops where no neighbour's filter admitted the query and the
    #: blind fan-out ran instead (the no-lost-results fallback)
    routing_fallbacks: int = 0
    #: fringe copies a filter admitted that found no local match — the
    #: Bloom false positives actually paid for in messages
    routing_fp_forwards: int = 0
    #: filter-advertisement payload riding keepalive PONGs (bytes);
    #: the PONGs themselves are already counted as control traffic
    routing_filter_bytes: int = 0

    # ------------------------------------------------------------------
    def record_message(self, message: Message, copies: int = 1) -> None:
        self.record(message.type.value, message.size_bytes, copies)

    def record(self, type_value: str, size_bytes: int, copies: int = 1) -> None:
        """Count ``copies`` messages of one already-resolved type/size.

        The kernel resolves the enum value and wire size exactly once
        per message and calls this — the hot-path variant of
        :meth:`record_message`.
        """
        self.messages_by_type[type_value] += copies
        self.bytes_by_type[type_value] += copies * size_bytes

    def record_query(self, record: QueryRecord) -> None:
        self.queries.append(record)

    def record_download(self, size_bytes: int,
                        record: Optional[DownloadRecord] = None) -> None:
        self.downloads += 1
        self.download_bytes += size_bytes
        if record is not None:
            self.download_records.append(record)

    def record_registration(self) -> None:
        """One resource registration accepted at an index point."""
        self.registrations += 1

    def record_staleness(self, window_ms: float) -> None:
        """Note that stale state of a departed peer was just purged,
        ``window_ms`` of virtual time after the departure."""
        self.staleness_windows_ms.append(window_ms)

    def record_uptime(self, session_ms: float) -> None:
        """Accumulate one peer's completed online session."""
        self.uptime_ms_total += session_ms

    def record_cache_hit(self, *, stale_results: int = 0) -> None:
        """One query (or query hop) answered from a result cache."""
        self.cache_hits += 1
        self.cache_stale_served += stale_results

    def record_cache_miss(self) -> None:
        self.cache_misses += 1

    def record_drop(self, *, partition: bool = False) -> None:
        """One delivery lost to an injected fault."""
        self.dropped += 1
        if partition:
            self.partition_dropped += 1

    def record_duplicate(self) -> None:
        """One extra delivery produced by the duplication fault."""
        self.duplicated += 1

    def record_retry(self) -> None:
        """One retransmission (reliable envelope or download re-request)."""
        self.retries += 1

    def record_timeout(self) -> None:
        """One reliable exchange abandoned after exhausting its retries."""
        self.timeouts += 1

    def record_failover(self) -> None:
        """One download re-pointed at the next-ranked replica."""
        self.failovers += 1

    def record_routing_pruned(self, count: int = 1) -> None:
        """``count`` QUERY copies pruned by routing filters at one hop."""
        self.routing_pruned += count

    def record_routing_fallback(self) -> None:
        """One hop where no filter admitted and the blind fan-out ran."""
        self.routing_fallbacks += 1

    def record_routing_fp(self) -> None:
        """One filter-admitted fringe copy that found no local match."""
        self.routing_fp_forwards += 1

    def record_filter_advert(self, size_bytes: int) -> None:
        """One routing-filter advertisement piggybacked on a keepalive."""
        self.routing_filter_bytes += size_bytes

    def fault_summary(self) -> dict[str, int]:
        """The fault/recovery axis as one comparable dictionary."""
        return {
            "dropped": self.dropped,
            "partition_dropped": self.partition_dropped,
            "duplicated": self.duplicated,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "failovers": self.failovers,
        }

    def cache_hit_ratio(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    # ------------------------------------------------------------------
    @property
    def total_messages(self) -> int:
        return sum(self.messages_by_type.values())

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_type.values())

    # ------------------------------------------------------------------
    # Traffic breakdown: control (membership/maintenance) vs. query vs.
    # download, so experiments can chart overhead against availability.
    # ------------------------------------------------------------------
    def _class_totals(self, type_values: frozenset) -> tuple[int, int]:
        messages = sum(count for value, count in self.messages_by_type.items()
                       if value in type_values)
        size = sum(count for value, count in self.bytes_by_type.items()
                   if value in type_values)
        return messages, size

    @property
    def control_messages(self) -> int:
        return self._class_totals(CONTROL_TYPE_VALUES)[0]

    @property
    def control_bytes(self) -> int:
        return self._class_totals(CONTROL_TYPE_VALUES)[1]

    def traffic_breakdown(self) -> dict[str, dict[str, int]]:
        """Messages and bytes per traffic class; classes are disjoint
        and together cover every recorded message type."""
        breakdown = {}
        for name, values in (("control", CONTROL_TYPE_VALUES),
                             ("query", QUERY_TYPE_VALUES),
                             ("download", DOWNLOAD_TYPE_VALUES)):
            messages, size = self._class_totals(values)
            breakdown[name] = {"messages": messages, "bytes": size}
        return breakdown

    def control_fraction(self) -> float:
        """Control bytes as a fraction of all bytes on the wire."""
        total = self.total_bytes
        return self.control_bytes / total if total else 0.0

    def mean_staleness_ms(self) -> float:
        if not self.staleness_windows_ms:
            return 0.0
        return sum(self.staleness_windows_ms) / len(self.staleness_windows_ms)

    def max_staleness_ms(self) -> float:
        return max(self.staleness_windows_ms, default=0.0)

    def messages_of(self, message_type: MessageType) -> int:
        return self.messages_by_type[message_type.value]

    def mean_messages_per_query(self) -> float:
        if not self.queries:
            return 0.0
        return sum(record.messages for record in self.queries) / len(self.queries)

    def mean_latency_ms(self) -> float:
        if not self.queries:
            return 0.0
        return sum(record.latency_ms for record in self.queries) / len(self.queries)

    def mean_results_per_query(self) -> float:
        if not self.queries:
            return 0.0
        return sum(record.results for record in self.queries) / len(self.queries)

    def success_rate(self) -> float:
        """Fraction of queries that returned at least one result."""
        if not self.queries:
            return 0.0
        return sum(1 for record in self.queries if record.results > 0) / len(self.queries)

    def mean_download_latency_ms(self) -> float:
        if not self.download_records:
            return 0.0
        return sum(record.latency_ms for record in self.download_records) / len(self.download_records)

    def summary(self) -> dict[str, float]:
        """A flat dictionary used by the benchmark reports."""
        return {
            "queries": float(len(self.queries)),
            "total_messages": float(self.total_messages),
            "total_bytes": float(self.total_bytes),
            "mean_messages_per_query": self.mean_messages_per_query(),
            "mean_latency_ms": self.mean_latency_ms(),
            "mean_results_per_query": self.mean_results_per_query(),
            "success_rate": self.success_rate(),
            "downloads": float(self.downloads),
            "download_bytes": float(self.download_bytes),
            "mean_download_latency_ms": self.mean_download_latency_ms(),
            "registrations": float(self.registrations),
            "control_bytes": float(self.control_bytes),
            "control_messages": float(self.control_messages),
            "control_fraction": self.control_fraction(),
            "mean_staleness_ms": self.mean_staleness_ms(),
            "max_staleness_ms": self.max_staleness_ms(),
            "uptime_ms_total": self.uptime_ms_total,
            "cache_hits": float(self.cache_hits),
            "cache_misses": float(self.cache_misses),
            "cache_hit_ratio": self.cache_hit_ratio(),
            "cache_stale_served": float(self.cache_stale_served),
            "dropped": float(self.dropped),
            "partition_dropped": float(self.partition_dropped),
            "duplicated": float(self.duplicated),
            "retries": float(self.retries),
            "timeouts": float(self.timeouts),
            "failovers": float(self.failovers),
            "routing_pruned": float(self.routing_pruned),
            "routing_fallbacks": float(self.routing_fallbacks),
            "routing_fp_forwards": float(self.routing_fp_forwards),
            "routing_filter_bytes": float(self.routing_filter_bytes),
        }

    def merge(self, other: "NetworkStats") -> None:
        """Fold another stats object into this one, additively.

        Every counter, per-type breakdown, record list and staleness
        window adds; merging the disjoint per-worker shares of one run
        must reproduce the single-process whole exactly (the records
        themselves carry no ordering constraint — consumers that care
        sort by their own keys).
        """
        for spec in fields(self):
            mine, theirs = getattr(self, spec.name), getattr(other, spec.name)
            if isinstance(mine, Counter):
                mine.update(theirs)
            elif isinstance(mine, list):
                mine.extend(theirs)
            else:
                setattr(self, spec.name, mine + theirs)

    def reset(self) -> None:
        """Clear all counters (between experiment phases)."""
        for spec in fields(self):
            if spec.default is MISSING:
                # A breakdown or record list, emptied in place.
                getattr(self, spec.name).clear()
            else:
                setattr(self, spec.name, spec.default)
