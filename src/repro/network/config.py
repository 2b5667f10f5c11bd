"""The four frozen configuration groups of the network stack.

Each mechanism knob has exactly one home: a field of
:class:`CacheConfig`, :class:`MembershipConfig`,
:class:`ReliabilityConfig` or :class:`RoutingConfig`, which owns its
default, its validation and its doc-comment.
:class:`~repro.network.base.PeerNetwork` accepts the groups (``cache=``,
``membership=``, ``reliability=``, ``routing=``) and nothing flat; the
flat :class:`~repro.workloads.scenario.ScenarioConfig` takes its
defaults from the group classes, and its ``network_config()`` — what
``build_network`` hands the protocol constructor — is the one place
flat becomes grouped.

Fault injection stays a top-level ``faults=FaultPlan(...)`` knob: a
fault plan is a *workload* description (what the environment does to
the run), not a configuration of the network stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "CacheConfig",
    "MembershipConfig",
    "ReliabilityConfig",
    "RoutingConfig",
    "check_composition",
    "check_rendezvous_lease",
]


@dataclass(frozen=True)
class CacheConfig:
    """Query-result caching (the ``result_caching`` knob family)."""

    #: cache finished result sets at the protocol's traffic-concentration
    #: points; off is pinned bit-identical to uncached behaviour
    enabled: bool = False
    #: entries per cache site (LRU beyond this)
    capacity: int = 128
    #: cached-entry lifetime; keep at or below the heartbeat lease
    ttl_ms: float = 2_000.0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("the result cache needs room for at least one entry")
        if self.ttl_ms <= 0:
            raise ValueError("the result cache TTL must be positive")


#: a counterpart silent for this many maintenance intervals is presumed dead
HEARTBEAT_LEASE_INTERVALS = 2
#: hash functions per routing-filter key (crc32 double hashing)
ROUTING_HASH_COUNT = 4


@dataclass(frozen=True)
class MembershipConfig:
    """Live-membership maintenance (the ``live_membership`` knob family)."""

    #: make peer lifecycle real protocol traffic; off keeps the
    #: instantaneous ``set_online`` semantics bit-identically
    live: bool = False
    #: period of the maintenance tick (heartbeats, lease sweeps)
    maintenance_interval_ms: float = 2_000.0

    def __post_init__(self) -> None:
        if self.maintenance_interval_ms <= 0:
            raise ValueError("the maintenance interval must be positive")


@dataclass(frozen=True)
class ReliabilityConfig:
    """Reliable delivery and chunked downloads (the recovery stack)."""

    #: ACK + capped-exponential-backoff envelope around registration-
    #: style control traffic and download requests
    reliable_delivery: bool = False
    #: base ack timeout (doubles per attempt, capped at 8x)
    retry_timeout_ms: float = 250.0
    #: total send attempts per reliable message / download provider
    retry_max_attempts: int = 4
    #: ``None`` sends each stream of a download (the document, each
    #: attachment) as one piece, scheduled up front; a byte count streams
    #: them as paced chunks with stall detection and failover
    download_chunk_bytes: Optional[int] = None
    #: how long a download may stall before re-request / failover
    download_stall_timeout_ms: float = 500.0

    def __post_init__(self) -> None:
        if self.retry_timeout_ms <= 0:
            raise ValueError("the retry timeout must be positive")
        if self.retry_max_attempts < 1:
            raise ValueError("reliable delivery needs at least one attempt")
        if self.download_chunk_bytes is not None and self.download_chunk_bytes < 1:
            raise ValueError("download chunks must be at least one byte")
        if self.download_stall_timeout_ms <= 0:
            raise ValueError("the download stall timeout must be positive")


@dataclass(frozen=True)
class RoutingConfig:
    """Informed routing via attenuated Bloom filters (gnutella only)."""

    #: prune the flood with per-neighbour routing filters; off is
    #: pinned bit-identical to the blind flood by the contract suite
    informed: bool = False
    #: bits per Bloom-filter level (a multiple of 8: filters are
    #: advertised on the wire and sized in whole bytes)
    filter_bits: int = 512
    #: filter levels: level ``d`` summarizes content at overlay
    #: distance ``d``, so pruning bites at hops with remaining
    #: TTL <= depth (the flood fringe, where the messages are)
    depth: int = 3

    def __post_init__(self) -> None:
        if self.filter_bits < 8 or self.filter_bits % 8:
            raise ValueError("filter_bits must be a positive multiple of 8")
        if self.depth < 1:
            raise ValueError("the filter needs at least one level")


def check_composition(cache: CacheConfig, routing: RoutingConfig) -> None:
    """Refuse loudly rather than compose unsoundly: a pruned flood
    changes which path peers complete (and thus cache) a query, so
    cached repeats would become vantage-dependent and the "informed
    only saves messages" contract unprovable."""
    if routing.informed and cache.enabled:
        raise ValueError(
            "informed_routing does not compose with result_caching: "
            "pruning changes which peers fill their path caches; "
            "run the knobs separately")


def check_rendezvous_lease(lease_ms: float, membership: MembershipConfig) -> None:
    """Under live membership renewals fire at lease/2 but only when a
    maintenance tick runs; a lease shorter than two intervals would
    expire every advertisement before its renewal could be sent."""
    if lease_ms < 2 * membership.maintenance_interval_ms:
        raise ValueError("the advertisement lease must cover at least "
                         "two maintenance intervals under live membership")
