"""Scenario builders: a full experiment setup in one call.

A *scenario* is a network of a chosen protocol, a population of
servents, one or more bundled communities created and joined, a corpus
published across the peers, and a query workload — everything a
benchmark needs to measure a claim.

The query phase runs on the event kernel: with ``concurrency`` above
one, batches of queries are submitted at staggered virtual times and
stay in flight together, optionally while churn events (enabled with
``churn_session_ms``) strike mid-query.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.communities import ALL_COMMUNITIES
from repro.communities.base import CommunityDefinition
from repro.core.application import Application
from repro.core.servent import Servent
from repro.engine.driver import BatchOutcome, QueryDriver, RetrieveOp, SearchOp, WorkloadOp
from repro.network.base import PeerNetwork
from repro.network.centralized import CentralizedProtocol
from repro.network.config import (
    CacheConfig,
    MembershipConfig,
    ReliabilityConfig,
    RoutingConfig,
    check_composition,
    check_rendezvous_lease,
)
from repro.network.faults import FaultPlan
from repro.network.gnutella import GnutellaProtocol
from repro.network.membership import PopulationModel
from repro.network.rendezvous import RendezvousProtocol
from repro.network.superpeer import SuperPeerProtocol
from repro.workloads.popularity import ZipfDistribution
from repro.workloads.queries import QueryWorkload, build_query_workload

PROTOCOLS = {
    "centralized": CentralizedProtocol,
    "gnutella": GnutellaProtocol,
    "super-peer": SuperPeerProtocol,
    "rendezvous": RendezvousProtocol,
}

@dataclass
class ScenarioConfig:
    """Parameters of one experiment scenario."""

    protocol: str = "gnutella"
    peers: int = 50
    community: str = "design-patterns"
    corpus_size: int = 100
    publishers: int = 10
    members: int = 25
    queries: int = 50
    ttl: int = 7
    degree: int = 4
    super_peer_ratio: float = 0.1
    seed: int = 0
    #: how many queries are kept in flight together (1 = serial)
    concurrency: int = 1
    #: virtual-time stagger between submissions inside one batch
    query_interarrival_ms: float = 25.0
    #: enable churn on the non-member peers when set (mean session length)
    churn_session_ms: Optional[float] = None
    #: mean absence once a churning peer departs
    churn_absence_ms: float = 2_000.0
    #: fraction of workload operations that are downloads instead of
    #: searches (the paper's download-and-replicate load)
    retrieve_fraction: float = 0.0
    #: Zipf exponent of the download popularity distribution over the
    #: corpus (0 = uniform; 1+ = the skew early measurements reported)
    popularity_skew: float = 1.0
    # Mechanism knobs, flat here and grouped at the network: each takes
    # its default, validation and documentation from the field of
    # ``repro.network.config`` named on its line (``network_config``
    # below is the translation).
    #: ``MembershipConfig.live`` — the network goes live after bootstrap
    live_membership: bool = MembershipConfig.live
    #: ``MembershipConfig.maintenance_interval_ms``
    maintenance_interval_ms: float = MembershipConfig.maintenance_interval_ms
    #: advertisement lease of the rendezvous organisation
    #: (``RendezvousProtocol(lease_ms=...)``; the others ignore it)
    rendezvous_lease_ms: float = 30 * 60 * 1000.0
    #: ``CacheConfig.enabled``
    result_caching: bool = CacheConfig.enabled
    #: ``CacheConfig.capacity``
    cache_capacity: int = CacheConfig.capacity
    #: ``CacheConfig.ttl_ms``
    cache_ttl_ms: float = CacheConfig.ttl_ms
    #: probability that a workload position re-issues an earlier query
    #: verbatim (the repeat structure result caching feeds on); 0 keeps
    #: the historical workloads bit-identical
    query_repeat_alpha: float = 0.0
    #: event-queue shards.  1 (the default) keeps the single-queue
    #: simulator; N>1 runs the scenario on a ShardedSimulator whose
    #: windowed barrier is pinned bit-identical to shards=1 by the
    #: cross-shard determinism contract
    shards: int = 1
    #: host the shard queues in worker *processes* (see
    #: ``repro.engine.parallel``).  Requires ``shards > 1`` and an active
    #: worker runtime — drive through ``run_parallel_scenario``; the
    #: default keeps the in-process simulators and is the contract anchor
    parallel: bool = False
    #: deterministic fault plan (message loss, duplication, partitions,
    #: crash-stop failures) applied at delivery time; ``None`` (the
    #: default) keeps the fault-free path pinned bit-identical by the
    #: fault contract
    faults: Optional[FaultPlan] = None
    #: ``ReliabilityConfig.reliable_delivery``
    reliable_delivery: bool = ReliabilityConfig.reliable_delivery
    #: ``ReliabilityConfig.retry_timeout_ms``
    retry_timeout_ms: float = ReliabilityConfig.retry_timeout_ms
    #: ``ReliabilityConfig.retry_max_attempts``
    retry_max_attempts: int = ReliabilityConfig.retry_max_attempts
    #: ``ReliabilityConfig.download_chunk_bytes``
    download_chunk_bytes: Optional[int] = ReliabilityConfig.download_chunk_bytes
    #: ``ReliabilityConfig.download_stall_timeout_ms``
    download_stall_timeout_ms: float = ReliabilityConfig.download_stall_timeout_ms
    #: ``RoutingConfig.informed`` (gnutella only; the others ignore it)
    informed_routing: bool = RoutingConfig.informed
    #: ``RoutingConfig.filter_bits``
    routing_filter_bits: int = RoutingConfig.filter_bits
    #: ``RoutingConfig.depth``
    routing_depth: int = RoutingConfig.depth

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("need at least one shard")
        if self.parallel and self.shards < 2:
            raise ValueError("parallel execution needs shards > 1 to distribute")
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}; choose from {sorted(PROTOCOLS)}")
        if self.community not in ALL_COMMUNITIES:
            raise ValueError(f"unknown community {self.community!r}; choose from {sorted(ALL_COMMUNITIES)}")
        if self.peers < 2:
            raise ValueError("a scenario needs at least two peers")
        if not 1 <= self.publishers <= self.peers:
            raise ValueError("publishers must be between 1 and the peer count")
        if not self.publishers <= self.members <= self.peers:
            raise ValueError("members must be between publishers and the peer count")
        if self.concurrency < 1:
            raise ValueError("concurrency must be at least 1")
        if self.query_interarrival_ms < 0:
            raise ValueError("the query interarrival must be non-negative")
        if self.churn_session_ms is not None and self.churn_session_ms <= 0:
            raise ValueError("the mean churn session must be positive")
        if not 0.0 <= self.retrieve_fraction <= 1.0:
            raise ValueError("retrieve_fraction must be within [0, 1]")
        if self.popularity_skew < 0:
            raise ValueError("popularity_skew must be non-negative")
        if not 0.0 <= self.query_repeat_alpha <= 1.0:
            raise ValueError("query_repeat_alpha must be within [0, 1]")
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise TypeError("faults must be a FaultPlan or None")
        # Building the groups is the value validation of every knob.
        groups = self.network_config()
        check_composition(groups["cache"], groups["routing"])
        if self.live_membership and self.protocol == "rendezvous":
            check_rendezvous_lease(self.rendezvous_lease_ms, groups["membership"])

    def network_config(self) -> dict[str, object]:
        """The mechanism knobs as the ``cache=`` / ``membership=`` /
        ``reliability=`` / ``routing=`` keywords of a protocol
        constructor — the one place flat becomes grouped."""
        return dict(
            cache=CacheConfig(enabled=self.result_caching,
                              capacity=self.cache_capacity,
                              ttl_ms=self.cache_ttl_ms),
            membership=MembershipConfig(
                live=self.live_membership,
                maintenance_interval_ms=self.maintenance_interval_ms),
            reliability=ReliabilityConfig(
                reliable_delivery=self.reliable_delivery,
                retry_timeout_ms=self.retry_timeout_ms,
                retry_max_attempts=self.retry_max_attempts,
                download_chunk_bytes=self.download_chunk_bytes,
                download_stall_timeout_ms=self.download_stall_timeout_ms),
            routing=RoutingConfig(informed=self.informed_routing,
                                  filter_bits=self.routing_filter_bits,
                                  depth=self.routing_depth),
        )


@dataclass
class Scenario:
    """A fully built experiment scenario."""

    config: ScenarioConfig
    network: PeerNetwork
    servents: list[Servent]
    definition: CommunityDefinition
    applications: list[Application]
    corpus: list[dict[str, object]]
    workload: QueryWorkload
    resource_ids: list[str] = field(default_factory=list)
    churn: Optional[PopulationModel] = None
    #: set-up joiners whose community search found no ad, so they joined
    #: the founder's community locally instead of downloading it
    discovery_misses: int = 0

    @property
    def community_id(self) -> str:
        return self.applications[0].community.community_id

    def members(self) -> list[Servent]:
        """Servents that joined the community (searchers)."""
        return self.servents[: self.config.members]

    def run_queries(self, *, max_results: int = 100) -> list[int]:
        """Run the whole query workload round-robin over members.

        The driver submits the workload in batches of ``concurrency``
        queries kept in flight together on the event kernel (one at a
        time when it is one).  Returns the result count of each query
        (recall analysis happens against ``workload.expected_matches``).
        """
        members = self.members()
        ops = [
            SearchOp(origin_id=members[index % len(members)].peer_id, query=query)
            for index, query in enumerate(self.workload)
        ]
        driver = QueryDriver(self.network)
        counts: list[int] = []
        for start in range(0, len(ops), self.config.concurrency):
            outcome = driver.run_mixed(
                ops[start:start + self.config.concurrency],
                max_results=max_results,
                interarrival_ms=self.config.query_interarrival_ms,
            )
            counts.extend(outcome.result_counts)
        return counts

    def mixed_operations(self) -> list[WorkloadOp]:
        """The workload as a mixed op sequence, decided deterministically.

        Each position of the query workload either stays a search or —
        with probability ``retrieve_fraction`` — becomes a download of
        a corpus object drawn from a Zipf(``popularity_skew``)
        popularity distribution over the publication order.  Download
        providers are left unresolved (``provider_id=None``) so the
        driver resolves them at submission time against the replica set
        as it exists *then* — replicas created earlier in the run serve
        later downloads.
        """
        members = self.members()
        chooser = random.Random(f"mixed:{self.config.seed}")
        zipf = ZipfDistribution(max(1, len(self.resource_ids)),
                                exponent=self.config.popularity_skew,
                                seed=self.config.seed + 1)
        ops: list[WorkloadOp] = []
        for index, query in enumerate(self.workload):
            member = members[index % len(members)]
            if self.resource_ids and chooser.random() < self.config.retrieve_fraction:
                rank = zipf.sample()
                ops.append(RetrieveOp(requester_id=member.peer_id,
                                      resource_id=self.resource_ids[rank]))
            else:
                ops.append(SearchOp(origin_id=member.peer_id, query=query))
        return ops

    def run_mixed_workload(self, *, max_results: int = 100) -> BatchOutcome:
        """Run the workload with searches and downloads concurrently in
        flight (honouring ``retrieve_fraction`` / ``popularity_skew``).

        Operations run in batches of ``concurrency`` on the event
        kernel; inside a batch, downloads interleave with searches (and
        churn) on the shared clock without perturbing their latencies.
        Returns the merged :class:`~repro.engine.driver.BatchOutcome`.
        """
        ops = self.mixed_operations()
        driver = QueryDriver(self.network)
        outcome = BatchOutcome()
        step = max(1, self.config.concurrency)
        for start in range(0, len(ops), step):
            outcome.merge(driver.run_mixed(
                ops[start:start + step],
                max_results=max_results,
                interarrival_ms=self.config.query_interarrival_ms,
            ))
        return outcome

    def replication_degrees(self) -> list[int]:
        """Replication degree per corpus object, in popularity-rank order."""
        return [self.network.replication_degree(resource_id)
                for resource_id in self.resource_ids]


def build_network(config: ScenarioConfig) -> PeerNetwork:
    """Instantiate the protocol named by ``config`` with its knobs.

    The network is always built with live membership *off* — bootstrap
    (overlay construction, elections, corpus publication) is structural
    setup, not measured traffic; ``build_scenario`` calls ``go_live()``
    right before the workload when the knob is set.
    """
    common = dict(config.network_config(), seed=config.seed,
                  shards=config.shards, parallel=config.parallel)
    common["membership"] = replace(common["membership"], live=False)
    if config.protocol == "gnutella":
        return GnutellaProtocol(default_ttl=config.ttl, degree=config.degree, **common)
    if config.protocol == "super-peer":
        return SuperPeerProtocol(super_peer_ratio=config.super_peer_ratio, **common)
    if config.protocol == "rendezvous":
        return RendezvousProtocol(rendezvous_ratio=config.super_peer_ratio,
                                  lease_ms=config.rendezvous_lease_ms, **common)
    return CentralizedProtocol(**common)


def build_scenario(config: Optional[ScenarioConfig] = None, **overrides) -> Scenario:
    """Build a complete scenario from ``config`` (or keyword overrides)."""
    config = ScenarioConfig(**overrides) if config is None else replace(config, **overrides)
    network = build_network(config)
    servents = [Servent(f"peer-{index:04d}", network) for index in range(config.peers)]

    definition = ALL_COMMUNITIES[config.community]()
    founder_app = definition.application_on(servents[0])

    # Members 1..members-1 discover the community in the root community
    # and join it; the remaining peers only relay traffic.
    applications = [founder_app]
    discovery_misses = 0
    for servent in servents[1:config.members]:
        discovery = servent.search_communities(definition.keywords.split()[0])
        matches = [result for result in discovery.results if result.title == definition.name]
        if not matches:
            discovery_misses += 1
            community = founder_app.community
            servent.join_community(community)
        else:
            community = servent.join_community(matches[0])
        applications.append(Application(servent, community))

    if isinstance(network, GnutellaProtocol):
        network.build_overlay()
    if isinstance(network, SuperPeerProtocol):
        network.elect_super_peers()
    if isinstance(network, RendezvousProtocol):
        network.elect_rendezvous()

    corpus = definition.sample_corpus(config.corpus_size, seed=config.seed)
    publishers = applications[: config.publishers]
    resource_ids: list[str] = []
    for index, record in enumerate(corpus):
        application = publishers[index % len(publishers)]
        resource = application.publish(record)
        resource_ids.append(resource.resource_id)

    community_id = founder_app.community.community_id
    searchable = [info.path for info in founder_app.community.schema.searchable_fields()]
    workload = build_query_workload(
        community_id,
        corpus,
        count=config.queries,
        searchable_fields=[path for path in searchable if "/" not in path] or None,
        repeat_alpha=config.query_repeat_alpha,
        seed=config.seed,
    )

    if config.live_membership:
        # From here on, lifecycle is protocol traffic: maintenance
        # timers start ticking and every population change below costs
        # real messages on the kernel.
        network.go_live()

    churn: Optional[PopulationModel] = None
    if config.churn_session_ms is not None:
        # The searchers (members) stay up; the relay population churns,
        # with departures and returns interleaved into the query phase
        # on the shared event queue.
        churn = PopulationModel(
            network,
            mean_session_ms=config.churn_session_ms,
            mean_absence_ms=config.churn_absence_ms,
            seed=config.seed,
        )
        churn.start([servent.peer_id for servent in servents[config.members:]])

    if config.faults is not None:
        # Faults arm only now: bootstrap (overlay construction, corpus
        # publication, community joins) is structural setup, so the plan
        # describes the measured workload environment and its window /
        # crash times count from the start of the query phase.
        network.install_faults(config.faults)

    # Reset the statistics so experiments measure the query phase only,
    # not community creation and publishing.  Session clocks restart at
    # the same boundary so uptime accounting covers the workload window,
    # not the (long, search-heavy) bootstrap phase.
    network.stats.reset()
    for peer in network.peers.values():
        if peer.online:
            peer.online_since = network.simulator.now
    return Scenario(
        config=config,
        network=network,
        servents=servents,
        definition=definition,
        applications=applications,
        corpus=corpus,
        workload=workload,
        resource_ids=resource_ids,
        churn=churn,
        discovery_misses=discovery_misses,
    )
