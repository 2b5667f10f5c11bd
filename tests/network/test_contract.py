"""Contract tests every protocol adapter must pass on the event kernel.

The four network organisations are interchangeable strategies over the
same message-dispatch substrate.  This suite pins down the substrate
contract: searches are event cascades with measurable latency, queries
can overlap in flight, churn can strike mid-query without breaking
anything, replicas made by retrieve survive the original provider, and
a fixed seed makes whole concurrent workloads bit-for-bit repeatable.
"""

from __future__ import annotations

import pytest

from repro.engine.driver import QueryDriver, RetrieveOp, SearchOp
from repro.network.centralized import CentralizedProtocol
from repro.network.config import CacheConfig, MembershipConfig
from repro.network.errors import DuplicatePeerError
from repro.network.gnutella import GnutellaProtocol
from repro.network.membership import PopulationModel
from repro.network.rendezvous import RendezvousProtocol
from repro.network.superpeer import SuperPeerProtocol
from repro.storage.query import Query
from repro.workloads.scenario import ScenarioConfig, build_scenario
from repro.xmlkit.parser import parse


def make_network(name: str):
    if name == "centralized":
        return CentralizedProtocol(seed=7)
    if name == "gnutella":
        # A ring stays connected when any single peer drops out, which
        # keeps the churn contracts below deterministic.
        return GnutellaProtocol(seed=7, default_ttl=20, degree=2, topology_kind="ring")
    if name == "super-peer":
        return SuperPeerProtocol(seed=7, super_peer_ratio=0.2)
    return RendezvousProtocol(seed=7, rendezvous_ratio=0.2)


PROTOCOL_NAMES = ("centralized", "gnutella", "super-peer", "rendezvous")


def publish_pattern(network, peer_id, name, intent="decouple things"):
    peer = network.peer(peer_id)
    document = parse(f"<pattern><name>{name}</name><intent>{intent}</intent></pattern>").root
    metadata = {"name": [name], "intent": [intent]}
    result = peer.repository.publish("patterns", document, metadata, title=name)
    network.publish(peer_id, "patterns", result.resource_id, metadata, title=name)
    return result.resource_id


def populate(network, peer_count=12):
    for index in range(peer_count):
        network.create_peer(f"peer-{index:03d}")
    if isinstance(network, GnutellaProtocol):
        network.build_overlay()
    if isinstance(network, SuperPeerProtocol):
        network.elect_super_peers()
    if isinstance(network, RendezvousProtocol):
        network.elect_rendezvous()


@pytest.fixture(params=PROTOCOL_NAMES)
def protocol_network(request):
    return make_network(request.param)


class TestKernelContract:
    """The event-driven substrate behaves the same under every protocol."""

    def test_start_search_returns_inflight_context(self, protocol_network):
        populate(protocol_network)
        publish_pattern(protocol_network, "peer-005", "Observer")
        context = protocol_network.start_search(
            "peer-002", Query.keyword("patterns", "observer"))
        # The query has messages in flight until the kernel runs it.
        assert not context.done
        protocol_network.kernel.run_until_complete([context])
        assert context.done
        response = protocol_network.finish_search(context)
        assert response.result_count >= 1
        assert response.latency_ms > 0

    def test_search_advances_virtual_time(self, protocol_network):
        populate(protocol_network)
        publish_pattern(protocol_network, "peer-005", "Observer")
        before = protocol_network.simulator.now
        response = protocol_network.search("peer-002", Query.keyword("patterns", "observer"))
        assert protocol_network.simulator.now >= before + response.latency_ms

    def test_queries_overlap_in_flight(self, protocol_network):
        populate(protocol_network)
        publish_pattern(protocol_network, "peer-005", "Observer")
        first = protocol_network.start_search("peer-002", Query.keyword("patterns", "observer"))
        second = protocol_network.start_search("peer-003", Query.keyword("patterns", "observer"))
        assert not first.done and not second.done
        protocol_network.kernel.run_until_complete([first, second])
        for context in (first, second):
            response = protocol_network.finish_search(context)
            assert any(result.provider_id == "peer-005" for result in response.results)
        assert len(protocol_network.stats.queries) == 2

    def test_churn_mid_query_completes_without_error(self, protocol_network):
        populate(protocol_network)
        publish_pattern(protocol_network, "peer-005", "Observer")
        publish_pattern(protocol_network, "peer-007", "Observer Twin")
        context = protocol_network.start_search(
            "peer-002", Query.keyword("patterns", "observer"), max_results=50)
        # Knock a provider offline while the query's messages are still
        # in flight: the cascade must still quiesce deterministically.
        protocol_network.simulator.post(
            1.0, lambda: protocol_network.set_online("peer-007", False))
        protocol_network.kernel.run_until_complete([context])
        assert context.done
        protocol_network.finish_search(context)

    def test_origin_churning_mid_query_receives_no_results(self, protocol_network):
        """Hits count on *arrival*: if the origin churns offline before a
        generated QUERY-HIT reaches it, the dropped delivery must not
        have contributed results — even though remote peers matched."""
        populate(protocol_network)
        publish_pattern(protocol_network, "peer-005", "Observer")
        publish_pattern(protocol_network, "peer-007", "Observer Twin")
        context = protocol_network.start_search(
            "peer-002", Query.keyword("patterns", "observer"), max_results=50)
        # The origin departs before any hit can arrive (hits need at
        # least one full round trip, i.e. tens of virtual milliseconds).
        protocol_network.simulator.post(
            0.5, lambda: protocol_network.set_online("peer-002", False))
        protocol_network.kernel.run_until_complete([context])
        assert context.done
        response = protocol_network.finish_search(context)
        assert response.result_count == 0

    def test_origin_answers_its_own_matches_at_hop_zero(self, protocol_network):
        """Every organisation opens a search in the origin's own index:
        its matching objects come back at ``hops == 0``, and no index
        point hands them back a second time."""
        populate(protocol_network)
        own = publish_pattern(protocol_network, "peer-002", "Observer Local")
        remote = publish_pattern(protocol_network, "peer-005", "Observer")
        response = protocol_network.search(
            "peer-002", Query.keyword("patterns", "observer"), max_results=50)
        hits = sorted((result.hops, result.provider_id, result.resource_id)
                      for result in response.results)
        assert [hit[1:] for hit in hits] == [("peer-002", own), ("peer-005", remote)]
        assert hits[0][0] == 0 < hits[1][0]

    @pytest.mark.parametrize("name", ("super-peer", "rendezvous"))
    def test_hub_claims_nothing_once_the_origin_filled_max_results(self, name):
        """Room is checked *before* a hub appends: when the origin's
        own matches already fill ``max_results``, no hub ships a
        QUERY-HIT the origin would have to discard."""
        network = make_network(name)
        populate(network)
        publish_pattern(network, "peer-005", "Observer")
        publish_pattern(network, "peer-005", "Observer Twin")
        publish_pattern(network, "peer-007", "Observer Triplet")
        response = network.search("peer-005", Query.keyword("patterns", "observer"),
                                  max_results=2)
        assert len(response.results) == 2
        assert "query-hit" not in network.stats.messages_by_type

    def test_duplicate_peer_rejected(self, protocol_network):
        protocol_network.create_peer("dup")
        with pytest.raises(DuplicatePeerError):
            protocol_network.create_peer("dup")


class TestReplicationUnderChurn:
    """Satellite contract: a replica announced by ``retrieve`` stays
    findable after the original provider goes offline."""

    @pytest.mark.parametrize("name", PROTOCOL_NAMES)
    def test_replica_survives_provider_departure(self, name):
        network = make_network(name)
        populate(network)
        provider, requester, watcher = "peer-011", "peer-006", "peer-002"
        resource_id = publish_pattern(network, provider, "Unique Replicated Pattern",
                                      "survives churn")

        found = network.search(requester, Query.keyword("patterns", "replicated"),
                               max_results=50)
        hit = next(result for result in found.results if result.provider_id == provider)
        network.retrieve(requester, provider, hit.resource_id)
        assert network.peer(requester).repository.documents.contains(resource_id)

        network.set_online(provider, False)
        again = network.search(watcher, Query.keyword("patterns", "replicated"),
                               max_results=50)
        providers = {result.provider_id for result in again.results
                     if result.resource_id == resource_id}
        assert requester in providers
        assert provider not in providers

    @pytest.mark.parametrize("name", PROTOCOL_NAMES)
    def test_replica_survives_under_running_churn(self, name):
        """Same property while a churn model drives the rest of the
        population on the shared event queue."""
        network = make_network(name)
        populate(network)
        provider, requester, watcher = "peer-011", "peer-006", "peer-002"
        resource_id = publish_pattern(network, provider, "Churnproof Pattern", "still here")

        churn = PopulationModel(network, mean_session_ms=5_000, mean_absence_ms=1_000, seed=3)
        churn.start(["peer-008", "peer-009", "peer-010"])

        found = network.search(requester, Query.keyword("patterns", "churnproof"),
                               max_results=50)
        hits = [result for result in found.results if result.provider_id == provider]
        assert hits, "provider must be visible before it departs"
        network.retrieve(requester, provider, hits[0].resource_id)
        network.set_online(provider, False)

        again = network.search(watcher, Query.keyword("patterns", "churnproof"),
                               max_results=50)
        providers = {result.provider_id for result in again.results
                     if result.resource_id == resource_id}
        assert requester in providers


class TestRetrieveComposition:
    """Acceptance: retrieval composes with in-flight queries
    deterministically.  A download taken mid-batch schedules its own
    events on the shared queue but never mutates the clock, so every
    concurrent query's measured latency is bit-identical to a batch run
    without the download."""

    SEARCHERS = ("peer-001", "peer-002", "peer-003", "peer-004", "peer-006", "peer-008")

    def run_batch(self, name: str, *, with_download: bool):
        network = make_network(name)
        populate(network)
        publish_pattern(network, "peer-005", "Observer")
        publish_pattern(network, "peer-007", "Observer Twin")
        # The download target matches no concurrent query, so the only
        # possible interference would be through the clock or the queue.
        payload_id = publish_pattern(network, "peer-009", "Payload Blob",
                                     "unrelated binary")
        ops = [SearchOp(origin_id, Query.keyword("patterns", "observer"))
               for origin_id in self.SEARCHERS]
        if with_download:
            # Appended, so every search keeps its exact submission time;
            # the download is submitted at 30 ms while the searches
            # (latencies well beyond that) are still in flight, and its
            # request/response/transfer events interleave with theirs.
            ops.append(RetrieveOp(requester_id="peer-010", resource_id=payload_id,
                                  provider_id="peer-009"))
        outcome = QueryDriver(network).run_mixed(ops, interarrival_ms=5.0)
        assert outcome.failed == 0 and outcome.retrieve_failures == 0
        if with_download:
            assert outcome.retrieves[0] is not None
            assert network.peer("peer-010").repository.documents.contains(payload_id)
        return {
            "latencies": [response.latency_ms for response in outcome.responses],
            "counts": [response.result_count for response in outcome.responses],
            "probed": [response.peers_probed for response in outcome.responses],
        }

    @pytest.mark.parametrize("name", PROTOCOL_NAMES)
    def test_download_mid_batch_leaves_query_latencies_bit_identical(self, name):
        without = self.run_batch(name, with_download=False)
        with_download = self.run_batch(name, with_download=True)
        assert with_download == without


class TestConcurrentDeterminism:
    """Acceptance: ≥8 queries in flight under churn, bit-for-bit
    repeatable for a fixed seed."""

    CONFIG = dict(
        protocol="gnutella",
        peers=30,
        members=12,
        publishers=6,
        corpus_size=40,
        queries=16,
        ttl=6,
        seed=23,
        concurrency=8,
        query_interarrival_ms=20.0,
        churn_session_ms=4_000.0,
        churn_absence_ms=1_500.0,
    )

    def run_once(self, **overrides):
        scenario = build_scenario(ScenarioConfig(**{**self.CONFIG, **overrides}))
        counts = scenario.run_queries(max_results=100)
        stats = scenario.network.stats
        return {
            "counts": counts,
            "total_messages": stats.total_messages,
            "total_bytes": stats.total_bytes,
            "by_type": dict(stats.messages_by_type),
            "latencies": [round(record.latency_ms, 6) for record in stats.queries],
        }

    def test_concurrent_churned_run_is_deterministic(self):
        first = self.run_once()
        second = self.run_once()
        assert first == second
        assert len(first["counts"]) == self.CONFIG["queries"]
        assert first["total_messages"] > 0

    @pytest.mark.parametrize("protocol", ("centralized", "super-peer", "rendezvous"))
    def test_other_protocols_deterministic_too(self, protocol):
        first = self.run_once(protocol=protocol)
        second = self.run_once(protocol=protocol)
        assert first == second

    def test_concurrency_keeps_queries_overlapped(self):
        """With stagger shorter than flood latency, later queries start
        before earlier ones end: total elapsed virtual time is shorter
        than the sum of individual latencies."""
        scenario = build_scenario(ScenarioConfig(**{**self.CONFIG,
                                                    "churn_session_ms": None}))
        before = scenario.network.simulator.now
        scenario.run_queries(max_results=100)
        elapsed = scenario.network.simulator.now - before
        total_latency = sum(record.latency_ms for record in scenario.network.stats.queries)
        assert elapsed < total_latency


class TestMembershipContract:
    """Acceptance: with ``live_membership=False`` (the default) every
    protocol reproduces today's results bit-identically — the knob and
    its plumbing must leak nothing.  With it on, membership traffic is
    bit-for-bit reproducible for a fixed seed and the stats split
    cleanly into control / query / download classes."""

    CONFIG = dict(
        peers=30,
        members=12,
        publishers=6,
        corpus_size=40,
        queries=16,
        ttl=6,
        seed=23,
        concurrency=8,
        query_interarrival_ms=20.0,
        churn_session_ms=1_500.0,
        churn_absence_ms=800.0,
    )

    def signature(self, **overrides):
        scenario = build_scenario(ScenarioConfig(**{**self.CONFIG, **overrides}))
        counts = scenario.run_queries(max_results=100)
        stats = scenario.network.stats
        return {
            "counts": counts,
            "total_messages": stats.total_messages,
            "total_bytes": stats.total_bytes,
            "by_type": dict(stats.messages_by_type),
            "bytes_by_type": dict(stats.bytes_by_type),
            "latencies": [round(record.latency_ms, 6) for record in stats.queries],
            "staleness": tuple(stats.staleness_windows_ms),
        }

    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    def test_live_off_is_bit_identical_regardless_of_knobs(self, protocol):
        """The default run and an explicit live_membership=False run with
        different maintenance settings must agree on everything pinned:
        results, message counts, byte counts, latencies."""
        default = self.signature(protocol=protocol)
        explicit = self.signature(protocol=protocol, live_membership=False,
                                  maintenance_interval_ms=123.0,
                                  rendezvous_lease_ms=5_000.0)
        assert default == explicit
        assert default["by_type"].keys() <= {"query", "query-hit", "register"}

    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    def test_live_membership_traffic_is_deterministic(self, protocol):
        first = self.signature(protocol=protocol, live_membership=True,
                               maintenance_interval_ms=250.0,
                               rendezvous_lease_ms=1_000.0)
        second = self.signature(protocol=protocol, live_membership=True,
                                maintenance_interval_ms=250.0,
                                rendezvous_lease_ms=1_000.0)
        assert first == second
        # Live mode genuinely emitted lifecycle traffic.
        control_types = set(first["by_type"]) - {"query", "query-hit"}
        assert control_types, "live membership must cost control messages"

    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    def test_traffic_breakdown_partitions_all_bytes(self, protocol):
        scenario = build_scenario(ScenarioConfig(
            protocol=protocol, live_membership=True,
            maintenance_interval_ms=250.0, rendezvous_lease_ms=1_000.0,
            **self.CONFIG))
        scenario.run_queries(max_results=100)
        stats = scenario.network.stats
        breakdown = stats.traffic_breakdown()
        assert sum(cls["messages"] for cls in breakdown.values()) == stats.total_messages
        assert sum(cls["bytes"] for cls in breakdown.values()) == stats.total_bytes
        assert breakdown["control"]["bytes"] > 0

    def test_no_lifecycle_transition_touches_the_clock(self):
        """Joins, departures and maintenance move state only through
        queue events: submitting them leaves ``simulator.now`` frozen
        until the kernel processes the queue."""
        network = SuperPeerProtocol(
            seed=7, super_peer_ratio=0.2,
            membership=MembershipConfig(maintenance_interval_ms=250.0))
        populate(network)
        network.go_live()
        before = network.simulator.now
        network.set_online("peer-003", False)
        network.set_online("peer-003", True)
        network.create_peer("late-arrival")
        network.depart("peer-004", graceful=True)
        assert network.simulator.now == before


class TestRendezvousLeaseUnderChurnContract:
    """Satellite contract: an advertisement expiring while its owner is
    offline stays gone until the owner returns and re-advertises —
    organically under live membership."""

    def test_expiry_and_repair_compose_with_churn(self):
        network = RendezvousProtocol(
            seed=7, rendezvous_ratio=0.2, lease_ms=900.0,
            membership=MembershipConfig(maintenance_interval_ms=200.0))
        populate(network)
        resource_id = publish_pattern(network, "peer-005", "Leased Observer")
        network.go_live()
        # Background churn on unrelated peers keeps the queue busy.
        churn = PopulationModel(network, mean_session_ms=700, mean_absence_ms=500, seed=4)
        churn.start(["peer-008", "peer-009", "peer-010"])

        network.set_online("peer-005", False)
        network.simulator.run(until_ms=network.simulator.now + 4_000)
        gone = network.search("peer-002", Query.keyword("patterns", "leased"),
                              max_results=20)
        assert not any(result.resource_id == resource_id for result in gone.results)
        assert network.stats.staleness_windows_ms

        network.set_online("peer-005", True)
        network.simulator.run(until_ms=network.simulator.now + 600)
        back = network.search("peer-002", Query.keyword("patterns", "leased"),
                              max_results=20)
        assert any(result.resource_id == resource_id for result in back.results)


class TestResultCacheContract:
    """Acceptance: with ``result_caching=False`` (the default) every
    protocol reproduces the uncached behaviour bit-identically —
    results, message counts, byte counts — whatever the cache knobs
    say.  With it on, runs stay deterministic, repeat-heavy workloads
    cost measurably fewer messages, and a stale cached hit never
    outlives the membership staleness window."""

    CONFIG = dict(
        peers=30,
        members=12,
        publishers=6,
        corpus_size=40,
        queries=24,
        ttl=6,
        seed=23,
        concurrency=6,
        query_interarrival_ms=20.0,
        query_repeat_alpha=0.6,
    )

    def signature(self, **overrides):
        scenario = build_scenario(ScenarioConfig(**{**self.CONFIG, **overrides}))
        counts = scenario.run_queries(max_results=100)
        stats = scenario.network.stats
        return {
            "counts": counts,
            "total_messages": stats.total_messages,
            "total_bytes": stats.total_bytes,
            "by_type": dict(stats.messages_by_type),
            "bytes_by_type": dict(stats.bytes_by_type),
            "latencies": [round(record.latency_ms, 6) for record in stats.queries],
            "cache": (stats.cache_hits, stats.cache_misses, stats.cache_stale_served),
        }

    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    def test_caching_off_is_bit_identical_regardless_of_knobs(self, protocol):
        """The knob plumbing must leak nothing: a default run and an
        explicit caching-off run with exotic cache knobs agree on
        everything pinned, and no cache counter ever moves."""
        default = self.signature(protocol=protocol)
        explicit = self.signature(protocol=protocol, result_caching=False,
                                  cache_capacity=2, cache_ttl_ms=37.0)
        assert default == explicit
        assert default["cache"] == (0, 0, 0)

    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    def test_caching_on_is_deterministic(self, protocol):
        first = self.signature(protocol=protocol, result_caching=True)
        second = self.signature(protocol=protocol, result_caching=True)
        assert first == second

    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    def test_caching_on_deterministic_under_live_membership_and_churn(self, protocol):
        overrides = dict(protocol=protocol, result_caching=True,
                         live_membership=True, maintenance_interval_ms=250.0,
                         rendezvous_lease_ms=1_000.0, cache_ttl_ms=500.0,
                         churn_session_ms=1_500.0, churn_absence_ms=800.0)
        assert self.signature(**overrides) == self.signature(**overrides)

    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    def test_repeat_heavy_workload_saves_messages(self, protocol):
        off = self.signature(protocol=protocol)
        on = self.signature(protocol=protocol, result_caching=True)
        hits, misses, _ = on["cache"]
        assert hits > 0, "a repeat-heavy workload must produce cache hits"
        assert on["total_messages"] <= off["total_messages"]
        if protocol in ("gnutella", "super-peer"):
            # The organisations that broadcast per query must save real
            # traffic; the centralized round trip costs 2 messages with
            # or without the server cache.
            assert on["total_messages"] < off["total_messages"]

    # ------------------------------------------------------------------
    # Invalidation: graceful departure vs. crash churn
    # ------------------------------------------------------------------
    def make_cached_centralized(self):
        network = CentralizedProtocol(
            seed=7, cache=CacheConfig(enabled=True, ttl_ms=60_000.0),
            membership=MembershipConfig(maintenance_interval_ms=400.0))
        populate(network)
        publish_pattern(network, "peer-005", "Observer")
        publish_pattern(network, "peer-007", "Observer Twin")
        network.go_live()
        return network

    @staticmethod
    def providers_of(network, origin="peer-002"):
        response = network.search(origin, Query.keyword("patterns", "observer"),
                                  max_results=50)
        return {result.provider_id for result in response.results}

    def test_graceful_departure_invalidates_without_staleness(self):
        """A graceful goodbye (UNREGISTER traffic) reaches the server
        and kills the cached answers naming the departed provider: no
        stale hit is ever served."""
        network = self.make_cached_centralized()
        assert "peer-005" in self.providers_of(network)  # fills the cache
        network.depart("peer-005", graceful=True)
        network.simulator.run(until_ms=network.simulator.now + 300.0)
        assert "peer-005" not in self.providers_of(network)
        assert network.stats.cache_stale_served == 0

    def test_crash_stale_hit_is_bounded_by_the_membership_window(self):
        """A crash leaves the cached answer stale — the hit may name the
        dead provider — but only until the server's heartbeat lease
        purges it, the same staleness window the membership layer
        already reports.  The cache TTL here is 60 s, so the repair is
        genuinely traffic-driven, not a timeout."""
        network = self.make_cached_centralized()
        assert "peer-005" in self.providers_of(network)
        network.set_online("peer-005", False)  # crash: no goodbye traffic
        assert "peer-005" in self.providers_of(network)  # served stale
        assert network.stats.cache_stale_served > 0
        # One heartbeat lease (2 x 400 ms) later the server purges the
        # silent peer and the cached answers die with its registrations.
        network.simulator.run(until_ms=network.simulator.now + 2_500.0)
        assert "peer-005" not in self.providers_of(network)
        assert network.stats.staleness_windows_ms

    def test_crash_stale_hit_bounded_at_the_entry_super(self):
        """Same contract at a super-peer's leaf fan-in cache: the purge
        of a silent leaf's records invalidates the cached answers that
        named it."""
        network = SuperPeerProtocol(seed=7, super_peer_ratio=0.2,
                                    cache=CacheConfig(enabled=True, ttl_ms=60_000.0),
                                    membership=MembershipConfig(maintenance_interval_ms=400.0))
        populate(network)
        publish_pattern(network, "peer-005", "Observer")
        network.go_live()
        home = network.peer("peer-005").super_peer_id
        origin = sorted(network.leaves_of(home) - {"peer-005"})[0]
        assert "peer-005" in self.providers_of(network, origin)  # fills entry cache
        network.set_online("peer-005", False)
        assert "peer-005" in self.providers_of(network, origin)  # served stale
        assert network.stats.cache_stale_served > 0
        network.simulator.run(until_ms=network.simulator.now + 2_500.0)
        assert "peer-005" not in self.providers_of(network, origin)
        assert network.stats.staleness_windows_ms

    def test_crash_stale_hit_bounded_by_ttl_in_gnutella(self):
        """Nobody announces a flooding peer's crash, so the origin's
        cached answer stays stale exactly one TTL — the bound the knob
        documentation demands stays at or below the membership lease."""
        network = GnutellaProtocol(seed=7, default_ttl=20, degree=2,
                                   topology_kind="ring",
                                   cache=CacheConfig(enabled=True, ttl_ms=1_000.0))
        populate(network)
        publish_pattern(network, "peer-005", "Observer")
        assert "peer-005" in self.providers_of(network)  # fills the origin cache
        network.set_online("peer-005", False)
        assert "peer-005" in self.providers_of(network)  # stale within the TTL
        assert network.stats.cache_stale_served > 0
        network.simulator.run(until_ms=network.simulator.now + 1_500.0)
        assert "peer-005" not in self.providers_of(network)  # fresh re-flood

    def test_shallow_flood_never_answers_a_deeper_repeat(self):
        """The flood TTL scopes the gnutella cache key: a ttl=1 search
        that found nothing (and negative-cached the miss) must not
        satisfy a later deep search for the same query."""
        network = GnutellaProtocol(seed=7, default_ttl=20, degree=2,
                                   topology_kind="ring",
                                   cache=CacheConfig(enabled=True, ttl_ms=60_000.0))
        populate(network)
        publish_pattern(network, "peer-006", "Observer")  # 6 hops from peer-000
        shallow = network.search("peer-000", Query.keyword("patterns", "observer"),
                                 max_results=50, ttl=1)
        assert not shallow.results  # out of a ttl=1 flood's reach
        deep = network.search("peer-000", Query.keyword("patterns", "observer"),
                              max_results=50, ttl=20)
        assert {result.provider_id for result in deep.results} == {"peer-006"}

    def test_cached_serving_never_claims_room_for_results_the_origin_holds(self):
        """A path-cache serving filters results the origin already has
        *before* slicing to the claimable room; otherwise the one slot
        of room is burned on a duplicate the origin's arrival dedup
        drops, and a distinct cached result sitting behind it in the
        entry is never served at all."""
        network = GnutellaProtocol(seed=7, default_ttl=20, degree=2,
                                   topology_kind="ring",
                                   cache=CacheConfig(enabled=True, ttl_ms=60_000.0))
        populate(network)
        publish_pattern(network, "peer-001", "Observer")
        publish_pattern(network, "peer-005", "Observer Twin")
        query = Query.keyword("patterns", "observer")
        # peer-000's search caches both answers, peer-001's first (it
        # arrives from one hop away, peer-005's from four).
        first = network.search("peer-000", query, max_results=2)
        assert {result.provider_id for result in first.results} \
            == {"peer-001", "peer-005"}
        # peer-005 crashes: its answer now exists only in the cache
        # (nobody announces the crash, so the entry survives).
        network.set_online("peer-005", False)
        # peer-001 repeats the query with room for exactly one result
        # beyond its own local copy.  The serving at peer-000 must spend
        # that room on peer-005's result — sliced naively, the entry
        # leads with peer-001's own duplicate and the repeat comes back
        # one result short.
        repeat = network.search("peer-001", query, max_results=2)
        assert {result.provider_id for result in repeat.results} \
            == {"peer-001", "peer-005"}
        assert network.stats.cache_stale_served > 0

    def test_cached_serving_and_direct_answer_never_promise_twice(self):
        """The in-flight race: one flood branch serves a provider's
        result from a path cache while another branch reaches the
        provider itself.  Both claiming the same (provider, resource)
        would spend ``max_results`` twice on one result and silence the
        peer holding the other match — caching on must return exactly
        what caching off does here."""
        def build(caching):
            network = GnutellaProtocol(seed=7, default_ttl=20, degree=2,
                                       topology_kind="ring",
                                       cache=CacheConfig(enabled=caching, ttl_ms=60_000.0))
            populate(network, peer_count=8)
            network.build_overlay()
            publish_pattern(network, "peer-002", "Observer")
            query = Query.keyword("patterns", "observer")
            network.search("peer-007", query, max_results=2)  # warms 007's cache
            publish_pattern(network, "peer-003", "Observer Twin")
            return {result.provider_id
                    for result in network.search("peer-000", query, max_results=2).results}

        assert build(True) == build(False) == {"peer-002", "peer-003"}

    def test_direct_answer_filters_promised_results_before_the_room_limit(self):
        """A provider whose first match was already promised by a path
        cache must spend its room slot on the *fresh* match: slicing
        local matches to room before filtering would hand the slot to
        the promised duplicate and silently drop the new result."""
        network = GnutellaProtocol(seed=7, default_ttl=20, degree=2,
                                   topology_kind="ring",
                                   cache=CacheConfig(enabled=True, ttl_ms=60_000.0))
        populate(network, peer_count=8)
        network.build_overlay()
        cached_id = publish_pattern(network, "peer-002", "Observer")
        query = Query.keyword("patterns", "observer")
        network.search("peer-000", query, max_results=2)  # caches [002: Observer]
        fresh_id = publish_pattern(network, "peer-002", "Observer Copy")
        # Precondition for the trap: local_matches returns resource-id
        # order, and the already-promised match must come first so a
        # naive limit-then-filter hands it the only room slot.
        assert cached_id < fresh_id
        response = network.search("peer-006", query, max_results=2)
        assert {result.resource_id for result in response.results} \
            == {cached_id, fresh_id}


class TestShardedKernelContract:
    """Acceptance: the sharded simulator's conservative time-window
    barrier reproduces the single-queue execution bit-for-bit — shards=4
    and shards=1 agree on every pinned observable (result counts,
    message and byte counters, per-query latencies, staleness) for all
    four protocols, with and without live membership + churn."""

    CONFIG = dict(
        peers=30,
        members=12,
        publishers=6,
        corpus_size=40,
        queries=16,
        ttl=6,
        seed=23,
        concurrency=8,
        query_interarrival_ms=20.0,
    )

    def signature(self, **overrides):
        scenario = build_scenario(ScenarioConfig(**{**self.CONFIG, **overrides}))
        counts = scenario.run_queries(max_results=100)
        stats = scenario.network.stats
        return {
            "counts": counts,
            "total_messages": stats.total_messages,
            "total_bytes": stats.total_bytes,
            "by_type": dict(stats.messages_by_type),
            "bytes_by_type": dict(stats.bytes_by_type),
            "latencies": [round(record.latency_ms, 6) for record in stats.queries],
            "staleness": tuple(stats.staleness_windows_ms),
        }

    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    def test_shards_4_reproduces_shards_1(self, protocol):
        single = self.signature(protocol=protocol, shards=1)
        sharded = self.signature(protocol=protocol, shards=4)
        assert single == sharded
        assert single["total_messages"] > 0

    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    def test_shards_4_reproduces_shards_1_under_live_churn(self, protocol):
        live = dict(live_membership=True, churn_session_ms=4_000.0,
                    churn_absence_ms=1_500.0)
        single = self.signature(protocol=protocol, shards=1, **live)
        sharded = self.signature(protocol=protocol, shards=4, **live)
        assert single == sharded

    def test_shard_count_itself_is_immaterial(self):
        """2, 3 and 4 shards all reproduce the same run — the contract
        is shard-count independence, not a lucky pairing."""
        reference = self.signature(shards=1)
        for shards in (2, 3, 4):
            assert self.signature(shards=shards) == reference

    def test_sharded_run_actually_shards(self):
        """Guard against the contract passing because sharding silently
        fell back to the single queue: the windowed machinery must have
        engaged (windows opened, cross-shard traffic deferred, events on
        every shard) with counters preserved."""
        scenario = build_scenario(ScenarioConfig(**{**self.CONFIG, "shards": 4}))
        scenario.run_queries(max_results=100)
        simulator = scenario.network.simulator
        assert type(simulator).__name__ == "ShardedSimulator"
        assert not simulator._degenerate
        assert simulator.windows > 0
        assert simulator.cross_shard_messages > 0
        assert all(count > 0 for count in simulator.events_per_shard)


class TestHashSaltIndependence:
    """Acceptance: counters must not depend on the per-process string
    hash salt.  In-process repeat-twice determinism tests share one
    salt, so a ``set[str]`` iteration order leaking into protocol
    decisions (which super an orphaned leaf re-attaches to, say) passes
    them while producing different committed baselines run to run.
    This contract replays the super-peer churny caching cell — the one
    that historically flipped — in subprocesses under two different
    ``PYTHONHASHSEED`` values and requires identical counters."""

    SCRIPT = """
import json, sys
from repro.network.membership import PopulationModel
from repro.workloads.scenario import ScenarioConfig, build_scenario

scenario = build_scenario(ScenarioConfig(
    protocol=sys.argv[1], peers=30, members=12, publishers=6,
    corpus_size=40, queries=48, community="design-patterns", ttl=6,
    seed=29, concurrency=6, query_interarrival_ms=20.0,
    query_repeat_alpha=0.6, result_caching=True, cache_capacity=8,
    cache_ttl_ms=4000.0))
population = PopulationModel(scenario.network, mean_session_ms=1200.0,
                             mean_absence_ms=720.0, seed=5)
population.start([servent.peer_id for servent in scenario.servents[2:]])
counts = scenario.run_queries(max_results=100)
stats = scenario.network.stats
print(json.dumps({
    "counts": counts,
    "messages": stats.total_messages,
    "bytes": stats.total_bytes,
    "cache_hits": stats.cache_hits,
    "cache_misses": stats.cache_misses,
    "stale_served": stats.cache_stale_served,
}))
"""

    def run_with_hash_seed(self, protocol: str, hash_seed: str) -> dict:
        import json
        import os
        import pathlib
        import subprocess
        import sys

        import repro

        env = dict(
            os.environ,
            PYTHONHASHSEED=hash_seed,
            PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]),
        )
        completed = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, protocol],
            capture_output=True, text=True, env=env, check=True, timeout=120,
        )
        return json.loads(completed.stdout)

    # Hash seeds 0 and 4 are the pair that historically disagreed on
    # the super-peer cell (4 re-attached orphans in a different order).
    @pytest.mark.parametrize("protocol", ("super-peer", "rendezvous"))
    def test_counters_identical_across_hash_salts(self, protocol):
        first = self.run_with_hash_seed(protocol, "0")
        second = self.run_with_hash_seed(protocol, "4")
        assert first == second
        assert first["cache_hits"] > 0


class TestFaultContract:
    """Acceptance for deterministic fault injection.  ``faults=None``
    (the default) must be bit-identical to the seed behaviour for all
    four protocols whatever the reliability knobs say — including the
    live-membership + caching + shards=4 cell.  And a fixed FaultPlan
    seed must reproduce the exact drop/duplicate/retry/failover
    counters across shard counts and across interpreter hash salts."""

    CONFIG = dict(
        peers=30,
        members=12,
        publishers=6,
        corpus_size=40,
        queries=16,
        ttl=6,
        seed=23,
        concurrency=8,
        query_interarrival_ms=20.0,
    )

    FAULTY = dict(
        live_membership=True,
        churn_session_ms=900.0,
        churn_absence_ms=500.0,
        reliable_delivery=True,
        retry_timeout_ms=120.0,
    )

    def signature(self, **overrides):
        from repro.network.faults import FaultPlan  # noqa: F401 (knob type)
        scenario = build_scenario(ScenarioConfig(**{**self.CONFIG, **overrides}))
        counts = scenario.run_queries(max_results=100)
        stats = scenario.network.stats
        return {
            "counts": counts,
            "total_messages": stats.total_messages,
            "total_bytes": stats.total_bytes,
            "by_type": dict(stats.messages_by_type),
            "bytes_by_type": dict(stats.bytes_by_type),
            "latencies": [round(record.latency_ms, 6) for record in stats.queries],
            "faults": stats.fault_summary(),
        }

    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    def test_faults_off_is_bit_identical_regardless_of_knobs(self, protocol):
        """The knob plumbing leaks nothing: a default run agrees with an
        explicit faults=None run under exotic (inert) reliability
        timers, and no fault counter ever moves."""
        default = self.signature(protocol=protocol)
        explicit = self.signature(protocol=protocol, faults=None,
                                  retry_timeout_ms=37.0, retry_max_attempts=9,
                                  download_stall_timeout_ms=77.0)
        assert default == explicit
        assert all(value == 0.0 for value in default["faults"].values())

    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    def test_faults_off_live_caching_sharded_cell_unchanged(self, protocol):
        """The busiest composed cell — live membership, churn, caching,
        shards=4 — is equally pinned against the inert knobs."""
        cell = dict(live_membership=True, churn_session_ms=1_500.0,
                    churn_absence_ms=800.0, result_caching=True, shards=4)
        default = self.signature(protocol=protocol, **cell)
        explicit = self.signature(protocol=protocol, faults=None,
                                  retry_timeout_ms=41.0, retry_max_attempts=7,
                                  download_stall_timeout_ms=99.0, **cell)
        assert default == explicit
        assert all(value == 0.0 for value in default["faults"].values())

    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    def test_fault_counters_identical_across_shard_counts(self, protocol):
        """A fixed fault seed drops/duplicates the *same* messages under
        shards=1 and shards=4: every pinned observable — including the
        fault and recovery counters — agrees exactly."""
        from repro.network.faults import FaultPlan
        plan = FaultPlan(seed=17, loss_rate=0.08, duplicate_rate=0.04)
        single = self.signature(protocol=protocol, faults=plan,
                                shards=1, **self.FAULTY)
        sharded = self.signature(protocol=protocol, faults=plan,
                                 shards=4, **self.FAULTY)
        assert single == sharded
        assert single["faults"]["dropped"] > 0


class TestFaultHashSaltIndependence:
    """Fault decisions and recovery counters must not depend on the
    per-process string hash salt (BLAKE2b-keyed rolls, no builtin
    ``hash``): the same faulty cell replayed in subprocesses under two
    ``PYTHONHASHSEED`` values commits identical counters."""

    SCRIPT = """
import json, sys
from repro.network.faults import FaultPlan
from repro.workloads.scenario import ScenarioConfig, build_scenario

scenario = build_scenario(ScenarioConfig(
    protocol=sys.argv[1], peers=30, members=12, publishers=6,
    corpus_size=40, queries=16, community="design-patterns", ttl=6,
    seed=23, concurrency=8, query_interarrival_ms=20.0,
    live_membership=True, churn_session_ms=900.0, churn_absence_ms=500.0,
    reliable_delivery=True, retry_timeout_ms=120.0,
    faults=FaultPlan(seed=17, loss_rate=0.08, duplicate_rate=0.04)))
counts = scenario.run_queries(max_results=100)
stats = scenario.network.stats
print(json.dumps({
    "counts": counts,
    "messages": stats.total_messages,
    "bytes": stats.total_bytes,
    "faults": stats.fault_summary(),
}))
"""

    def run_with_hash_seed(self, protocol: str, hash_seed: str) -> dict:
        import json
        import os
        import pathlib
        import subprocess
        import sys

        import repro

        env = dict(
            os.environ,
            PYTHONHASHSEED=hash_seed,
            PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]),
        )
        completed = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, protocol],
            capture_output=True, text=True, env=env, check=True, timeout=120,
        )
        return json.loads(completed.stdout)

    @pytest.mark.parametrize("protocol", ("centralized", "super-peer"))
    def test_fault_counters_identical_across_hash_salts(self, protocol):
        first = self.run_with_hash_seed(protocol, "0")
        second = self.run_with_hash_seed(protocol, "4")
        assert first == second
        assert first["faults"]["dropped"] > 0
