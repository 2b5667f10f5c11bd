"""Contract tests every protocol adapter must pass on the event kernel.

The four network organisations are interchangeable strategies over the
same message-dispatch substrate.  This suite pins down the substrate
contract: searches are event cascades with measurable latency, queries
can overlap in flight, churn can strike mid-query without breaking
anything, and replicas made by retrieve survive the original provider.

``TestGeneratedContract`` runs every cell of protocol x lifecycle x
caching x faults x routing and checks invariants on each: shards=4
reproduces shards=1, a switched-off mechanism's knobs change nothing, a
switched-on mechanism engaged, every delivery meets exactly one fate,
the traffic classes add up, every result cache's provider index equals
a scan of its entries, each overlay link and hub role is stored once
and a drained churn-free run leaves nothing behind.  A subprocess leg replays cells under two string-hash salts.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import subprocess
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional

import pytest

import repro
from repro.engine.driver import QueryDriver, RetrieveOp, SearchOp
from repro.engine.sharded import ShardedSimulator
from repro.network.centralized import CentralizedProtocol
from repro.network.config import CacheConfig, MembershipConfig
from repro.network.errors import DuplicatePeerError
from repro.network.faults import FaultPlan
from repro.network.gnutella import GnutellaProtocol
from repro.network.membership import PopulationModel
from repro.network.messages import MessageType
from repro.network.rendezvous import RendezvousProtocol
from repro.network.superpeer import SuperPeerProtocol
from repro.network.twotier import TwoTierNetwork
from repro.storage.query import Query
from repro.workloads.scenario import ScenarioConfig, build_scenario
from repro.xmlkit.parser import parse
from tests.storage.test_cache import provider_scan


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
        network.depart("peer-004")
        assert network.simulator.now == before


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
        assert len(outcome.responses) + len(outcome.retrieves) == len(ops)
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
    """A stale cached hit never outlives the membership staleness
    window, and no cached serving claims room twice.  (Caching off
    leaving no trace, and caching on engaging, are generated cells.)"""

    # ------------------------------------------------------------------
    # Invalidation: a crash is noticed by the membership lease
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


# ---------------------------------------------------------------------------
# The generated contract: every cell of protocol x lifecycle x caching x
# faults x routing, checked by invariants rather than stored numbers
# ---------------------------------------------------------------------------

#: the base cell every generated run starts from: eight searches in flight
BASE_CELL = dict(peers=30, members=12, publishers=6, corpus_size=40, queries=16,
                 ttl=6, seed=23, concurrency=8, query_interarrival_ms=20.0)

#: how the peer population behaves during the query phase
LIFECYCLES = {
    "static": {},
    "churn": dict(churn_session_ms=1_500.0, churn_absence_ms=800.0),
    "live": dict(churn_session_ms=1_500.0, churn_absence_ms=800.0, live_membership=True,
                 maintenance_interval_ms=250.0, rendezvous_lease_ms=1_000.0),
}
CACHING = dict(result_caching=True, query_repeat_alpha=0.6)
FAULTS = dict(reliable_delivery=True,
              faults=FaultPlan(seed=17, loss_rate=0.08, duplicate_rate=0.04))
INFORMED = dict(informed_routing=True)

#: mechanism -> exotic values of its knobs, which must change nothing
#: while the mechanism is off.  ``rendezvous_lease_ms`` is not here: the
#: off-mode rendezvous walk pulls lease expiry at search time.
INERT_KNOBS = {
    "live": dict(maintenance_interval_ms=123.0, heartbeat_lease_intervals=5),
    "churn": dict(churn_absence_ms=333.0),
    "caching": dict(cache_capacity=2, cache_ttl_ms=37.0),
    "faults": dict(retry_timeout_ms=37.0, retry_max_attempts=9,
                   download_stall_timeout_ms=77.0, faults=FaultPlan(seed=99)),
    "informed": dict(routing_filter_bits=64, routing_hash_count=1, routing_depth=1),
}


class Cell(NamedTuple):
    protocol: str
    lifecycle: str = "static"
    caching: bool = False
    faults: bool = False
    informed: bool = False

    @property
    def id(self) -> str:
        switched = [name for name, on in (("cache", self.caching), ("faults", self.faults),
                                          ("informed", self.informed)) if on]
        return "-".join([self.protocol, self.lifecycle, *switched])

    def config(self, **knobs) -> ScenarioConfig:
        overrides = dict(BASE_CELL, protocol=self.protocol, **LIFECYCLES[self.lifecycle])
        for on, group in ((self.caching, CACHING), (self.faults, FAULTS),
                          (self.informed, INFORMED)):
            if on:
                overrides.update(group)
        return ScenarioConfig(**{**overrides, **knobs})


#: every protocol x lifecycle x faults x caching cell, plus gnutella's
#: informed-routing cells (caching off: that composition is refused)
CELLS = [Cell(protocol, lifecycle, caching, faults, informed)
         for protocol in PROTOCOL_NAMES for lifecycle in LIFECYCLES for faults in (False, True)
         for caching, informed in ((False, False), (True, False), (False, True))
         if protocol == "gnutella" or not informed]


def richest_cell(protocol: str, off: str) -> Cell:
    """The cell with mechanism ``off`` off and every other compatible
    mechanism on."""
    return Cell(protocol,
                lifecycle={"live": "churn", "churn": "static"}.get(off, "live"),
                caching=off not in ("caching", "informed"),
                faults=off != "faults",
                informed=protocol == "gnutella" and off == "caching")


INERT_CASES = [(mechanism, cell) for mechanism in INERT_KNOBS for protocol in PROTOCOL_NAMES
               for cell in (Cell(protocol), richest_cell(protocol, mechanism))]


def observe(stats, counts) -> tuple:
    """One run as the contract compares it."""
    return stats.digest(counts), stats.summary(), tuple(stats.staleness_windows_ms)


def store_violations(network) -> list:
    """What breaks "one store per fact" at this instant: a gnutella link
    not held by both endpoints (or a self-link); a two-tier hub that is
    not an online peer homed on itself."""
    peers = network.peers
    if isinstance(network, GnutellaProtocol):
        return [(a, b) for a in sorted(peers) for b in sorted(peers[a].neighbors)
                if b == a or a not in peers[b].neighbors]
    if isinstance(network, TwoTierNetwork):
        return [hub_id for hub_id in sorted(network._hubs)
                if hub_id not in peers or not peers[hub_id].online
                or peers[hub_id].super_peer_id != hub_id]
    return []


#: the types gnutella delivers at most once per node per exchange
GNUTELLA_ONCE_PER_NODE = frozenset((MessageType.QUERY, MessageType.PING))


class FateLedger:
    """Counts the deliveries one kernel schedules (one per ``send``, one
    per ``send_many`` copy) and the delivery events it executes
    (``_deliver`` or ``_drop``), by wrapping those entry points on the
    kernel instance.

    A fan-out absorbs, instead of queueing, each copy of a once-per-node
    type to a node its exchange already visited.  The ledger names those
    copies itself at send time, by recipient, from the same two facts,
    and counts each one, and each fault duplicate of one, as absorbed.

    On a sharded simulator it also books every executed event that ran
    on a shard other than its recipient's home (``misrouted``): a
    delivery or drop event carries its recipient, and a fan-out's
    copies share one message whose own ``recipient`` is empty."""

    def __init__(self, network) -> None:
        kernel = network.kernel
        simulator = network.simulator
        self.network = network
        self.scheduled = self.executed = self.absorbed = 0
        self.misrouted: list[tuple[str, str, Optional[int]]] = []
        sharded = isinstance(simulator, ShardedSimulator) and simulator.lookahead_ms > 0
        once_per_node = (GNUTELLA_ONCE_PER_NODE if isinstance(network, GnutellaProtocol)
                         else frozenset())
        absorbing: set[str] = set()   # recipients absorbed by the fan-out being sent
        send, send_many, deliver, drop, post_faulted = (
            kernel.send, kernel.send_many, kernel._deliver, kernel._drop,
            kernel._post_faulted)

        def counted_send(message, **kwargs):
            self.scheduled += 1
            send(message, **kwargs)

        def counted_send_many(message, sender, recipients, *, context=None):
            self.scheduled += len(recipients)
            if context is not None and message.type in once_per_node:
                absorbed = [recipient for recipient in recipients
                            if recipient in context.visited]
                absorbing.update(absorbed)
                self.absorbed += len(absorbed)
            send_many(message, sender, recipients, context=context)
            absorbing.clear()

        def counted_post_faulted(delay, sender, recipient, copy, context):
            duplicated = network.stats.duplicated
            post_faulted(delay, sender, recipient, copy, context)
            if recipient in absorbing:
                self.absorbed += network.stats.duplicated - duplicated

        def on_home_shard(kind, recipient):
            if sharded and simulator._active_shard != simulator.shard_of_node(recipient):
                self.misrouted.append((kind, recipient, simulator._active_shard))

        def counted_deliver(message, recipient, context):
            self.executed += 1
            on_home_shard("deliver", recipient)
            deliver(message, recipient, context)

        def counted_drop(message, recipient, context):
            self.executed += 1
            on_home_shard("drop", recipient)
            drop(message, recipient, context)

        kernel.send, kernel.send_many = counted_send, counted_send_many
        kernel._deliver, kernel._drop = counted_deliver, counted_drop
        kernel._post_faulted = counted_post_faulted
        self.callbacks = (deliver, drop, counted_deliver, counted_drop)
        self.queued_at_start = self.queued()

    def queued(self) -> int:
        simulator = self.network.simulator
        heaps = [simulator._queue, *getattr(simulator, "_shard_queues", ())]
        return sum(entry[2] in self.callbacks for heap in heaps for entry in heap)

    def balance(self) -> tuple[int, int]:
        """(deliveries scheduled, deliveries executed, absorbed or still
        queued)."""
        scheduled = self.queued_at_start + self.scheduled + self.network.stats.duplicated
        return scheduled, self.executed + self.absorbed + self.queued()


class FanOutCheck:
    """Wraps a gnutella network's ``_flood_from`` on the instance: before
    each forward, the peer's cached online fan-out (the one the forward
    reads) is compared with a fresh ``sorted`` scan of its neighbours'
    ``online`` flags, and every difference is booked in ``stale``."""

    def __init__(self, network: GnutellaProtocol) -> None:
        self.checked = 0
        self.stale: list[tuple[float, str, list, list]] = []
        flood_from, peers = network._flood_from, network.peers

        def checked_flood_from(peer, message, context):
            self.checked += 1
            fresh = [neighbor_id for neighbor_id in sorted(peer.neighbors)
                     if neighbor_id in peers and peers[neighbor_id].online]
            cached = list(network._online_neighbors(peer))
            if cached != fresh:
                self.stale.append((network.simulator.now, peer.peer_id, cached, fresh))
            flood_from(peer, message, context)

        network._flood_from = checked_flood_from


@dataclass
class CellRun:
    observation: tuple
    #: fate balances after the query phase (and after the drain)
    fates: list
    #: what each mechanism did, read by the "it engaged" invariant
    engaged: dict
    #: (messages, bytes) summed over traffic classes, and the totals
    breakdown: tuple
    totals: tuple
    elapsed_ms: float
    latency_sum_ms: float
    #: (result cache sites, those whose provider index differs from a
    #: brute-force scan of their entries) at the end of the run
    cache_index: tuple = ()
    #: ``store_violations`` of the network at the end of the run
    store_violations: Optional[list] = None
    #: churn-free cells only: (queued events, un-ACKed sends, cache
    #: sites on departed nodes) once timers are cancelled and drained
    leftovers: Optional[tuple] = None
    #: (delivery and drop events executed, those run off their
    #: recipient's home shard) over the whole run
    routing: tuple = ()
    #: gnutella only: (``_flood_from`` calls, those whose cached online
    #: fan-out differed from a fresh scan of the peer's neighbours)
    fan_outs: tuple = ()


def run_cell(cell: Cell, shards: int = 1, knobs: tuple = ()) -> CellRun:
    """Build and run ``cell`` once per ``(cell, shards, knobs)``: every
    invariant reads the same memoized run."""
    return _run_cell(cell, shards, knobs)


@functools.cache
def _run_cell(cell: Cell, shards: int, knobs: tuple) -> CellRun:
    scenario = build_scenario(cell.config(shards=shards, **dict(knobs)))
    network = scenario.network
    simulator, stats = network.simulator, network.stats
    ledger = FateLedger(network)
    fan_outs = FanOutCheck(network) if isinstance(network, GnutellaProtocol) else None
    started = simulator.now
    counts = scenario.run_queries(max_results=100)
    breakdown = stats.traffic_breakdown().values()
    run = CellRun(
        observation=observe(stats, counts),
        fates=[ledger.balance()],
        engaged=dict(
            cache=(stats.cache_hits, stats.cache_misses), faults=stats.fault_summary(),
            routing=stats.routing_summary(), control_messages=stats.control_messages,
            churn_events=len(scenario.churn.events) if scenario.churn else 0,
            windows=getattr(simulator, "windows", 0),
            cross_shard_messages=getattr(simulator, "cross_shard_messages", 0),
            events_per_shard=getattr(simulator, "events_per_shard", ())),
        breakdown=(sum(cls["messages"] for cls in breakdown),
                   sum(cls["bytes"] for cls in breakdown)),
        totals=(stats.total_messages, stats.total_bytes),
        elapsed_ms=simulator.now - started,
        latency_sum_ms=sum(record.latency_ms for record in stats.queries),
    )
    if scenario.churn is None:
        # A churning PopulationModel is an event chain that never ends.
        network.kernel.cancel_timers()
        simulator.run()
        live = {peer.peer_id for peer in network.online_peers()} | network.kernel.virtual_nodes
        run.leftovers = (simulator.pending_events(), dict(network.channel.pending),
                         sorted(set(network.caches.sites) - live))
        run.fates.append(ledger.balance())
    sites = network.caches.sites
    run.cache_index = (len(sites), [node_id for node_id, cache in sites.items()
                                    if cache._by_provider != provider_scan(cache)])
    run.store_violations = store_violations(network)
    run.routing = (ledger.executed, ledger.misrouted)
    if fan_outs is not None:
        run.fan_outs = (fan_outs.checked, fan_outs.stale)
    return run


class TestGeneratedContract:
    """The organisation, the shard count and every switched-off knob may
    change nothing but what they are for, in every generated cell."""

    @pytest.mark.parametrize("cell", CELLS, ids=lambda cell: cell.id)
    def test_shards_4_reproduces_shards_1(self, cell):
        """Both sides are fresh builds, so this is also the run-twice
        determinism check of every cell."""
        assert run_cell(cell, 4).observation == run_cell(cell, 1).observation

    def test_shard_count_itself_is_immaterial(self):
        base = Cell("gnutella")
        for shards in (2, 3):
            assert run_cell(base, shards).observation == run_cell(base, 1).observation

    @pytest.mark.parametrize("cell", CELLS, ids=lambda cell: cell.id)
    def test_every_switched_on_mechanism_engaged(self, cell):
        """A contract that passes because nothing happened proves
        nothing; a switched-off mechanism moves none of its counters."""
        engaged = run_cell(cell).engaged
        hits, misses = engaged["cache"]
        faults, routing = engaged["faults"], engaged["routing"]
        assert (hits > 0) == (misses > 0) == cell.caching
        assert (faults["dropped"] > 0) == any(faults.values()) == cell.faults
        assert (routing["routing_pruned"] > 0) == any(routing.values()) == cell.informed
        assert (engaged["churn_events"] > 0) == (cell.lifecycle != "static")
        assert (engaged["control_messages"] > 0) == (cell.lifecycle == "live")
        sharded = run_cell(cell, 4).engaged
        assert sharded["windows"] > 0 and sharded["cross_shard_messages"] > 0
        assert 0 not in sharded["events_per_shard"]

    @pytest.mark.parametrize("cell", CELLS, ids=lambda cell: cell.id)
    def test_every_delivery_meets_one_fate(self, cell):
        """Deliveries scheduled (plus fault duplicates) equal deliveries
        executed or dropped, absorbed at send, or still queued."""
        for shards in (1, 4):
            for scheduled, accounted in run_cell(cell, shards).fates:
                assert scheduled == accounted

    @pytest.mark.parametrize("cell", CELLS, ids=lambda cell: cell.id)
    def test_every_delivery_runs_on_its_recipients_shard(self, cell):
        """At shards=4 every delivery and drop event executes on the home
        shard of the recipient it carries — fan-out copies included,
        whose shared hop message names no recipient."""
        executed, misrouted = run_cell(cell, 4).routing
        assert executed > 0
        assert misrouted == []

    @pytest.mark.parametrize("cell", [cell for cell in CELLS if cell.protocol == "gnutella"],
                             ids=lambda cell: cell.id)
    def test_every_flood_fan_out_is_the_online_neighbours(self, cell):
        """Every gnutella forward reads a cached fan-out equal to a fresh
        scan of the peer's online neighbours in sorted order, through
        churn and live membership alike."""
        for shards in (1, 4):
            checked, stale = run_cell(cell, shards).fan_outs
            assert checked > 0
            assert stale == []

    @pytest.mark.parametrize("cell", CELLS, ids=lambda cell: cell.id)
    def test_traffic_classes_add_up_to_the_totals(self, cell):
        run = run_cell(cell)
        assert run.breakdown == run.totals
        assert run.totals[0] > 0

    @pytest.mark.parametrize("cell", [cell for cell in CELLS if cell.lifecycle == "static"],
                             ids=lambda cell: cell.id)
    def test_quiescence_leaves_nothing_behind(self, cell):
        """With timers cancelled and the queue drained: nothing queued,
        no un-ACKed reliable send, no result cache on a departed node."""
        for shards in (1, 4):
            assert run_cell(cell, shards).leftovers == (0, {}, [])

    @pytest.mark.parametrize("cell", [cell for cell in CELLS if cell.caching],
                             ids=lambda cell: cell.id)
    def test_cache_provider_index_matches_a_scan(self, cell):
        """Every result cache's provider index names exactly the entries
        that carry each provider.  Not a quiescence claim: it holds
        mid-churn too."""
        for shards in (1, 4):
            sites, drifted = run_cell(cell, shards).cache_index
            assert sites > 0 and drifted == []

    @pytest.mark.parametrize("cell", CELLS, ids=lambda cell: cell.id)
    def test_overlay_and_hub_role_are_stored_once(self, cell):
        """Every gnutella link sits in both endpoints' neighbour sets;
        every two-tier hub is an online peer homed on itself.  Holds at
        the end of every cell, churned and faulted ones included."""
        for shards in (1, 4):
            assert run_cell(cell, shards).store_violations == []

    @pytest.mark.parametrize("lifecycle", ("churn", "live"))
    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    def test_one_store_holds_through_crashes(self, protocol, lifecycle):
        """No generated cell crashes a hub, so this leg crashes a hub
        and a member of a faulted cell, checking at every 50 ms."""
        cell = Cell(protocol, lifecycle, faults=True)
        scenario = build_scenario(cell.config(faults=FaultPlan(
            seed=17, loss_rate=0.05, crashes=(("peer-0000", 150.0), ("peer-0004", 300.0)))))
        network = scenario.network
        seen = []

        def check():
            seen.extend(store_violations(network))
            network.simulator.post(50.0, check)

        network.simulator.post(0.0, check)
        scenario.run_queries(max_results=100)
        assert network.gone >= {"peer-0000", "peer-0004"}
        assert seen + store_violations(network) == []

    @pytest.mark.parametrize(("mechanism", "cell"), INERT_CASES,
                             ids=[f"{mechanism}-off-{cell.id}" for mechanism, cell in INERT_CASES])
    def test_switched_off_knobs_change_nothing(self, mechanism, cell):
        exotic = tuple(INERT_KNOBS[mechanism].items())
        assert run_cell(cell, knobs=exotic).observation == run_cell(cell).observation

    def test_concurrency_keeps_queries_overlapped(self):
        """With stagger shorter than flood latency, later queries start
        before earlier ones end: the query phase takes less virtual time
        than the sum of the individual latencies."""
        run = run_cell(Cell("gnutella"))
        assert run.elapsed_ms < run.latency_sum_ms

    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    def test_repeat_heavy_workload_saves_messages(self, protocol):
        """The static caching cell against itself with caching off."""
        cell = Cell(protocol, caching=True)
        on = run_cell(cell).totals[0]
        off = run_cell(cell, knobs=(("result_caching", False),)).totals[0]
        # The organisations that broadcast per query must save real
        # traffic; the centralized round trip costs 2 messages with or
        # without the server cache.
        if protocol in ("gnutella", "super-peer"):
            assert on < off
        assert on <= off

    def test_rendezvous_lease_is_live_with_membership_off(self):
        """The off-mode walk pulls lease expiry at search time, so the
        lease reaches into the bootstrap itself: it is no inert knob."""
        default = build_scenario(Cell("rendezvous").config())
        short = build_scenario(Cell("rendezvous").config(rendezvous_lease_ms=5_000.0))
        assert short.network.simulator.now < default.network.simulator.now


#: The historic incident cell (off-mode churn of every servent but two,
#: which re-homes orphaned leaves; no generated cell does that, because
#: hubs are the lowest ids, which are members, and members never churn),
#: then the richest fault cell of every protocol.
HASH_SALT_SCRIPT = """
import json
from repro.network.membership import PopulationModel
from repro.workloads.scenario import ScenarioConfig, build_scenario
from tests.network.test_contract import PROTOCOL_NAMES, Cell, observe, run_cell

observations = {}
for protocol in ("super-peer", "rendezvous"):
    scenario = build_scenario(ScenarioConfig(
        protocol=protocol, peers=30, members=12, publishers=6,
        corpus_size=40, queries=48, community="design-patterns", ttl=6,
        seed=29, concurrency=6, query_interarrival_ms=20.0,
        query_repeat_alpha=0.6, result_caching=True, cache_capacity=8,
        cache_ttl_ms=4000.0))
    population = PopulationModel(scenario.network, mean_session_ms=1200.0,
                                 mean_absence_ms=720.0, seed=5)
    population.start([servent.peer_id for servent in scenario.servents[2:]])
    counts = scenario.run_queries(max_results=100)
    observations[protocol + "-incident"] = observe(scenario.network.stats, counts)
for protocol in PROTOCOL_NAMES:
    cell = Cell(protocol, "live", caching=True, faults=True)
    observations[cell.id] = run_cell(cell).observation
print(json.dumps(observations))
"""


def test_observations_identical_across_hash_salts():
    """Counters must not depend on the per-process string hash salt: a
    ``set[str]`` iteration order reaching a protocol decision passes
    every in-process check (one salt) and flips committed baselines run
    to run.  Hash seeds 0 and 4 are the pair that historically disagreed
    on the super-peer incident cell."""
    root = pathlib.Path(__file__).resolve().parents[2]
    pythonpath = os.pathsep.join([str(pathlib.Path(repro.__file__).parents[1]), str(root)])
    runs = [subprocess.Popen([sys.executable, "-c", HASH_SALT_SCRIPT], cwd=root, text=True,
                             stdout=subprocess.PIPE,
                             env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=pythonpath))
            for seed in ("0", "4")]
    first, second = (json.loads(run.communicate(timeout=120)[0]) for run in runs)
    assert all(run.returncode == 0 for run in runs)
    assert first == second
    for name, (_digest, summary, _staleness) in first.items():
        assert summary["cache_hits"] > 0, name
        assert summary["dropped"] > 0 or name.endswith("-incident"), name
