#!/usr/bin/env python3
"""Replication and availability under churn — with live membership.

The paper's §II observation: downloading popular files makes the network
more robust because more hosts end up sharing them.  This script drives
a Zipf-skewed download workload over an MP3 community, then switches
the network to *live membership* (peer lifecycle as real protocol
traffic) and lets a PopulationModel churn the peers: departures leave
stale registrations behind until the server's heartbeat lease notices,
returns re-register through the kernel, and a flash crowd of brand-new
peers joins mid-run.

Run with:  python examples/replication_under_churn.py
"""

from __future__ import annotations

from repro.communities.mp3 import mp3_community
from repro.core.application import Application
from repro.core.servent import Servent
from repro.network.centralized import CentralizedProtocol
from repro.network.config import MembershipConfig
from repro.network.membership import PopulationModel
from repro.workloads.popularity import ZipfDistribution

PEERS = 25
OBJECTS = 30
DOWNLOADS = 120


def main() -> None:
    network = CentralizedProtocol(
        seed=5, membership=MembershipConfig(maintenance_interval_ms=400.0))
    definition = mp3_community()
    servents = [Servent(f"peer-{index:02d}", network) for index in range(PEERS)]
    founder = definition.application_on(servents[0])
    applications = [founder]
    for servent in servents[1:]:
        discovery = servent.search_communities("music")
        applications.append(Application(servent, servent.join_community(discovery.results[0])))

    corpus = definition.sample_corpus(OBJECTS, seed=5)
    resource_ids = [applications[index % 5].publish(record).resource_id
                    for index, record in enumerate(corpus)]
    print(f"{OBJECTS} tracks published by 5 peers; running {DOWNLOADS} Zipf-distributed downloads…")

    zipf = ZipfDistribution(OBJECTS, exponent=1.0, seed=9)
    for number, rank in enumerate(zipf.sample_many(DOWNLOADS)):
        application = applications[number % len(applications)]
        wanted = resource_ids[rank]
        if application.servent.repository.documents.contains(wanted):
            continue
        hits = [result for result in application.browse(max_results=500).results
                if result.resource_id == wanted
                and result.provider_id != application.servent.peer_id]
        if hits:
            application.download(hits[0])

    print("\npopularity rank   request prob.   replicas")
    for rank in (0, 1, 4, 9, 19, 29):
        print(f"{rank:15d}   {zipf.probability(rank):13.3f}   {network.provider_count(resource_ids[rank]):8d}")
    assert network.provider_count(resource_ids[0]) > 1, \
        "the most popular track must have been replicated by the downloads"

    # ------------------------------------------------------------------
    # Live membership: lifecycle becomes protocol traffic.
    # ------------------------------------------------------------------
    print("\ngoing live: joins, heartbeats and re-registrations now cost messages…")
    network.go_live()
    network.stats.reset()
    population = PopulationModel(network, mean_session_ms=2_500.0,
                                 mean_absence_ms=1_500.0, seed=13)
    population.start([servent.peer_id for servent in servents[5:]])

    simulator = network.simulator
    print("\nvirtual s   online   all tracks reachable   top-5 reachable   control KB   stale purges")
    for window in range(1, 6):
        simulator.run(until_ms=simulator.now + 2_000)
        reachable = sum(1 for rid in resource_ids if network.provider_count(rid) > 0)
        top = sum(1 for rank in range(5) if network.provider_count(resource_ids[rank]) > 0)
        stats = network.stats
        print(f"{window * 2:9d}   {len(network.online_peers()):6d}   "
              f"{reachable / OBJECTS:20.2f}   {top / 5:15.2f}   "
              f"{stats.control_bytes / 1024:10.1f}   {len(stats.staleness_windows_ms):12d}")
        assert top == 5, "the replicated top-5 tracks must stay reachable through churn"
    assert network.stats.control_bytes > 0, "live membership must cost control traffic"

    print(f"\nmean staleness window: {network.stats.mean_staleness_ms():.0f} ms "
          f"(how long a departed peer's registrations outlived it)")
    print("popular objects stay reachable through churn because their replicas "
          "re-register from many hosts — the robustness argument of the paper.")

    # ------------------------------------------------------------------
    # Flash crowd: a burst of brand-new peers joins mid-run.
    # ------------------------------------------------------------------
    before = len(network.peers)
    newcomer_ids = population.flash_crowd(8, at_ms=500.0)
    simulator.run(until_ms=simulator.now + 2_000)
    print(f"\nflash crowd: {len(network.peers) - before} newcomers joined "
          f"(population {before} -> {len(network.peers)}); "
          f"server now believes {len(network.believed_online())} peers alive")
    assert len(network.peers) - before == 8, "the whole flash crowd must have joined"
    # A newcomer can immediately use the network: search from it.
    from repro.storage.query import Query

    response = network.search(newcomer_ids[0],
                              Query.keyword(founder.community.community_id, "the"),
                              max_results=10)
    print(f"a flash-crowd newcomer's first search probed {response.peers_probed} peer(s) "
          f"and returned {response.result_count} result(s) "
          f"after {response.latency_ms:.0f} virtual ms")
    assert response.result_count > 0, "a newcomer's first search must find shared tracks"


if __name__ == "__main__":
    main()
