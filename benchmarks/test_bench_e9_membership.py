"""E9 — membership maintenance: control overhead vs. availability.

The paper's robustness comparison between network organisations is only
honest when peers pay to come and go.  With ``live_membership`` on,
joins, heartbeats, lease renewals and re-registrations are real kernel
traffic, and a departed peer's state decays only when repair traffic
notices.  This experiment sweeps churn rate × protocol and records, per
cell:

* **control bytes / fraction** — what the organisation spends on
  maintenance (its standing overhead);
* **hit rate** — queries answered with at least one result while the
  population moves (availability);
* **staleness window** — how long stale registrations/ads/leaf records
  outlive their owner's departure before repair purges them.

A headline membership-on flood sample (gnutella, moderate churn) times
the live-mode hot path.
"""

from __future__ import annotations

import time

import pytest

from repro.network.membership import PopulationModel
from repro.workloads.scenario import ScenarioConfig, build_scenario

PROTOCOLS = ("centralized", "gnutella", "super-peer", "rendezvous")

#: mean online-session length per churn level (absence scales with it)
CHURN_RATES = {"harsh": 700.0, "moderate": 1_500.0, "gentle": 3_000.0}

BASE = dict(peers=40, members=16, publishers=8, corpus_size=60, queries=24,
            community="design-patterns", ttl=6, seed=17, concurrency=6,
            query_interarrival_ms=20.0, live_membership=True,
            maintenance_interval_ms=250.0, rendezvous_lease_ms=1_000.0)

#: steady-state epilogue after the query phase, so maintenance keeps
#: ticking (and staleness keeps resolving) beyond the last query
EPILOGUE_MS = 4_000.0

#: collected by the grid tests; the last test prints it
RECORD: dict = {"protocols": {}}


def run_membership(protocol: str, session_ms: float) -> dict:
    """One grid cell: live-membership workload under churn that strikes
    everyone but two searchers — publishers included, so each protocol's
    stale state (registrations, ads, leaf records) genuinely decays."""
    scenario = build_scenario(ScenarioConfig(protocol=protocol, **BASE))
    population = PopulationModel(scenario.network, mean_session_ms=session_ms,
                                 mean_absence_ms=session_ms * 0.6, seed=5)
    population.start([servent.peer_id for servent in scenario.servents[2:]])
    start = time.perf_counter()
    counts = scenario.run_queries(max_results=100)
    simulator = scenario.network.simulator
    simulator.run(until_ms=simulator.now + EPILOGUE_MS)
    wall = time.perf_counter() - start
    # Close out still-open sessions so uptime reflects actual
    # availability over the window, not just how many sessions ended.
    scenario.network.snapshot_uptime()
    stats = scenario.network.stats
    return {
        "wall_s": round(wall, 6),
        "messages": stats.total_messages,
        "bytes": stats.total_bytes,
        "control_messages": stats.control_messages,
        "control_bytes": stats.control_bytes,
        "control_fraction": round(stats.control_fraction(), 4),
        "hit_rate": round(sum(1 for count in counts if count > 0) / len(counts), 4),
        "staleness_events": len(stats.staleness_windows_ms),
        "mean_staleness_ms": round(stats.mean_staleness_ms(), 1),
        "max_staleness_ms": round(stats.max_staleness_ms(), 1),
        "uptime_s_total": round(stats.uptime_ms_total / 1000, 1),
        "messages_per_s": round(stats.total_messages / wall, 1),
        "queries_per_s": round(len(counts) / wall, 1),
    }


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_bench_e9_membership_grid(benchmark, protocol):
    """Churn-rate sweep for one protocol; the moderate cell is timed."""
    samples = {}

    def measure_moderate():
        samples["moderate"] = run_membership(protocol, CHURN_RATES["moderate"])
        return samples["moderate"]

    benchmark.pedantic(measure_moderate, rounds=1, iterations=1)
    for level, session_ms in CHURN_RATES.items():
        if level not in samples:
            samples[level] = run_membership(protocol, session_ms)
    RECORD["protocols"][protocol] = samples
    for level, sample in samples.items():
        assert sample["control_bytes"] > 0, f"{protocol}/{level}: no maintenance traffic"
        assert sample["hit_rate"] > 0.0, f"{protocol}/{level}: every query failed"
    # Stale state must actually decay somewhere in the sweep: the churn
    # hits publishers, so registrations/ads/leaf records outlive owners.
    assert any(sample["staleness_events"] > 0 for sample in samples.values()), \
        f"{protocol}: no staleness window was ever paid"


def test_bench_e9_flood_live_throughput(benchmark):
    """Headline sample: membership-on flood throughput (gnutella,
    moderate churn)."""
    sample = benchmark.pedantic(
        lambda: run_membership("gnutella", CHURN_RATES["moderate"]),
        rounds=1, iterations=1)
    assert sample["queries_per_s"] > 0


def test_bench_e9_write_record(benchmark, report):
    """Print the sweep table."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert set(RECORD["protocols"]) == set(PROTOCOLS), \
        "run the whole module so every protocol is measured"
    rows = []
    for protocol in PROTOCOLS:
        for level in CHURN_RATES:
            sample = RECORD["protocols"][protocol][level]
            rows.append([protocol, level,
                         f"{sample['control_fraction']:.3f}",
                         sample["control_bytes"],
                         f"{sample['hit_rate']:.2f}",
                         f"{sample['mean_staleness_ms']:.0f}",
                         sample["staleness_events"]])
    report("E9  membership maintenance: control overhead vs availability "
           "(40 peers, live membership)",
           ["protocol", "churn", "ctrl frac", "ctrl bytes", "hit rate",
            "stale ms", "purges"], rows)
