"""P1 — the kernel→index hot path: wall-clock throughput.

Unlike the paper-claims ledger (``repro.report``, which records the
paper's *virtual* cost metrics), this suite times the evaluation hot
path on the wall clock — messages/sec and queries/sec for flood-heavy
and mixed workloads across all four protocols — and prints each
sample.  No timing here is gated: the host-clock yardstick is
``bench/`` (``bench/run.py`` + ``bench/compare.py``), and the work a
round does is gated exactly, by equality with ``BENCH_work.json``
(``tests/engine/test_hot_path.py``).
"""

from __future__ import annotations

import time

import pytest

from repro.workloads.scenario import ScenarioConfig, build_scenario

PROTOCOLS = ("centralized", "gnutella", "super-peer", "rendezvous")

#: the E3 concurrent-query scenario, scaled to 200 peers (the headline
#: hot-path measurement; mirrors claim E3's knobs in repro.report)
E3_200 = dict(peers=200, members=24, publishers=12, corpus_size=90, queries=16,
              community="design-patterns", ttl=6, seed=11,
              concurrency=8, query_interarrival_ms=20.0)

#: mixed search/download workload (the paper's download-and-replicate load)
MIXED = dict(peers=120, members=24, publishers=12, corpus_size=90, queries=24,
             community="design-patterns", ttl=6, seed=11,
             concurrency=8, query_interarrival_ms=20.0,
             retrieve_fraction=0.3, popularity_skew=1.0)

def timed_run(config: dict, *, repeats: int = 3, mixed: bool = False) -> dict:
    """Best-of-``repeats`` wall-clock measurement of one scenario's
    query phase (build time excluded)."""
    best = None
    for _ in range(repeats):
        scenario = build_scenario(ScenarioConfig(**config))
        start = time.perf_counter()
        if mixed:
            outcome = scenario.run_mixed_workload(max_results=200)
            operations = len(outcome.responses) + len(outcome.retrieves)
        else:
            counts = scenario.run_queries(max_results=200)
            operations = len(counts)
        wall = time.perf_counter() - start
        stats = scenario.network.stats
        sample = {
            "wall_s": round(wall, 6),
            "messages": stats.total_messages,
            "bytes": stats.total_bytes,
            "operations": operations,
            "messages_per_s": round(stats.total_messages / wall, 1),
            "queries_per_s": round(operations / wall, 1),
        }
        if best is None or sample["wall_s"] < best["wall_s"]:
            best = sample
    return best


def print_sample(report, protocol: str, workload: str, sample: dict) -> None:
    report(f"P1  {protocol} {workload}: wall-clock hot-path throughput",
           ["wall s", "msgs/s", "queries/s"],
           [[f"{sample['wall_s']:.3f}", f"{sample['messages_per_s']:.0f}",
             f"{sample['queries_per_s']:.0f}"]])


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_bench_p1_flood_throughput(report, protocol):
    """Wall-clock throughput of the concurrent query phase at 200 peers."""
    sample = timed_run(dict(protocol=protocol, **E3_200))
    print_sample(report, protocol, "flood", sample)
    assert sample["operations"] == E3_200["queries"]
    assert sample["messages"] > 0


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_bench_p1_mixed_throughput(report, protocol):
    """Wall-clock throughput with downloads interleaved mid-flood."""
    sample = timed_run(dict(protocol=protocol, **MIXED), mixed=True)
    print_sample(report, protocol, "mixed", sample)
    assert sample["operations"] == MIXED["queries"]
