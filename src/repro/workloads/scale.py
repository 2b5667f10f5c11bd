"""Population scale-out: one event kernel per worker process.

The windowed :class:`~repro.engine.sharded.ShardedSimulator` is the
determinism mechanism — it proves, in process, that a partitioned event
execution reproduces the single-kernel run bit-for-bit.  This module is
the throughput-and-memory mechanism: it splits a large population into
*islands* (one per shard), builds each island as a complete scenario
with its own :class:`~repro.engine.kernel.EventKernel`, and runs the
islands in parallel worker processes via :mod:`multiprocessing`.

Islands are independent replicas of the community ecosystem — each has
its own publishers, corpus sample and query stream, seeded
deterministically per island — so aggregate counters are plain sums of
per-island counters and therefore independent of worker scheduling:
``parallel=True`` and ``parallel=False`` produce identical totals for a
fixed seed (pinned by the scale determinism test).  This is the classic
island model of parallel simulation; cross-island links would need the
windowed barrier to span processes, which stays in-process for now (see
ARCHITECTURE.md "Sharding").

Memory is the other half: with one process per island, each worker's
peak RSS covers only its slice of the population, which is what the P2
benchmark charts against population × shard count.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Optional

from repro.workloads.scenario import ScenarioConfig, build_scenario

_KILO = 1 if sys.platform == "darwin" else 1024

#: per-island seeds stride by a prime so islands never share workload
#: randomness yet remain a pure function of (base seed, island index)
_SEED_STRIDE = 101


def _self_peak_rss_bytes() -> int:
    """This process's peak resident set, in bytes.

    Linux reads ``VmHWM`` instead of ``getrusage``'s ``ru_maxrss``
    because the latter inherits the parent's footprint across
    ``execve`` (spawned pool workers are fork+exec underneath) — a
    large parent would become every island's reported floor.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * _KILO


@dataclass
class IslandReport:
    """Counters one island produced."""

    island: int
    peers: int
    queries: int
    results: int
    messages: int
    bytes: int
    downloads: int
    #: build + run (what ``messages_per_s`` divides by) and its two parts:
    #: scenario set-up and the query phase the kernel actually executes
    wall_s: float
    build_s: float
    run_s: float
    peak_rss_bytes: int
    messages_by_type: dict[str, int] = field(default_factory=dict)


@dataclass
class PopulationReport:
    """Aggregate of one scale-out run (sums are scheduling-independent)."""

    population: int
    shards: int
    parallel: bool
    protocol: str
    seed: int
    wall_s: float
    islands: list[IslandReport] = field(default_factory=list)

    @property
    def messages(self) -> int:
        return sum(island.messages for island in self.islands)

    @property
    def bytes(self) -> int:
        return sum(island.bytes for island in self.islands)

    @property
    def queries(self) -> int:
        return sum(island.queries for island in self.islands)

    @property
    def results(self) -> int:
        return sum(island.results for island in self.islands)

    @property
    def downloads(self) -> int:
        return sum(island.downloads for island in self.islands)

    @property
    def messages_per_s(self) -> float:
        return self.messages / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def peak_rss_bytes(self) -> int:
        """Largest single-process high-water mark of the run."""
        return max((island.peak_rss_bytes for island in self.islands), default=0)

    def counters(self) -> dict[str, int]:
        """The order-independent aggregate the determinism test pins."""
        merged: dict[str, int] = {}
        for island in self.islands:
            for message_type, count in island.messages_by_type.items():
                merged[message_type] = merged.get(message_type, 0) + count
        return {
            "messages": self.messages,
            "bytes": self.bytes,
            "queries": self.queries,
            "results": self.results,
            "downloads": self.downloads,
            **{f"type:{key}": value for key, value in sorted(merged.items())},
        }


def island_sizes(population: int, shards: int) -> list[int]:
    """Split ``population`` into ``shards`` near-equal island sizes."""
    if population < 2 * shards:
        raise ValueError(
            f"population {population} too small for {shards} islands "
            "(each needs at least two peers)")
    base, spill = divmod(population, shards)
    return [base + (1 if island < spill else 0) for island in range(shards)]


def island_config(*, island: int, peers: int, protocol: str, seed: int,
                  queries: int, **overrides) -> dict:
    """Config payload of one island (picklable; workers rebuild it)."""
    publishers = max(1, min(10, peers // 10))
    members = max(publishers, min(25, peers // 4))
    payload = dict(
        protocol=protocol,
        peers=peers,
        publishers=publishers,
        members=members,
        corpus_size=60,
        queries=queries,
        ttl=6,
        concurrency=8,
        query_interarrival_ms=20.0,
        seed=seed + _SEED_STRIDE * island,
    )
    payload.update(overrides)
    return payload


def _run_island(payload: dict) -> dict:
    """Worker entry: build and run one island, return plain counters."""
    island = payload.pop("island")
    max_results = payload.pop("max_results", 50)
    if payload.pop("_hard_crash", False):
        # Test hook: die the way a real worker does (OOM kill, segfault
        # in an extension) — no exception, no result, just a dead pid.
        os._exit(13)
    config = ScenarioConfig(**payload)
    started = time.perf_counter()
    scenario = build_scenario(config)
    # detlint: ignore[DET004] -- splits the island's real wall time into
    # IslandReport.build_s / run_s; never reaches simulation state.
    build_s = time.perf_counter() - started
    counts = scenario.run_queries(max_results=max_results)
    wall = time.perf_counter() - started
    stats = scenario.network.stats
    return {
        "island": island,
        "peers": config.peers,
        "queries": len(counts),
        "results": sum(counts),
        "messages": sum(stats.messages_by_type.values()),
        "bytes": sum(stats.bytes_by_type.values()),
        "downloads": len(stats.download_records),
        "wall_s": wall,
        "build_s": build_s,
        "run_s": wall - build_s,
        "peak_rss_bytes": _self_peak_rss_bytes(),
        "messages_by_type": dict(stats.messages_by_type),
    }


def run_population(population: int, *, shards: int = 1, protocol: str = "gnutella",
                   seed: int = 0, queries_per_island: int = 16,
                   parallel: bool = True, max_results: int = 50,
                   processes: Optional[int] = None,
                   **overrides) -> PopulationReport:
    """Run a population of ``population`` peers split across ``shards``
    islands, one worker process per island when ``parallel``.

    ``parallel=False`` runs the same islands sequentially in this
    process — same totals, one process's memory — which is both the
    determinism check and the RSS baseline the P2 benchmark compares
    against.  Extra keyword arguments override per-island
    :class:`ScenarioConfig` fields (e.g. ``live_membership=True``).
    """
    sizes = island_sizes(population, shards)
    payloads = [
        island_config(island=island, peers=size, protocol=protocol, seed=seed,
                      queries=queries_per_island, **overrides)
        | {"island": island, "max_results": max_results}
        for island, size in enumerate(sizes)
    ]
    started = time.perf_counter()
    if parallel:
        # Clean-footprint workers: each island's peak-RSS sample must
        # reflect that island alone, and a child forked from *this*
        # process inherits its resident pages as a VmHWM floor.
        # ``forkserver`` is preferred — children fork from a small,
        # freshly-started server process (clean footprint, none of this
        # process's high-water mark) without paying spawn's per-worker
        # interpreter boot — with ``spawn`` as the fallback and plain
        # ``fork`` only where nothing better exists.  A single-island
        # run still goes through the pool for the same reason — the
        # parent's own high-water mark belongs to whoever ran before us.
        methods = multiprocessing.get_all_start_methods()
        method = next(name for name in ("forkserver", "spawn", "fork")
                      if name in methods)
        ctx = multiprocessing.get_context(method)
        # A futures pool, not multiprocessing.Pool: when a worker dies
        # without reporting a result (OOM kill, segfault), Pool.map
        # waits forever on the lost task while BrokenProcessPool fails
        # the whole run loudly.
        try:
            with ProcessPoolExecutor(max_workers=processes or shards,
                                     mp_context=ctx) as pool:
                raw = list(pool.map(_run_island, payloads))
        except BrokenProcessPool as error:
            raise RuntimeError(
                f"island worker crashed before reporting its results "
                f"(population={population}, shards={shards}): the pool is "
                f"broken, not hung — see the worker's stderr for the cause"
            ) from error
    else:
        raw = [_run_island(dict(payload)) for payload in payloads]
    wall = time.perf_counter() - started
    report = PopulationReport(population=population, shards=shards,
                              parallel=parallel,
                              protocol=protocol, seed=seed, wall_s=wall)
    report.islands = [IslandReport(**island) for island in raw]
    return report
