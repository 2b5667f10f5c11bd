"""E11 — informed routing: messages saved vs. recall vs. filter size.

Gnutella's blind flood forwards every query to every neighbour; with
``informed_routing`` on, each hop consults per-neighbour attenuated
Bloom filters and forwards only where a filter admits the query within
the remaining TTL, falling back to the blind fan-out when no neighbour
admits (the no-lost-results contract).  This experiment sweeps the
filter geometry — bits per level x depth — against churn and records,
per cell:

* **messages saved** — total messages versus the blind flood of the
  same seed and churn (the fan-out the filters pruned);
* **recall** — per-query result counts, asserted *identical* to the
  blind flood's in every cell: pruning may never cost a result;
* **pruned / fallbacks / FP forwards** — where the savings came from
  and what the Bloom false-positive rate actually cost in messages.

The grid runs with membership in the instant (off) mode so the message
delta is purely the filters' doing; one extra live-membership cell
measures the advertisement bytes the filters add to keepalive PONGs
(``routing_filter_bytes``) — the steady-state price of keeping the
filters current through the lease machinery.

Churn here is the scenario's relay churn (``churn_session_ms``): the
member core — query origins and every content holder — stays online
while the relay population cycles.  That scoping is load-bearing for
the recall assertion: duplicate suppression is first-copy-wins, so
pruning an early low-TTL copy makes a peer process a *later* copy and
re-flood on a shifted timetable.  When content holders or origins
churn, those timing shifts change who is online at arrival and blind
versus informed result sets diverge in *both* directions — not a
routing hole, but a property of flood timing under churn.  With the
content core pinned, every arriving copy gets answered and the strict
identical-recall contract holds in every cell.

A deliberately visible trade-off: *larger* filters are more precise,
so more hops see every neighbour refuse — and each such hop falls back
to the full blind fan-out.  Cells where precision rises but savings
fall (fallbacks climbing) are the experiment's finding, not a bug.
"""

from __future__ import annotations

import time

from repro.workloads.scenario import ScenarioConfig, build_scenario

FILTER_BITS = (512, 2_048)
DEPTHS = (2, 4)
#: mean online-session length per churn level (None = static population)
CHURN_LEVELS = {"static": None, "churny": 1_200.0}

BASE = dict(
    protocol="gnutella",
    peers=30,
    members=12,
    publishers=6,
    corpus_size=40,
    queries=48,
    community="design-patterns",
    ttl=6,
    seed=29,
    concurrency=6,
    query_interarrival_ms=20.0,
)

#: collected by the grid test; the last test prints it
RECORD: dict = {"grid": {}}


def run_cell(session_ms, **overrides) -> dict:
    """One run: relay churn per the scenario knobs, filters per cell."""
    if session_ms is not None:
        overrides = dict(overrides, churn_session_ms=session_ms,
                         churn_absence_ms=session_ms * 0.6)
    scenario = build_scenario(ScenarioConfig(**{**BASE, **overrides}))
    start = time.perf_counter()
    counts = scenario.run_queries(max_results=100)
    wall = time.perf_counter() - start
    stats = scenario.network.stats
    return {
        "wall_s": round(wall, 6),
        "messages": stats.total_messages,
        "bytes": stats.total_bytes,
        "counts": counts,
        "hit_rate": round(sum(1 for count in counts if count > 0) / len(counts), 4),
        "routing_pruned": stats.routing_pruned,
        "routing_fallbacks": stats.routing_fallbacks,
        "routing_fp_forwards": stats.routing_fp_forwards,
        "routing_filter_bytes": stats.routing_filter_bytes,
        "queries_per_s": round(len(counts) / wall, 1),
    }


def test_bench_e11_routing_grid(benchmark):
    """The filter-geometry x churn grid, with a blind baseline per
    churn level; recall is asserted identical in every cell."""
    grid = {}

    def measure():
        for level, session_ms in CHURN_LEVELS.items():
            blind = run_cell(session_ms)
            grid[f"{level}/blind"] = blind
            for bits in FILTER_BITS:
                for depth in DEPTHS:
                    sample = run_cell(session_ms,
                                      informed_routing=True,
                                      routing_filter_bits=bits,
                                      routing_depth=depth)
                    sample.update(
                        churn=level, filter_bits=bits, depth=depth,
                        messages_saved=blind["messages"] - sample["messages"],
                        bytes_saved=blind["bytes"] - sample["bytes"],
                    )
                    grid[f"{level}/bits{bits}_depth{depth}"] = sample
        return grid

    benchmark.pedantic(measure, rounds=1, iterations=1)
    RECORD["grid"] = grid
    for level in CHURN_LEVELS:
        blind = grid[f"{level}/blind"]
        for bits in FILTER_BITS:
            for depth in DEPTHS:
                cell = grid[f"{level}/bits{bits}_depth{depth}"]
                # The tentpole contract, asserted in the benchmark too:
                # identical recall, never more messages.
                assert cell["counts"] == blind["counts"], (
                    f"{level}/bits{bits}_depth{depth}: informed routing "
                    "changed a result count")
                assert cell["messages"] <= blind["messages"]
        # The knob must actually bite somewhere in each churn level.
        assert any(grid[f"{level}/bits{bits}_depth{depth}"]["messages_saved"] > 0
                   for bits in FILTER_BITS for depth in DEPTHS), (
            f"{level}: no filter geometry saved any messages")


def test_bench_e11_live_advertisement_cost(benchmark):
    """One live-membership cell: the filters ride keepalive PONGs, so
    the advertisement bytes they add are real measured control traffic."""
    samples = {}

    def measure():
        cell = dict(live_membership=True, maintenance_interval_ms=250.0)
        samples["blind"] = run_cell(CHURN_LEVELS["churny"], **cell)
        samples["informed"] = run_cell(CHURN_LEVELS["churny"], informed_routing=True, **cell)
        return samples

    benchmark.pedantic(measure, rounds=1, iterations=1)
    blind, informed = samples["blind"], samples["informed"]
    assert informed["counts"] == blind["counts"], (
        "live cell: informed routing changed a result count")
    assert informed["routing_filter_bytes"] > 0, (
        "live membership must bill filter advertisements")


def test_bench_e11_write_record(benchmark, report):
    """Print the sweep table."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert RECORD["grid"], "run the whole module so the grid is measured"
    rows = []
    for level in CHURN_LEVELS:
        blind = RECORD["grid"][f"{level}/blind"]
        rows.append([level, "blind", "-", blind["messages"], "-", "-", "-", "-",
                     f"{blind['hit_rate']:.2f}"])
        for bits in FILTER_BITS:
            for depth in DEPTHS:
                cell = RECORD["grid"][f"{level}/bits{bits}_depth{depth}"]
                rows.append([
                    level, bits, depth, cell["messages"],
                    cell["messages_saved"], cell["routing_pruned"],
                    cell["routing_fallbacks"], cell["routing_fp_forwards"],
                    f"{cell['hit_rate']:.2f}",
                ])
    report(
        "E11  informed routing: messages saved vs. filter geometry "
        "(30 peers, recall identical to blind flood in every cell)",
        ["churn", "bits", "depth", "msgs", "saved", "pruned", "fallback",
         "fp fwd", "success"],
        rows,
    )
