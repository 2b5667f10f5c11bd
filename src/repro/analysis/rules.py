"""The detlint rule catalogue.

Every rule encodes one invariant the repository has either been bitten
by or leans on for its determinism/sharding story.  The docstring of a
rule is its contract: what it flags, why, and the historical incident
or architectural argument behind it.  Rules are suppressible inline
(``# detlint: ignore[RULE] -- reason``), and only with a stated
reason, so every accepted site is a documented decision next to the
code it excuses.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Rule:
    """One named, individually-suppressible check."""

    id: str
    summary: str
    rationale: str


RULES: dict[str, Rule] = {
    rule.id: rule
    for rule in (
        Rule(
            id="DET001",
            summary="unsorted iteration over a set where order can reach a protocol decision",
            rationale=(
                "Python salts str hashes per process (PYTHONHASHSEED), so a "
                "set[str]'s iteration order reproduces within a run but flips "
                "between runs.  Historical incident: the PR 6 review fix — "
                "SuperPeerProtocol._on_peer_departed re-attached a dead "
                "super's orphaned leaves by iterating the leaves set[str] in "
                "raw order; re-attachment is least-loaded-first, so the "
                "iteration order decided the new leaf->super map and whole "
                "benchmark grids flipped with the salt.  Repeat-twice "
                "determinism tests cannot see this (both runs share one "
                "salt); only the contract suite's subprocess hash-salt leg "
                "can, after the fact.  In protocol-decision modules "
                "(src/repro/network/, src/repro/engine/) iterate sets in "
                "sorted(...) order, or materialize through an "
                "order-insensitive reducer (sum/min/max/any/all/len/set)."
            ),
        ),
        Rule(
            id="DET002",
            summary="builtin hash() — salted per process; the bar is zlib.crc32",
            rationale=(
                "hash(str) changes with PYTHONHASHSEED, so anything derived "
                "from it — a shard assignment, a cache key, a tie-break — "
                "varies across processes while looking deterministic within "
                "one.  engine/sharded.py's shard_of deliberately uses "
                "crc32(id) % shards for exactly this reason: the placement "
                "decides the event interleaving and must be reproducible "
                "across worker processes and interpreter versions.  Use "
                "zlib.crc32 (or a sorted key) instead of hash()."
            ),
        ),
        Rule(
            id="DET003",
            summary="module-level random.* / unseeded random.Random() instead of a seeded stream",
            rationale=(
                "Everything in the simulation is seeded: topology, link "
                "latencies, churn interarrivals, corpus sampling, workload "
                "splits (ARCHITECTURE.md 'Determinism').  The module-level "
                "random functions draw from one ambient, implicitly-seeded "
                "global stream, so any call order change — or another "
                "consumer anywhere in the process — silently reshuffles "
                "results.  Draw from an injected random.Random(seed) stream "
                "(e.g. simulator.random, ScenarioConfig.seed derivatives)."
            ),
        ),
        Rule(
            id="DET004",
            summary="wall-clock read (time.time/perf_counter/datetime.now) in simulation code",
            rationale=(
                "The virtual clock moves only by processing events — nothing "
                "in the simulation may observe real time, or results depend "
                "on host speed and load.  Wall-clock reads belong in the "
                "bench/ harness (and in explicitly-reported wall_s metrics); "
                "in simulation code use simulator.now."
            ),
        ),
        Rule(
            id="KERN001",
            summary="cross-shard hazard: event-heap access in protocol code",
            rationale=(
                "The sharded kernel's determinism argument (engine/sharded.py) "
                "holds because every event enters the queue through a routed "
                "entry point: message deliveries via kernel.send -> "
                "simulator.post (routed to the recipient's shard, lookahead-"
                "checked when sent cross-shard mid-event), keyed timers "
                "via post_keyed.  post and post_keyed are the only ways onto "
                "a queue; a protocol touching the _queue heap bypasses "
                "_route and its lookahead check — under shards>1 that undermines the "
                "bit-identical contract the windowed execution provides."
            ),
        ),
        Rule(
            id="KERN002",
            summary="direct multiprocessing / os.fork use outside the sanctioned "
            "process-management module",
            rationale=(
                "Exactly one module may create processes: "
                "engine/parallel.py (the coordinator/worker barrier runtime "
                "for process-parallel shard execution).  It picks a "
                "spawn-safe start method deliberately, surfaces worker "
                "crashes loudly, and keeps the determinism story — "
                "full-replica bootstrap, content-keyed fault streams — "
                "intact across process "
                "boundaries.  An ad-hoc multiprocessing import or os.fork() "
                "anywhere else dodges those guarantees: a forked child "
                "inherits live kernel state (heaps, interning tables, RNG "
                "positions) mid-flight, and an unmanaged pool can hang the "
                "suite when a worker dies.  Route process fan-out through "
                "run_parallel_scenario / ParallelShardRunner instead."
            ),
        ),
        Rule(
            id="DETLINT",
            summary="malformed suppression: # detlint: ignore[...] without a reason",
            rationale=(
                "A suppression is an accepted risk, and accepted risks carry "
                "their justification at the site: "
                "# detlint: ignore[RULE] -- reason.  Without the reason the "
                "comment does not suppress anything."
            ),
        ),
    )
}
