"""One benchmark run: build the scenario, drive the closed loop, check it.

Two kinds of run share this module.  An *end-to-end* run
(:func:`measure_end_to_end`) builds the workload's scenario
:data:`SETUPS` times with tracing off, then submits rounds of the
workload's operations, batch after batch, until the requested seconds
have passed.  A *traced* run (:func:`measure_traced`) runs a fixed
number of operations untraced and again under :mod:`bench.trace`,
compares the two, and adds the variant cells and the host calibration.

Simulated metrics and the ``counters_digest`` always come from the
*first* round, which every run completes in full whatever the clock
says, so they repeat exactly for one seed; host-clock metrics pool
every batch of every round and are divided by the host's measured
slowness (:class:`HostSpeed`).
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from typing import Any, Optional

from repro.engine.driver import BatchOutcome, QueryDriver, SearchOp
from repro.engine.parallel import run_parallel_scenario
from repro.network.simulator import NetworkSimulator
from repro.workloads import scenario as scenario_module
from repro.workloads.scenario import Scenario, ScenarioConfig

from bench import trace
from bench.workloads import (
    BATCH_OPS,
    INTERARRIVAL_MS,
    MAX_RESULTS,
    TOY_VARIANT_QUERIES,
    VARIANT_QUERIES,
    WORKLOADS,
    operations,
    scenario_config,
)

#: scenario builds per end-to-end run; ``setup_s`` is their median
SETUPS = 3
#: the central index sees the whole catalog and nothing is lost on the
#: way, so ``directory`` must find everything the index can match.  Not
#: 1.0: ``expected_matches`` counts a keyword in *every* field of a
#: record, the index only in the searchable ones, so a seed that draws
#: such a keyword is short by that one query (seed 110: 43 of 86)
DIRECTORY_MIN_RECALL = 0.98

HANDLER_TYPES = ("query", "query-hit", "ping", "pong", "ack", "register",
                 "leaf-attach", "ad-renew", "download-request", "download-response")

#: end-to-end metric -> unit (BENCHMARK.json adds direction and bound)
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "batch_wall_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "sim_latency_ms_p50": "ms",
    "sim_latency_ms_p95": "ms",
    "msgs_per_op": "msgs/op",
    "bytes_per_op": "bytes/op",
    "recall": "share",
    "ok_ops_share": "share",
}


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: wall seconds of one :func:`yardstick` loop on the reference host (the
#: machine the workloads were sized on, in its fast phase); host-clock
#: metrics are reported as if the whole run had been that fast.  A
#: constant fixes only the unit; taking the run's own fastest sample as
#: the reference was measured and is less steady (a run inside one slow
#: phase has no fast sample; README, "Host-speed normalisation")
REFERENCE_YARDSTICK_S = 0.004
#: measured work between two yardstick samples, at least
SLICE_S = 0.2


def yardstick() -> float:
    """Wall seconds of a fixed interpreter-bound loop.

    It imports nothing from the program, so no change to ``src/`` can
    move it, and allocates nothing the collector tracks, so a
    generation-2 pass over the scenario heap never lands inside it.
    """
    table: dict[int, int] = {}
    get = table.get
    total = 0
    started = time.perf_counter()
    for index in range(40_000):
        key = (index * 7919) % 4093
        table[key] = get(key, 0) + index
        total += key
    return time.perf_counter() - started


class HostSpeed:
    """How slow the host is right now, relative to the reference.

    The sandbox this benchmark runs in drifts by +-30 % in phases that
    last seconds (a bare arithmetic loop shows it), which no amount of
    repetition inside one run averages out.  So every slice of measured
    work is bracketed by yardstick samples and divided by their mean,
    which leaves the work's cost in reference-host seconds.
    """

    def __init__(self) -> None:
        self.samples_s: list[float] = []
        self._opened = 0.0

    def _sample(self) -> float:
        sample = statistics.median(yardstick() for _ in range(3))
        self.samples_s.append(sample)
        return sample

    def start(self) -> None:
        """Open a slice of measured work."""
        self._opened = self._sample()

    def stop(self) -> float:
        """Close the slice and open the next; returns the factor the
        slice's wall seconds are to be divided by."""
        closed = self._sample()
        factor = (self._opened + closed) / 2.0 / REFERENCE_YARDSTICK_S
        self._opened = closed
        return factor


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
@dataclass
class Round:
    """What the first (deterministic) round of a run produced."""

    ops: int
    latencies_ms: list[float]
    messages: int
    bytes: int
    recall: float
    downloads: int
    digest: str
    wall_s: float
    cpu_s: float
    #: reference-host seconds inside ``run_mixed``
    busy_s: float
    batches: int
    peak_rss_mb: float
    #: ``NetworkStats.summary()`` at the end of the round
    counters: dict[str, float]


@dataclass
class OpPhase:
    """The measured op phase: the first round plus every later batch."""

    first: Optional[Round] = None
    attempted: int = 0
    failed: int = 0
    #: wall seconds inside ``run_mixed`` per batch, in reference-host
    #: seconds (divided by the slice's host factor) and as the clock read
    batch_walls_s: list[float] = field(default_factory=list)
    raw_batch_walls_s: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def build(config: ScenarioConfig, host: HostSpeed) -> tuple[Scenario, float, float]:
    """``build_scenario(config)`` with its wall seconds, normalised and
    raw.  The builder is looked up on its module at call time, so a
    traced run times the wrapped one."""
    gc.collect()
    host.start()
    started = time.perf_counter()
    scenario = scenario_module.build_scenario(config)
    raw_s = time.perf_counter() - started
    return scenario, raw_s / host.stop(), raw_s


def peak_rss_mb() -> float:
    """This process's high-water resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check_batch(ops: list, expected: list[int], outcome: BatchOutcome,
                 phase: OpPhase) -> tuple[int, int]:
    """Count the batch's failed ops; returns ``(distinct results, reachable)``
    summed over its searches (the two sides of the recall ratio)."""
    failed = outcome.failed + outcome.retrieve_failures + outcome.starved
    found = reachable = 0
    responses = iter(outcome.responses)
    for op, wanted in zip(ops, expected, strict=True):
        if not isinstance(op, SearchOp):
            continue
        distinct = len(next(responses).distinct_resources())
        limit = min(wanted, MAX_RESULTS)
        if distinct > limit:
            failed += 1
            phase.problems.append(
                f"search returned {distinct} objects, only {limit} can match")
        found += distinct
        reachable += limit
    phase.attempted += len(ops)
    phase.failed += failed
    return found, reachable


def counters_digest(result_counts: list[int], stats: Any) -> str:
    """sha256 over everything a simulator-only change must leave alone."""
    payload = {
        "result_counts": result_counts,
        "messages_by_type": sorted(stats.messages_by_type.items()),
        "bytes_by_type": sorted(stats.bytes_by_type.items()),
        "queries": [(record.results, record.messages, record.bytes,
                     record.peers_probed, round(record.latency_ms, 6))
                    for record in stats.queries],
        "downloads": [(record.resource_id, record.requester, record.provider,
                       record.bytes, round(record.latency_ms, 6))
                      for record in stats.download_records],
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def run_ops(scenario: Scenario, seconds: float, host: HostSpeed, *,
            min_rounds: int = 1) -> OpPhase:
    """Drive rounds of the workload until ``seconds`` have passed and
    ``min_rounds`` rounds were completed.

    The first round always runs in full; after it the loop stops at the
    first batch boundary past both limits, so ``seconds`` of zero gives
    an op count that does not depend on the host.  Only the time inside
    ``run_mixed`` is sampled: the harness's own checking and its
    yardstick between batches are not the program.
    """
    ops = operations(scenario)
    expected = scenario.workload.expected_matches
    stats = scenario.network.stats
    driver = QueryDriver(scenario.network)
    batches = [(ops[start:start + BATCH_OPS], expected[start:start + BATCH_OPS])
               for start in range(0, len(ops), BATCH_OPS)]
    phase = OpPhase()
    result_counts: list[int] = []
    found = reachable = 0
    slice_walls: list[float] = []
    slice_s = 0.0

    def close_slice() -> None:
        nonlocal slice_s
        factor = host.stop()
        phase.raw_batch_walls_s.extend(slice_walls)
        phase.batch_walls_s.extend(wall / factor for wall in slice_walls)
        slice_walls.clear()
        slice_s = 0.0

    def unfinished() -> bool:
        return phase.attempted < min_rounds * len(ops) \
            or time.perf_counter() - started < seconds

    gc.collect()
    host.start()
    cpu_started = time.process_time()
    started = time.perf_counter()
    while phase.first is None or unfinished():
        for batch, wanted in batches:
            batch_started = time.perf_counter()
            outcome = driver.run_mixed(batch, max_results=MAX_RESULTS,
                                       interarrival_ms=INTERARRIVAL_MS)
            wall = time.perf_counter() - batch_started
            slice_walls.append(wall)
            slice_s += wall
            if slice_s >= SLICE_S:
                close_slice()
            batch_found, batch_reachable = _check_batch(batch, wanted, outcome, phase)
            if phase.first is None:
                result_counts.extend(outcome.result_counts)
                found += batch_found
                reachable += batch_reachable
            elif not unfinished():
                break
        if phase.first is None:
            close_slice()
            phase.first = Round(
                ops=len(ops),
                latencies_ms=[record.latency_ms for record in stats.queries],
                messages=stats.total_messages, bytes=stats.total_bytes,
                recall=found / reachable if reachable else 1.0,
                downloads=stats.downloads,
                digest=counters_digest(result_counts, stats),
                wall_s=time.perf_counter() - started,
                cpu_s=time.process_time() - cpu_started,
                busy_s=sum(phase.batch_walls_s),
                batches=len(batches), peak_rss_mb=peak_rss_mb(),
                counters=stats.summary())
        # Records of finished rounds would otherwise grow the heap with
        # the host's speed, and peak RSS with it.
        stats.reset()
    close_slice()
    return phase


# ----------------------------------------------------------------------
# End-to-end run (tracing off)
# ----------------------------------------------------------------------
def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile of ``values`` (``share`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _verdict(name: str, phase: OpPhase) -> list[str]:
    """The correctness gate's findings for one op phase."""
    problems = list(phase.problems)
    if name == "directory" and phase.first.recall < DIRECTORY_MIN_RECALL:
        problems.append(f"directory recall is {phase.first.recall!r}, "
                        f"below {DIRECTORY_MIN_RECALL}")
    return problems


def measure_end_to_end(name: str, seed: int, seconds: float, *,
                       toy: bool = False) -> dict:
    """One untraced run: ``SETUPS`` builds, then the timed op phase."""
    config = scenario_config(name, seed, toy=toy)
    host = HostSpeed()
    setups: list[float] = []
    raw_setups: list[float] = []
    scenario = None
    for _ in range(SETUPS):
        scenario = None  # free the previous build before timing the next
        scenario, setup_s, raw_setup_s = build(config, host)
        setups.append(setup_s)
        raw_setups.append(raw_setup_s)
    phase = run_ops(scenario, seconds, host)
    first = phase.first
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": phase.attempted / sum(phase.batch_walls_s),
        "batch_wall_ms_p50": statistics.median(phase.batch_walls_s) * 1000.0,
        "peak_rss_mb": first.peak_rss_mb,
        "sim_latency_ms_p50": percentile(first.latencies_ms, 0.50),
        "sim_latency_ms_p95": percentile(first.latencies_ms, 0.95),
        "msgs_per_op": first.messages / first.ops,
        "bytes_per_op": first.bytes / first.ops,
        "recall": first.recall,
        "ok_ops_share": 1.0 - phase.failed / phase.attempted,
    }
    return {
        "metrics": {metric: {"value": value, "unit": END_TO_END_UNITS[metric]}
                    for metric, value in values.items()},
        "attempted": phase.attempted,
        "failed": phase.failed,
        "problems": _verdict(name, phase),
        "detail": {
            "counters_digest": first.digest,
            "setup_samples_s": setups,
            "raw": {"setup_samples_s": raw_setups,
                    "ops_per_s": phase.attempted / sum(phase.raw_batch_walls_s),
                    "batch_wall_ms_p50":
                        statistics.median(phase.raw_batch_walls_s) * 1000.0,
                    "yardstick_ms_p50": statistics.median(host.samples_s) * 1000.0,
                    "yardstick_ms_min": min(host.samples_s) * 1000.0},
            "batch_samples": len(phase.batch_walls_s),
            "latency_samples": len(first.latencies_ms),
            "first_round": {"ops": first.ops, "messages": first.messages,
                            "downloads": first.downloads},
        },
    }


# ----------------------------------------------------------------------
# Traced run (per-layer metrics)
# ----------------------------------------------------------------------
def calibration_events_per_s(count: int = 200_000) -> float:
    """Events/s of the P1 synthetic ``post``/``run`` loop on this host.

    Recorded so numbers taken on another machine can be normalised;
    never used for gating.  Median of three loops of ``count`` events.
    """
    def tick() -> None:
        return None

    samples = []
    for _ in range(3):
        simulator = NetworkSimulator(seed=0)
        started = time.perf_counter()
        for index in range(count):
            simulator.post(float(index % 50), tick)
        simulator.run(max_events=count + 1)
        samples.append(count / (time.perf_counter() - started))
    return statistics.median(samples)


def _timed_queries(config: ScenarioConfig) -> tuple[Scenario, list[int], float]:
    """Build ``config`` and run its query phase the way the parallel
    runner's workers do (``Scenario.run_queries``), timed."""
    scenario = scenario_module.build_scenario(config)
    started = time.perf_counter()
    counts = scenario.run_queries(max_results=MAX_RESULTS)
    return scenario, counts, time.perf_counter() - started


def stop_resource_tracker() -> None:
    """Stop the helper process ``multiprocessing``'s spawn context starts
    beside the workers, and wait for it.

    The runner joins its workers, but the tracker lives until its parent
    exits and then ends *after* it — a process the run started and left
    behind.  ``multiprocessing`` has no public call for this; it starts
    the tracker again by itself if anything needs one later.
    """
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def variant_cells(seed: int, *, toy: bool) -> tuple[dict[str, dict], list[str]]:
    """The flood scenario re-run with one scale-out or routing mechanism
    on.  Sharded and parallel must reproduce the serial
    ``counters_digest``; informed routing must return identical results
    for no more messages.  A PR that deletes one of the mechanisms
    deletes its cell here and its metrics from ``BENCHMARK.json``.
    """
    queries = TOY_VARIANT_QUERIES if toy else VARIANT_QUERIES

    def cell(**knobs: object) -> ScenarioConfig:
        return scenario_config("flood", seed, toy=toy, queries=queries, **knobs)

    values: dict[str, float] = {}
    problems: list[str] = []

    scenario, serial_counts, serial_run_s = _timed_queries(cell())
    serial_digest = counters_digest(serial_counts, scenario.network.stats)
    serial_messages = scenario.network.stats.total_messages

    scenario, counts, run_s = _timed_queries(cell(shards=4))
    if counters_digest(counts, scenario.network.stats) != serial_digest:
        problems.append("variant cell: shards=4 does not reproduce the serial digest")
    values.update({"engine.sharded.run_s": run_s,
                   "engine.sharded.windows": scenario.network.simulator.windows,
                   "engine.sharded.slowdown": run_s / serial_run_s})

    try:
        report = run_parallel_scenario(cell(shards=4, parallel=True),
                                       workers=2, max_results=MAX_RESULTS)
    finally:
        stop_resource_tracker()
    if counters_digest(report.counts, report.stats) != serial_digest:
        problems.append("variant cell: the parallel run does not reproduce "
                        "the serial digest")
    values.update({
        "engine.parallel.run_s": report.query_wall_s,
        "engine.parallel.barriers": report.barriers,
        "engine.parallel.bytes_shipped": report.bytes_shipped,
        "engine.parallel.cross_shard_msgs": report.cross_shard_messages,
        "engine.parallel.slowdown": report.query_wall_s / serial_run_s,
        "engine.parallel.worker_peak_rss_mb":
            max(report.worker_peak_rss_bytes) / (1 << 20),
    })

    scenario, counts, run_s = _timed_queries(cell(informed_routing=True))
    stats = scenario.network.stats
    if counts != serial_counts:
        problems.append("variant cell: informed routing changed a result count")
    if stats.total_messages > serial_messages:
        problems.append("variant cell: informed routing sent more messages than the flood")
    query_copies = stats.messages_by_type["query"]
    values.update({
        "network.routing.run_s": run_s,
        "network.routing.pruned_share":
            stats.routing_pruned / (stats.routing_pruned + query_copies),
        "network.routing.fallbacks": stats.routing_fallbacks,
        "network.routing.msgs_per_op": stats.total_messages / queries,
        "network.routing.filter_bytes": stats.routing_filter_bytes,
    })
    return {metric: {"value": value, "unit": VARIANT_UNITS[metric.rsplit(".", 1)[1]]}
            for metric, value in values.items()}, problems


def _gc_collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def measure_traced(name: str, seed: int, *, toy: bool = False) -> dict:
    """One traced run, as ``--trace 1`` prints it: the workload's layers,
    then the variant cells and the host calibration (the same two
    measurements whatever the workload, so every traced run carries
    every per-layer metric)."""
    outcome = measure_layers(name, seed, toy=toy)
    variant_metrics, variant_problems = variant_cells(seed, toy=toy)
    outcome["problems"] += variant_problems
    outcome["metrics"].update(variant_metrics)
    outcome["metrics"]["host.calibration_events_per_s"] = {
        "value": calibration_events_per_s(), "unit": "1/s"}
    return outcome


def measure_layers(name: str, seed: int, *, toy: bool = False) -> dict:
    """A round untraced, then the same round under :mod:`bench.trace`."""
    config = scenario_config(name, seed, toy=toy)
    rounds = 1 if toy else WORKLOADS[name].traced_rounds
    host = HostSpeed()
    collections_before = _gc_collections()
    scenario, untraced_setup_s, _raw_s = build(config, host)
    untraced = run_ops(scenario, 0.0, host, min_rounds=rounds)
    collections = _gc_collections() - collections_before
    scenario = None

    tracer = trace.Tracer()
    trace.install(tracer)
    try:
        scenario, traced_setup_s, raw_traced_setup_s = build(config, host)
        setup_self_s = tracer.self_by_span()
        traced = run_ops(scenario, 0.0, host, min_rounds=rounds)
    finally:
        tracer.uninstall()
    problems = _verdict(name, untraced) + _verdict(name, traced)
    if traced.first.digest != untraced.first.digest:
        problems.append("the traced round's counters_digest differs from the untraced one")

    # Normalised seconds compare the two passes (they ran at different
    # moments of the host's drift); span seconds are as the clock read,
    # so shares of the traced wall are taken against the raw wall.
    untraced_busy_s = sum(untraced.batch_walls_s)
    traced_busy_s = sum(traced.batch_walls_s)
    raw_traced_busy_s = sum(traced.raw_batch_walls_s)
    raw_traced_s = raw_traced_setup_s + raw_traced_busy_s
    first, counters = untraced.first, traced.first.counters
    self_s = tracer.self_by_span()

    def calls(span: str) -> int:
        return tracer.totals(span)[0]

    def span_self(span: str) -> float:
        return self_s.get(span, 0.0)

    evaluate_calls = calls("storage.plan.evaluate")
    lookups = counters["cache_hits"] + counters["cache_misses"]
    values: dict[str, tuple[float, str]] = {}
    for metric, span in SPAN_SECONDS.items():
        values[metric] = (span_self(span), "s")
    for metric, span in SPAN_CALLS.items():
        values[metric] = (calls(span), "count")
    for kind in HANDLER_TYPES:
        values[f"network.handler.{kind}_s"] = (span_self(f"network.handler.{kind}"), "s")
        values[f"network.handler.{kind}_calls"] = (calls(f"network.handler.{kind}"), "count")
    values.update({
        "engine.kernel.loop_self_s": (span_self("engine.kernel.run_until_complete")
                                      + span_self("engine.driver.run_mixed"), "s"),
        "engine.kernel.msgs_per_s": (first.messages / first.busy_s, "1/s"),
        "engine.kernel.us_per_msg": (first.busy_s / first.messages * 1e6, "us"),
        "engine.driver.batches": (first.batches, "count"),
        "engine.driver.batch_wall_ms_p90":
            (percentile(untraced.batch_walls_s, 0.90) * 1000.0, "ms"),
        "xmlkit.parser.parse_chars": (tracer.counts["xmlkit.parser.parse_chars"], "count"),
        "storage.index.posting_bytes":
            (sum(index.posting_bytes() for index in tracer.indexes), "bytes"),
        "storage.plan.ids_per_evaluate":
            (tracer.counts["storage.plan.evaluate_ids"] / evaluate_calls
             if evaluate_calls else 0.0, "count"),
        "storage.cache.lookups": (lookups, "count"),
        "storage.cache.hit_ratio":
            (counters["cache_hits"] / lookups if lookups else 0.0, "share"),
        "storage.cache.puts": (tracer.counts["storage.cache.puts"], "count"),
        "storage.cache.invalidations":
            (tracer.counts["storage.cache.invalidations"], "count"),
        "storage.replicas.total_replicas":
            (scenario.network.replicas.total_replicas(), "count"),
        "network.simulator.step_calls":
            (scenario.network.simulator.events_processed, "count"),
        "network.base.retries": (counters["retries"], "count"),
        "network.base.timeouts": (counters["timeouts"], "count"),
        "network.base.failovers": (counters["failovers"], "count"),
        "network.faults.dropped": (counters["dropped"], "count"),
        "network.membership.events":
            (len(scenario.churn.events) if scenario.churn is not None else 0, "count"),
        "host.cpu_s": (first.cpu_s, "s"),
        "host.stolen_share": (max(0.0, first.wall_s - first.cpu_s) / first.wall_s, "share"),
        "host.trace_overhead_ratio": ((traced_setup_s + traced_busy_s)
                                      / (untraced_setup_s + untraced_busy_s), "ratio"),
        "host.trace_attributed_share": (sum(self_s.values()) / raw_traced_s, "share"),
        "host.gc_collections": (collections, "count"),
        "host.yardstick_ms": (statistics.median(host.samples_s) * 1000.0, "ms"),
    })
    ops_self_s = {span: seconds - setup_self_s.get(span, 0.0)
                  for span, seconds in self_s.items()}
    return {
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in values.items()},
        "attempted": untraced.attempted + traced.attempted,
        "failed": untraced.failed + traced.failed,
        "problems": problems,
        "detail": {
            "counters_digest": first.digest,
            "untraced": {"setup_s": untraced_setup_s, "ops_s": untraced_busy_s},
            "traced": {"setup_s": traced_setup_s, "ops_s": traced_busy_s},
            "setup_self_share": _shares(setup_self_s, raw_traced_setup_s),
            "ops_self_share": _shares(ops_self_s, raw_traced_busy_s),
            "spans": tracer.table(),
        },
    }


def _shares(self_s: dict[str, float], wall_s: float) -> dict[str, float]:
    """Each span's self time as a share of one phase's wall, largest
    first, spans under 0.1 % left out."""
    ranked = sorted(self_s.items(), key=lambda item: item[1], reverse=True)
    return {span: seconds / wall_s for span, seconds in ranked
            if seconds / wall_s >= 0.001}


#: per-layer ``*_s`` metric -> the span whose self seconds it reports
SPAN_SECONDS = {
    "workloads.scenario.build_network_s": "workloads.scenario.build_network",
    "workloads.scenario.self_s": "workloads.scenario.build",
    "workloads.queries.build_s": "workloads.queries.build",
    "core.servent.init_s": "core.servent.init",
    "core.servent.search_communities_s": "core.servent.search_communities",
    "core.servent.join_community_s": "core.servent.join_community",
    "core.application.publish_s": "core.application.publish",
    "core.stylesheets.init_s": "core.stylesheets.init",
    "xmlkit.parser.parse_s": "xmlkit.parser.parse",
    "xslt.parser.parse_s": "xslt.parser.parse",
    "schema.parser.parse_s": "schema.parser.parse",
    "schema.validator.validate_s": "schema.validator.validate",
    "storage.repository.publish_s": "storage.repository.publish",
    "storage.index.add_s": "storage.index.add",
    "storage.plan.compile_s": "storage.plan.compile",
    "storage.plan.evaluate_s": "storage.plan.evaluate",
    "engine.kernel.send_s": "engine.kernel.send",
    "engine.kernel.timer_s": "engine.kernel.timer",
    "network.simulator.post_s": "network.simulator.post",
    "network.stats.record_s": "network.stats.record",
    "network.base.publish_s": "network.base.publish",
    "network.base.start_search_s": "network.base.start_search",
    "network.base.finish_search_s": "network.base.finish_search",
    "network.faults.decide_s": "network.faults.decide",
}

#: per-layer ``*_calls`` metric -> the span whose calls it counts
SPAN_CALLS = {
    "core.servent.init_calls": "core.servent.init",
    "core.application.publish_calls": "core.application.publish",
    "xmlkit.parser.parse_calls": "xmlkit.parser.parse",
    "xslt.parser.parse_calls": "xslt.parser.parse",
    "schema.parser.parse_calls": "schema.parser.parse",
    "schema.validator.validate_calls": "schema.validator.validate",
    "storage.index.add_calls": "storage.index.add",
    "storage.index.remove_calls": "storage.index.remove",
    "storage.plan.compile_calls": "storage.plan.compile",
    "storage.plan.evaluate_calls": "storage.plan.evaluate",
    "engine.kernel.send_calls": "engine.kernel.send",
    "engine.kernel.timer_fires": "engine.kernel.timer",
    "network.simulator.post_calls": "network.simulator.post",
    "network.stats.record_calls": "network.stats.record",
    "network.base.publish_calls": "network.base.publish",
    "network.faults.decide_calls": "network.faults.decide",
}

#: unit of a variant-cell metric, by its last name component
VARIANT_UNITS = {
    "run_s": "s", "windows": "count", "slowdown": "ratio", "barriers": "count",
    "bytes_shipped": "bytes", "cross_shard_msgs": "count",
    "worker_peak_rss_mb": "MB", "pruned_share": "share", "fallbacks": "count",
    "msgs_per_op": "msgs/op", "filter_bytes": "bytes",
}
