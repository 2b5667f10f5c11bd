"""E12 — fault injection: reliable delivery, partition survival, failover.

The seed simulator's links are perfect, so none of the paper's four
organisations ever paid for the faults a deployment actually sees.
This experiment injects deterministic faults (uniform message loss,
scheduled partitions, crash-stop provider failures) and measures what
the reliable-delivery hardening buys per protocol:

* **loss sweep** — a mixed search+download workload under 2% and 10%
  uniform loss, hardened (ack/retry envelope + chunked downloads with
  stall watchdog) versus legacy fire-and-forget.  The headline is
  download survival: a legacy download dies with its dropped request
  or response, a hardened one re-requests and completes.
* **partition outage** — a scheduled 2-second cut between the pure
  searchers and the rest of the network (providers, relays, hubs),
  healing mid-workload.  Deterministic: no RNG draws, so the hardened
  and legacy cells face the *identical* outage.  Hardened retries with
  backoff ride out the cut; legacy downloads inside the window are
  lost for good.
* **crash failover** — a provider crash-stopping between chunks of an
  in-flight download; the requester's stall watchdog fails over to the
  next-ranked replica and completes, where the legacy path (or a
  network with no second replica) strands the transfer.

Gnutella's query plane is best-effort by design (flood redundancy is
its loss recovery), so its hardening applies to downloads only — the
table shows that honestly rather than forcing an envelope onto the
flood.
"""

from __future__ import annotations

import time

import pytest

from repro.network.errors import TransferError
from repro.network.faults import FaultPlan, PartitionWindow
from repro.workloads.scenario import ScenarioConfig, build_scenario

PROTOCOLS = ("centralized", "gnutella", "super-peer", "rendezvous")

#: 0.0 is the clean-network reference cell: a few workload downloads
#: fail deterministically even without faults (the drawn requester is
#: the object's only holder), so survival is judged against it
LOSS_RATES = (0.0, 0.02, 0.10)
FAULT_SEED = 17

BASE = dict(
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
    live_membership=True,
    retrieve_fraction=0.35,
    popularity_skew=0.8,
)

#: knobs of the hardened cells: ack/retry envelope on control traffic
#: and chunked downloads with a stall watchdog
HARDENED = dict(
    reliable_delivery=True,
    retry_timeout_ms=120.0,
    # ~150ms transmission per 16KB chunk at the modelled bandwidth: the
    # stall watchdog must comfortably outlast the inter-chunk cadence or
    # healthy streams read as stalled.
    download_chunk_bytes=16 * 1024,
    download_stall_timeout_ms=800.0,
)

#: the outage cell needs a backoff span and attempt budget that can
#: ride out the full 2-second cut
OUTAGE_HARDENED = dict(
    reliable_delivery=True,
    retry_timeout_ms=300.0,
    retry_max_attempts=6,
    download_chunk_bytes=16 * 1024,
    download_stall_timeout_ms=800.0,
)

OUTAGE_WINDOW = (500.0, 2_500.0)

#: collected by the grid tests; the last test prints it
RECORD: dict = {"protocols": {}}


def run_loss_cell(protocol: str, loss_rate: float, hardened: bool) -> dict:
    """One loss-sweep cell: mixed workload under uniform message loss."""
    knobs = dict(HARDENED) if hardened else {}
    plan = FaultPlan(seed=FAULT_SEED, loss_rate=loss_rate) if loss_rate else None
    scenario = build_scenario(ScenarioConfig(
        protocol=protocol, faults=plan, **knobs, **BASE))
    start = time.perf_counter()
    outcome = scenario.run_mixed_workload(max_results=100)
    wall = time.perf_counter() - start
    stats = scenario.network.stats
    counts = outcome.result_counts
    return {
        "wall_s": round(wall, 6),
        "hardened": hardened,
        "loss_rate": loss_rate,
        "messages": stats.total_messages,
        "bytes": stats.total_bytes,
        "hit_rate": round(sum(1 for count in counts if count > 0)
                          / max(1, len(counts)), 4),
        "downloads_attempted": len(outcome.retrieves),
        "downloads_completed": outcome.downloads_completed,
        "download_failures": outcome.retrieve_failures,
        **stats.fault_summary(),
        "queries_per_s": round(len(counts) / wall, 1) if counts else 0.0,
    }


def run_outage_cell(protocol: str, hardened: bool) -> dict:
    """One partition-outage cell: a deterministic mid-workload cut
    between the pure searchers and everyone else (providers, relays and
    the organisations' virtual hubs), healing before the workload ends."""
    knobs = dict(OUTAGE_HARDENED) if hardened else {}
    config = ScenarioConfig(protocol=protocol, **knobs, **BASE)
    scenario = build_scenario(config)
    searchers = tuple(servent.peer_id
                      for servent in scenario.servents[config.publishers:config.members])
    others = tuple(sorted(
        set(scenario.network.peers) - set(searchers)
        | set(scenario.network.kernel.virtual_nodes)))
    plan = FaultPlan(partitions=(
        PartitionWindow(OUTAGE_WINDOW[0], OUTAGE_WINDOW[1], searchers, others),))
    scenario.network.install_faults(plan)
    start = time.perf_counter()
    outcome = scenario.run_mixed_workload(max_results=100)
    wall = time.perf_counter() - start
    stats = scenario.network.stats
    counts = outcome.result_counts
    return {
        "wall_s": round(wall, 6),
        "hardened": hardened,
        "messages": stats.total_messages,
        "hit_rate": round(sum(1 for count in counts if count > 0)
                          / max(1, len(counts)), 4),
        "downloads_attempted": len(outcome.retrieves),
        "downloads_completed": outcome.downloads_completed,
        "download_failures": outcome.retrieve_failures,
        **stats.fault_summary(),
        "queries_per_s": round(len(counts) / wall, 1) if counts else 0.0,
    }


def run_failover_demo() -> dict:
    """Crash a provider mid-chunked-download, with and without a second
    replica: failover completes the transfer the crash would strand."""
    def build():
        scenario = build_scenario(ScenarioConfig(
            protocol="centralized", peers=12, members=6, publishers=2,
            corpus_size=10, queries=4, community="design-patterns", seed=5,
            reliable_delivery=True, download_chunk_bytes=16 * 1024,
            download_stall_timeout_ms=400.0))
        network = scenario.network
        resource_id = scenario.resource_ids[0]
        return network, resource_id, network.locate_provider(resource_id)

    # Treatment: a replica exists (an earlier download made one), so
    # the stall watchdog fails over and the download completes.
    network, resource_id, provider = build()
    reference = network.retrieve("peer-0004", provider, resource_id)
    crash_at_ms = reference.latency_ms * 0.5
    network.simulator.post(crash_at_ms, network._fault_crash, provider)
    recovered = network.retrieve("peer-0005", provider, resource_id)
    treatment = {
        "completed": True,
        "provider_after_failover": recovered.provider_id,
        "clean_latency_ms": round(reference.latency_ms, 3),
        "recovered_latency_ms": round(recovered.latency_ms, 3),
        "clean_bytes": reference.transfer_bytes,
        "recovered_bytes": recovered.transfer_bytes,
        "failovers": network.stats.failovers,
    }

    # Control: identically-built network, identical crash point, but no
    # replica exists -> the transfer is stranded and times out.
    network, resource_id, provider = build()
    stranded = False
    network.simulator.post(crash_at_ms, network._fault_crash, provider)
    try:
        network.retrieve("peer-0005", provider, resource_id)
    except TransferError:
        stranded = True
    control = {"completed": not stranded,
               "timeouts": network.stats.timeouts,
               "failovers": network.stats.failovers}
    return {"control_no_replica": control, "treatment_with_replica": treatment}


def sweep_protocol(protocol: str) -> dict:
    cells = []
    for loss_rate in LOSS_RATES:
        for hardened in (False, True):
            cells.append(run_loss_cell(protocol, loss_rate, hardened))
    outage = {
        "legacy": run_outage_cell(protocol, False),
        "hardened": run_outage_cell(protocol, True),
    }
    return {"cells": cells, "outage": outage}


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_bench_e12_fault_grid(benchmark, protocol):
    """Loss sweep + partition outage for one protocol, timed as one."""
    samples = {}

    def measure():
        samples["sweep"] = sweep_protocol(protocol)
        return samples["sweep"]

    benchmark.pedantic(measure, rounds=1, iterations=1)
    sweep = samples["sweep"]
    RECORD["protocols"][protocol] = sweep

    by_key = {(cell["loss_rate"], cell["hardened"]): cell for cell in sweep["cells"]}
    for loss_rate in LOSS_RATES:
        legacy, hardened = by_key[(loss_rate, False)], by_key[(loss_rate, True)]
        # The acceptance claim: under loss, the hardened stack recovers
        # at least the legacy stack's recall — downloads are the traffic
        # the envelope protects on every protocol (gnutella's query
        # plane stays best-effort by design).
        assert hardened["downloads_completed"] >= legacy["downloads_completed"], (
            f"{protocol} @ {loss_rate:.0%} loss: hardening must not lose downloads")
        if loss_rate > 0.0:
            assert hardened["dropped"] > 0, (
                f"{protocol} @ {loss_rate:.0%} loss: the plan injected nothing")
        if loss_rate >= 0.10:
            assert hardened["retries"] + hardened["failovers"] > 0, (
                f"{protocol} @ {loss_rate:.0%} loss: recovery never engaged")
    clean = by_key[(0.0, True)]
    at_ten = by_key[(0.10, True)]
    assert at_ten["downloads_completed"] == clean["downloads_completed"], (
        f"{protocol}: every download a clean network completes must also "
        f"survive 10% loss under the hardened stack")

    outage_legacy, outage_hardened = sweep["outage"]["legacy"], sweep["outage"]["hardened"]
    assert outage_hardened["partition_dropped"] > 0
    assert outage_legacy["partition_dropped"] > 0
    assert outage_hardened["downloads_completed"] >= outage_legacy["downloads_completed"]
    assert outage_hardened["downloads_completed"] == clean["downloads_completed"], (
        f"{protocol}: hardened downloads must ride out the partition")


def test_bench_e12_failover_demo(benchmark):
    samples = {}
    benchmark.pedantic(lambda: samples.update(run_failover_demo()),
                       rounds=1, iterations=1)
    assert samples["control_no_replica"]["completed"] is False
    assert samples["control_no_replica"]["failovers"] == 0
    treatment = samples["treatment_with_replica"]
    assert treatment["completed"] is True
    assert treatment["failovers"] == 1
    assert treatment["recovered_latency_ms"] > treatment["clean_latency_ms"]


def test_bench_e12_write_record(benchmark, report):
    """Print the fault table."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert set(RECORD["protocols"]) == set(PROTOCOLS), (
        "run the whole module so every protocol is measured")
    rows = []
    for protocol in PROTOCOLS:
        sweep = RECORD["protocols"][protocol]
        for cell in sweep["cells"]:
            rows.append([
                protocol,
                f"{cell['loss_rate']:.0%}",
                "hardened" if cell["hardened"] else "legacy",
                f"{cell['hit_rate']:.2f}",
                f"{cell['downloads_completed']}/{cell['downloads_attempted']}",
                int(cell["dropped"]),
                int(cell["retries"]),
                int(cell["failovers"]),
                int(cell["timeouts"]),
            ])
        for label in ("legacy", "hardened"):
            cell = sweep["outage"][label]
            rows.append([
                protocol, "cut 2s", label,
                f"{cell['hit_rate']:.2f}",
                f"{cell['downloads_completed']}/{cell['downloads_attempted']}",
                int(cell["partition_dropped"]),
                int(cell["retries"]),
                int(cell["failovers"]),
                int(cell["timeouts"]),
            ])
    report(
        "E12  fault injection: loss sweep + partition outage "
        "(30 peers, mixed search+download workload)",
        ["protocol", "faults", "stack", "hit rate", "downloads",
         "dropped", "retries", "failovers", "timeouts"],
        rows,
    )
