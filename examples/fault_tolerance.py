#!/usr/bin/env python3
"""Fault injection and reliable delivery: losing messages on purpose.

A deployment never gets the perfect links the simulator defaults to,
so this script turns the faults on and shows what the hardening buys:

1. a lossy network silently eats queries and downloads when delivery
   is fire-and-forget;
2. the reliable envelope (ACK + capped exponential backoff) rides out
   the same loss, and a scheduled partition heals into delivered
   registrations instead of lost ones;
3. a provider that crash-stops mid-download strands the transfer —
   unless a replica exists, in which case the requester's stall
   watchdog fails over and completes it.

Everything is deterministic: the fault stream is seeded, partitions
and crashes are scheduled in virtual time, and re-running the script
reproduces every number.

Run with:  python examples/fault_tolerance.py
"""

from __future__ import annotations

from repro.network.errors import TransferError
from repro.network.faults import FaultPlan, PartitionWindow
from repro.workloads.scenario import ScenarioConfig, build_scenario

BASE = dict(
    protocol="centralized",
    peers=16,
    members=8,
    publishers=3,
    corpus_size=12,
    # Enough operations that the envelope's retry does not hang on a
    # single lucky draw: at 36, every plan seed from 40 to 49 makes the
    # hardened run retry 5-9 times and complete every download.
    queries=36,
    community="design-patterns",
    seed=11,
    concurrency=4,
    live_membership=True,
    retrieve_fraction=0.3,
)

HARDENED = dict(
    reliable_delivery=True,
    retry_timeout_ms=120.0,
    download_chunk_bytes=16 * 1024,
    download_stall_timeout_ms=800.0,
)


def run(loss_rate: float, hardened: bool):
    plan = FaultPlan(seed=43, loss_rate=loss_rate) if loss_rate else None
    knobs = dict(HARDENED) if hardened else {}
    scenario = build_scenario(ScenarioConfig(faults=plan, **knobs, **BASE))
    outcome = scenario.run_mixed_workload(max_results=50)
    return scenario, outcome


def unreplicated(scenario) -> str:
    """The first corpus object still held by its publisher alone."""
    return next(resource_id for resource_id in scenario.resource_ids
                if scenario.network.replication_degree(resource_id) == 1)


def main() -> None:
    print("--- 1. silent loss: 10% of deliveries dropped --------------------")
    clean_scenario, clean = run(0.0, hardened=False)
    lossy_scenario, lossy = run(0.10, hardened=False)
    hard_scenario, hard = run(0.10, hardened=True)
    for label, scenario, outcome in (
            ("clean network, fire-and-forget", clean_scenario, clean),
            ("10% loss,      fire-and-forget", lossy_scenario, lossy),
            ("10% loss,      reliable stack ", hard_scenario, hard)):
        stats = scenario.network.stats
        hits = sum(1 for count in outcome.result_counts if count > 0)
        print(f"  {label}: {hits}/{len(outcome.result_counts)} queries hit, "
              f"{outcome.downloads_completed}/{len(outcome.retrieves)} downloads, "
              f"dropped={stats.dropped} retries={stats.retries} "
              f"timeouts={stats.timeouts}")
    assert hard_scenario.network.stats.dropped > 0, "the plan must inject loss"
    assert hard_scenario.network.stats.retries > 0, "the envelope must retry"
    assert hard.downloads_completed >= lossy.downloads_completed, \
        "the hardened stack must not lose downloads the legacy stack completes"
    assert hard.downloads_completed == clean.downloads_completed, \
        "the hardened stack must complete every download a clean network does"

    print("\n--- 2. a scheduled partition, healed mid-workload -----------------")

    def publish_during_cut(hardened: bool):
        # A publisher is cut off from everyone (including the index
        # hub) for 400ms and publishes a new document during the cut.
        # Its REGISTER is dropped by the partition; the reliable
        # envelope's backoff (120ms, 360ms, 840ms) outlasts the cut and
        # lands the registration after the heal — fire-and-forget loses
        # it forever, because nothing ever re-sends it.
        scenario, _ = run(0.0, hardened=hardened)
        network = scenario.network
        publisher = scenario.servents[0].peer_id
        others = sorted((set(network.peers)
                         | set(network.kernel.virtual_nodes)) - {publisher})
        network.install_faults(FaultPlan(partitions=(
            PartitionWindow(0.0, 400.0, (publisher,), tuple(others)),)))
        record = dict(scenario.definition.sample_corpus(1, seed=99)[0],
                      name="Partition Survivor")
        published = scenario.applications[0].publish(record)
        network.simulator.run(until_ms=network.simulator.now + 3_000.0)
        response = scenario.applications[-1].search(
            "Partition Survivor", max_results=20)
        found = any(result.resource_id == published.resource_id
                    for result in response.results)
        return network, found

    lossy_network, lost = publish_during_cut(hardened=False)
    hard_network, survived = publish_during_cut(hardened=True)
    print(f"  fire-and-forget: registration "
          f"{'survived' if lost else 'lost'} "
          f"(partition_dropped={lossy_network.stats.partition_dropped})")
    print(f"  reliable stack:  registration "
          f"{'survived' if survived else 'lost'} "
          f"(partition_dropped={hard_network.stats.partition_dropped}, "
          f"retries={hard_network.stats.retries})")
    assert lossy_network.stats.partition_dropped > 0, "the cut must drop deliveries"
    assert not lost, "fire-and-forget cannot repair a registration the cut ate"
    assert survived, "the envelope must land the registration after the heal"
    assert hard_network.stats.retries > 0

    print("\n--- 3. provider crash mid-download: failover vs. stranded ---------")
    scenario, _ = run(0.0, hardened=True)
    network = scenario.network
    # An object the workload left with its original copy only, so the
    # mirror made below is the one replica a failover can reach.
    resource_id = unreplicated(scenario)
    provider = network.locate_provider(resource_id)
    requester = scenario.servents[BASE["members"] - 1].peer_id
    mirror = scenario.servents[BASE["members"] - 2].peer_id
    reference = network.retrieve(mirror, provider, resource_id)
    network.simulator.post(reference.latency_ms * 0.5,
                           network._fault_crash, provider)
    recovered = network.retrieve(requester, provider, resource_id)
    print(f"  {provider} crashed mid-transfer; watchdog failed over to "
          f"{recovered.provider_id}: {recovered.transfer_bytes:,} bytes in "
          f"{recovered.latency_ms:,.0f}ms "
          f"(clean: {reference.transfer_bytes:,} bytes in "
          f"{reference.latency_ms:,.0f}ms)")
    assert recovered.stored is not None
    assert recovered.provider_id == mirror
    assert network.stats.failovers == 1

    scenario, _ = run(0.0, hardened=True)
    network = scenario.network
    resource_id = unreplicated(scenario)
    provider = network.locate_provider(resource_id)
    network.simulator.post(reference.latency_ms * 0.5,
                           network._fault_crash, provider)
    try:
        network.retrieve(requester, provider, resource_id)
        raise AssertionError("a crash with no replica must strand the download")
    except TransferError:
        print(f"  same crash with no replica: download stranded, "
              f"timeouts={network.stats.timeouts} (recorded, not silent)")
    assert network.stats.timeouts >= 1

    print("\nAll fault-tolerance behaviours verified.")


if __name__ == "__main__":
    main()
