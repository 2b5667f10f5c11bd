"""The four named workloads: one ``ScenarioConfig`` each, made from the seed.

Every workload is the same closed loop — one driver, one thread,
batches of :data:`BATCH_OPS` operations staggered
:data:`INTERARRIVAL_MS` virtual ms apart, the next batch submitted when
the previous one completes — over a different network organisation, so
each one loads a different set of layers (``README.md`` has the table
of which workload bypasses which layer).  The seed reaches the program
only through ``ScenarioConfig.seed`` / ``FaultPlan.seed``.

``toy`` sizes exist for the tier-1 smoke test only; every published
number comes from ``full``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

from repro.engine.driver import RetrieveOp, WorkloadOp
from repro.network.faults import FaultPlan
from repro.workloads.scenario import Scenario, ScenarioConfig

BATCH_OPS = 8
INTERARRIVAL_MS = 20.0
MAX_RESULTS = 100
#: downloads run at this rate, not at ``mixed_operations``' 512 kbit/s.
#: At 512 a batch's virtual time is the transfer time of its largest
#: download (~16 s), so the round's simulated duration - and with it
#: every timer-driven message count - was proportional to how many
#: downloads the seed happened to draw (binomial, +-11 %); at 8 Mbit/s a
#: download is part of its batch, not all of it.
DOWNLOAD_KBPS = 8192.0

_COMMON = dict(community="design-patterns", concurrency=BATCH_OPS,
               query_interarrival_ms=INTERARRIVAL_MS)

class Workload(NamedTuple):
    #: the line BENCHMARK.json carries
    why: str
    #: ``ScenarioConfig`` knobs, scaled from the issue's probe sizes so
    #: that three set-ups plus the measured op phase of one run fit the
    #: run budget (README, "Sizes")
    full: dict
    #: overrides for the tier-1 smoke test
    toy: dict
    #: a traced run drives the round this many times, so that a workload
    #: with a short round still gives its op-phase spans a second of wall
    traced_rounds: int


WORKLOADS: dict[str, Workload] = {
    "flood": Workload(
        "gnutella flood over 1000 peers (degree 4, ttl 6; ~4000 msgs/op): engine.kernel, "
        "network.simulator, the QUERY handler and stats.record do the work; storage does "
        "almost none",
        dict(protocol="gnutella", peers=1000, degree=4, ttl=6, members=24,
             publishers=12, corpus_size=90, queries=256),
        dict(peers=40, queries=16),
        1,
    ),
    "directory": Workload(
        "centralized index, 64 peers, 1000 objects, 2 msgs/op: storage.plan evaluation over "
        "one big catalog dominates the op phase, the kernel is bypassed; setup_s is the "
        "publish (write) path",
        dict(protocol="centralized", peers=64, members=48, publishers=48,
             corpus_size=1000, queries=192),
        dict(peers=40, members=12, publishers=12, corpus_size=60, queries=16),
        24,
    ),
    "bootstrap": Workload(
        "rendezvous, 1500 peers, 24 members: set-up and memory at population scale, where "
        "core.servent, xmlkit, xslt and schema.parser do the work and the kernel little "
        "(the P1-vs-P2 question)",
        dict(protocol="rendezvous", peers=1500, members=24, publishers=12,
             corpus_size=90, queries=512),
        dict(peers=40, members=12, publishers=6, corpus_size=30, queries=16),
        4,
    ),
    "dynamic": Workload(
        "super-peer, 400 peers, searches mixed with 25% downloads under 5% loss, live "
        "membership, relay churn, caching, reliable chunked transfers: timers, ACKs, retries, "
        "index writes while searches read",
        dict(protocol="super-peer", peers=400, members=8, publishers=8,
             corpus_size=200, queries=1024, retrieve_fraction=0.25,
             popularity_skew=0.8, live_membership=True,
             maintenance_interval_ms=2_000.0, churn_session_ms=30_000.0,
             result_caching=True, cache_ttl_ms=600_000.0, query_repeat_alpha=0.5,
             reliable_delivery=True, download_chunk_bytes=16 * 1024),
        dict(peers=40, corpus_size=40, queries=16, retrieve_fraction=0.2),
        1,
    ),
}

#: the variant cells re-run the flood scenario at this many searches
VARIANT_QUERIES = 64
#: ... and at this many when the workload itself is toy-sized
TOY_VARIANT_QUERIES = 8


def scenario_config(name: str, seed: int, *, toy: bool = False,
                    **overrides: object) -> ScenarioConfig:
    """The ``ScenarioConfig`` of workload ``name`` for ``seed``."""
    workload = WORKLOADS[name]
    knobs = {**_COMMON, **workload.full, **(workload.toy if toy else {}), **overrides}
    if name == "dynamic":
        knobs["faults"] = FaultPlan(seed=seed, loss_rate=0.05)
    return ScenarioConfig(seed=seed, **knobs)


def operations(scenario: Scenario) -> list[WorkloadOp]:
    """One round of the workload: ``Scenario.mixed_operations()``.

    A download whose requester is the object's only holder has no
    provider and is refused by construction (``mixed_operations`` draws
    requester and object independently), so it is handed to the next
    member: the benchmark chooses inputs on which no operation fails.
    """
    ops = scenario.mixed_operations()
    members = [servent.peer_id for servent in scenario.members()]
    for index, op in enumerate(ops):
        if not isinstance(op, RetrieveOp):
            continue
        requester = op.requester_id
        if scenario.network.locate_provider(op.resource_id, exclude=requester) is None:
            requester = members[(members.index(requester) + 1) % len(members)]
        ops[index] = replace(op, requester_id=requester, bandwidth_kbps=DOWNLOAD_KBPS)
    return ops
