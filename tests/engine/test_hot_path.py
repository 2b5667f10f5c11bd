"""Guards on the transport hot path: what it must compute, and how often.

* *Golden digests.*  ``bench.measure.counters_digest`` of one toy-size
  round of each benchmark workload, serial and ``shards=4``, against
  constants taken before the transport was reworked.  A simulator-only
  change that moves one of them fails here in seconds, not only in the
  bench pipeline; a change that means to move one (ROADMAP item 3 (c) /
  (d)) rebases the constant and says so.
* *Count guards with no clock in them.*  The transport pays per hop, not
  per copy: one ``NetworkStats.record`` per re-flooding peer, no handler
  frame for a duplicate QUERY delivery, no message id drawn for a QUERY
  copy.
"""

import pytest

from bench import measure
from bench.trace import Tracer
from bench.workloads import scenario_config
from repro.network import messages as messages_module
from repro.network.base import PeerNetwork
from repro.network.gnutella import GnutellaProtocol
from repro.network.stats import NetworkStats
from repro.workloads.scenario import ScenarioConfig, build_scenario

SEED = 7

#: workload -> digest of the toy round at seed 7 (serial and sharded alike)
GOLDEN = {
    "flood": "6395c7522a6b629a3d4c03d7484469ad4261251c316254a8ef8bb87749e37c03",
    "directory": "b2ac0be0afd8c487b30e50094a11057c61717639d43d8460fc59548dc841e5d8",
    "bootstrap": "9d1b9f5733f1a0cc0114a605727ec3e0e3ad4d93cfe84f735f0065b66f20c316",
    "dynamic": "756a5c46bcf7fec2641e9968d9d60303a121bc373890ccf4cdaf2887176d9953",
}


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_toy_round_reproduces_the_golden_digest(name, shards):
    scenario = build_scenario(scenario_config(name, SEED, toy=True, shards=shards))
    phase = measure.run_ops(scenario, 0.0, measure.HostSpeed())
    assert phase.failed == 0
    assert phase.first.digest == GOLDEN[name]


class _CountingIds:
    """Stands in for ``messages._message_counter``: counts the draws."""

    def __init__(self, counter):
        self.counter = counter
        self.draws = 0

    def __next__(self):
        self.draws += 1
        return next(self.counter)


@pytest.fixture()
def tracer():
    tracer = Tracer()
    yield tracer
    tracer.uninstall()


def test_a_flood_pays_per_hop_not_per_copy(tracer, monkeypatch):
    def counted(name):
        return lambda function: tracer.counted(name, function)

    # Patched before the build: handlers are registered as bound methods.
    tracer.patch_method((NetworkStats,), "record", counted("record"))
    tracer.patch_method((GnutellaProtocol,), "_on_query", counted("on_query"))
    tracer.patch_method((PeerNetwork,), "_send_hit", counted("send_hit"))
    ids = _CountingIds(messages_module._message_counter)
    monkeypatch.setattr(messages_module, "_message_counter", ids)

    scenario = build_scenario(ScenarioConfig(
        protocol="gnutella", peers=60, degree=4, ttl=5, members=10, publishers=5,
        corpus_size=40, queries=12, concurrency=4, seed=23))
    tracer.counts.clear()   # the set-up's discovery floods are not the subject
    ids.draws = 0
    scenario.run_queries()

    records = scenario.network.stats.queries
    searches = len(records)
    probed = sum(record.peers_probed for record in records)
    copies = scenario.network.stats.messages_by_type["query"]
    hits = tracer.counts["send_hit"]
    assert searches == 12 and hits > 0
    assert copies > 2 * probed   # the flood is duplicate-heavy: the guards bite
    # one record per fan-out (the origin's and each accepting peer's), one per hit
    assert tracer.counts["record"] <= probed + searches + hits
    # a duplicate delivery never reaches a handler frame
    assert tracer.counts["on_query"] == probed
    # every copy of one flood carries the flood's id: none is drawn per copy
    assert ids.draws <= searches + hits
