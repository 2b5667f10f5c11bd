"""Acceptance: process-parallel shard execution is bit-identical to
``shards=1``.

The in-process sharded contract (the shards=4 leg of
``test_contract.TestGeneratedContract``) proves the windowed-barrier
order is exact; this suite proves the same windows survive being split
across *worker processes* — full-replica workers, cross-worker
outboxes, a replicated control plane, a global pending ledger, claim
replication and serving isolation — for all four protocol
organisations, composed with live membership, churn, result caching
and deterministic fault injection.
"""

from __future__ import annotations

import pytest

from repro.engine.parallel import run_parallel_scenario
from repro.network.faults import FaultPlan
from repro.workloads.scenario import ScenarioConfig, build_scenario
from tests.network.test_contract import BASE_CELL, PROTOCOL_NAMES, observe

#: the busiest composed cell: churned membership plus repeated queries
#: hitting every protocol's cache sites (the registry/serving-isolation
#: machinery's worst case).
COMPOSED = dict(
    live_membership=True, churn_session_ms=1_500.0, churn_absence_ms=800.0,
    result_caching=True, query_repeat_alpha=0.6,
)

#: a hardened fault cell: fast churn, reliable delivery with quick
#: retries, and seeded loss/duplication.
FAULTY = dict(
    live_membership=True, churn_session_ms=900.0, churn_absence_ms=500.0,
    reliable_delivery=True, retry_timeout_ms=120.0,
)


def serial_signature(**overrides):
    scenario = build_scenario(ScenarioConfig(**{**BASE_CELL, **overrides}))
    counts = scenario.run_queries(max_results=100)
    return observe(scenario.network.stats, counts)


def parallel_signature(workers=2, **overrides):
    config = ScenarioConfig(
        **{**BASE_CELL, "shards": 4, "parallel": True, **overrides})
    report = run_parallel_scenario(config, workers=workers, max_results=100)
    return observe(report.stats, report.counts), report


class TestParallelContract:
    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    def test_parallel_reproduces_serial_composed(self, protocol):
        """Two worker processes over four shards reproduce the serial
        run under churned membership plus result caching."""
        serial = serial_signature(protocol=protocol, shards=1, **COMPOSED)
        parallel, report = parallel_signature(protocol=protocol, **COMPOSED)
        assert parallel == serial
        assert serial[1]["total_messages"] > 0
        assert report.windows > 0

    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    def test_parallel_reproduces_serial_under_faults(self, protocol):
        """The fault cell: seeded loss/duplication, retries, failover
        and fast churn — the pending ledger's hardest accounting."""
        faults = FaultPlan(seed=17, loss_rate=0.08, duplicate_rate=0.04)
        serial = serial_signature(protocol=protocol, shards=1,
                                  faults=faults, **FAULTY)
        parallel, _report = parallel_signature(protocol=protocol,
                                               faults=faults, **FAULTY)
        assert parallel == serial

    @pytest.mark.parametrize(("peers", "shards"), [(30, 2), (30, 4), (60, 2), (60, 4)],
                             ids=["p30-s2", "p30-s4", "p60-s2", "p60-s4"])
    def test_parallel_reproduces_serial_static(self, peers, shards):
        """A static gnutella flood, split two and four ways over two
        workers, reproduces the serial run; cross-worker traffic flows."""
        serial = serial_signature(protocol="gnutella", peers=peers, shards=1)
        parallel, report = parallel_signature(protocol="gnutella", peers=peers,
                                              shards=shards)
        assert parallel == serial
        assert report.windows > 0 and report.cross_shard_messages > 0

    def test_worker_count_is_immaterial(self):
        """1 and 3 workers reproduce the same run as 2 — the contract
        is worker-count independence, not a lucky pairing."""
        reference = serial_signature(shards=1, **COMPOSED)
        for workers in (1, 3):
            parallel, _report = parallel_signature(workers=workers, **COMPOSED)
            assert parallel == reference

    def test_parallel_run_actually_parallelizes(self):
        """Guard against the contract passing because the machinery
        silently degenerated: windows must have opened, cross-worker
        traffic shipped, and every worker must have reported its own
        peak RSS."""
        _parallel, report = parallel_signature(**COMPOSED)
        assert report.workers == 2
        assert report.windows > 0
        assert report.barriers >= report.windows
        assert report.cross_shard_messages > 0
        assert report.bytes_shipped > 0
        assert len(report.worker_peak_rss_bytes) == 2
        assert all(rss > 0 for rss in report.worker_peak_rss_bytes)

    def test_parallel_needs_multiple_shards(self):
        with pytest.raises(ValueError, match="shards > 1"):
            run_parallel_scenario(ScenarioConfig(**BASE_CELL, shards=1))
        with pytest.raises(ValueError, match="shards > 1"):
            ScenarioConfig(**BASE_CELL, shards=1, parallel=True)

    def test_parallel_rejects_chunked_downloads(self):
        config = ScenarioConfig(**BASE_CELL, shards=4,
                                download_chunk_bytes=4_096)
        with pytest.raises(ValueError, match="chunked downloads"):
            run_parallel_scenario(config)
