"""Tests for the process-per-shard population runner."""

from __future__ import annotations

import pytest

from repro.workloads.scale import (
    PopulationReport,
    island_config,
    island_sizes,
    run_population,
)


class TestIslandSplit:
    def test_sizes_sum_and_balance(self):
        assert island_sizes(100, 4) == [25, 25, 25, 25]
        assert island_sizes(103, 4) == [26, 26, 26, 25]
        assert island_sizes(10, 1) == [10]

    def test_population_too_small_rejected(self):
        with pytest.raises(ValueError):
            island_sizes(5, 4)

    def test_island_config_scales_roles_to_island_size(self):
        small = island_config(island=0, peers=10, protocol="gnutella",
                              seed=0, queries=4)
        large = island_config(island=1, peers=2_500, protocol="gnutella",
                              seed=0, queries=4)
        assert 1 <= small["publishers"] <= small["members"] <= small["peers"]
        assert 1 <= large["publishers"] <= large["members"] <= large["peers"]
        assert small["seed"] != large["seed"]  # islands draw distinct workloads


class TestRunPopulation:
    def test_parallel_and_sequential_agree_exactly(self):
        """Worker-pool scheduling must be unobservable: the aggregate
        counters are order-independent sums over deterministic islands."""
        kwargs = dict(shards=2, protocol="gnutella", seed=11,
                      queries_per_island=6)
        parallel = run_population(48, parallel=True, **kwargs)
        sequential = run_population(48, parallel=False, **kwargs)
        assert parallel.counters() == sequential.counters()
        assert parallel.messages > 0 and parallel.results > 0

    def test_report_aggregates_and_rates(self):
        report = run_population(40, shards=2, protocol="centralized", seed=3,
                                queries_per_island=4, parallel=False)
        assert isinstance(report, PopulationReport)
        assert report.population == 40 and report.shards == 2
        assert len(report.islands) == 2
        assert report.messages == sum(island.messages for island in report.islands)
        assert report.messages_per_s > 0
        assert report.peak_rss_bytes > 0
        # Set-up and the query phase are timed apart; wall_s is their sum.
        for island in report.islands:
            assert 0 < island.build_s and 0 < island.run_s
            assert island.build_s + island.run_s <= island.wall_s <= report.wall_s
        counters = report.counters()
        assert counters["messages"] == report.messages
        assert any(key.startswith("type:") for key in counters)

    def test_worker_crash_surfaces_as_an_error_not_a_hang(self):
        """A worker dying without reporting (OOM kill, segfault) must
        fail the run loudly: the futures pool raises instead of waiting
        forever on the lost task the way ``Pool.map`` does."""
        with pytest.raises(RuntimeError, match="island worker crashed"):
            run_population(24, shards=2, protocol="centralized", seed=1,
                           queries_per_island=2, parallel=True,
                           _hard_crash=True)

    def test_config_overrides_reach_the_islands(self):
        report = run_population(40, shards=2, protocol="gnutella", seed=3,
                                queries_per_island=4, parallel=False,
                                ttl=2, corpus_size=10)
        assert report.results >= 0  # ran to completion with the overrides
        assert all(island.queries == 4 for island in report.islands)
