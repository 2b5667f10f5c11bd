"""Tests for popularity distributions, query workloads and scenarios."""

import functools

import pytest

from bench.measure import counters_digest
from bench.workloads import WORKLOADS, scenario_config
from repro.communities.design_patterns import generate_pattern_corpus
from repro.core.servent import Servent
from repro.network.base import SearchResponse
from repro.workloads.popularity import ZipfDistribution
from repro.workloads.queries import MISS_FRACTION, build_query_workload
from repro.workloads.scenario import ScenarioConfig, build_scenario


class TestZipf:
    def test_probabilities_sum_to_one(self):
        zipf = ZipfDistribution(50, exponent=1.0)
        assert sum(zipf.probability(rank) for rank in range(50)) == pytest.approx(1.0)

    def test_rank_zero_most_popular(self):
        zipf = ZipfDistribution(100, exponent=1.0)
        assert zipf.probability(0) > zipf.probability(1) > zipf.probability(50)

    def test_samples_within_range_and_skewed(self):
        zipf = ZipfDistribution(20, exponent=1.2, seed=4)
        samples = zipf.sample_many(3000)
        assert all(0 <= sample < 20 for sample in samples)
        head = sum(1 for sample in samples if sample < 4)
        assert head / len(samples) > 0.45

    def test_exponent_zero_is_uniformish(self):
        zipf = ZipfDistribution(10, exponent=0.0, seed=1)
        assert zipf.probability(0) == pytest.approx(zipf.probability(9))

    def test_expected_top_share_monotone(self):
        zipf = ZipfDistribution(100, exponent=1.0)

        def top_share(k):
            return sum(zipf.probability(rank) for rank in range(k))

        assert top_share(10) < top_share(50) < top_share(100) == pytest.approx(1.0)
        # H(10) / H(100) for Zipf(1)
        assert top_share(10) == pytest.approx(2.928968 / 5.187378, rel=1e-5)

    def test_probability_rejects_a_rank_outside_the_range(self):
        zipf = ZipfDistribution(3, seed=2)
        for rank in (-1, 3):
            with pytest.raises(IndexError):
                zipf.probability(rank)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ZipfDistribution(0)
        with pytest.raises(ValueError):
            ZipfDistribution(5, exponent=-1)

    def test_deterministic_with_seed(self):
        assert ZipfDistribution(30, seed=7).sample_many(20) == ZipfDistribution(30, seed=7).sample_many(20)


class TestQueryWorkload:
    def test_workload_size_and_expectations(self):
        corpus = generate_pattern_corpus(40, seed=1)
        workload = build_query_workload("patterns", corpus, count=30, seed=2)
        assert len(workload) == 30
        assert len(workload.expected_matches) == 30
        assert all(expected >= 0 for expected in workload.expected_matches)

    def test_misses_expect_nothing_and_hits_something(self):
        corpus = generate_pattern_corpus(20, seed=1)
        workload = build_query_workload("patterns", corpus, count=60, seed=3)
        misses = [expected for query, expected in zip(workload.queries, workload.expected_matches)
                  if query.criteria[0].value.startswith("zzqx")]
        assert misses and all(expected == 0 for expected in misses)
        assert sum(workload.expected_matches) > 0

    def test_miss_share_is_the_module_constant(self):
        corpus = generate_pattern_corpus(20, seed=1)
        workload = build_query_workload("patterns", corpus, count=1_000, seed=5)
        misses = sum(1 for query in workload.queries
                     if query.criteria[0].value.startswith("zzqx"))
        assert misses / len(workload) == pytest.approx(MISS_FRACTION, abs=0.03)

    def test_invalid_repeat_alpha(self):
        corpus = generate_pattern_corpus(5, seed=1)
        for alpha in (-0.1, 1.5):
            with pytest.raises(ValueError, match="repeat_alpha"):
                build_query_workload("patterns", corpus, repeat_alpha=alpha)

    def test_queries_target_community(self):
        corpus = generate_pattern_corpus(10, seed=1)
        workload = build_query_workload("patterns", corpus, count=10, seed=1)
        assert all(query.community_id == "patterns" for query in workload)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_query_workload("patterns", [], count=5)

    def test_deterministic(self):
        corpus = generate_pattern_corpus(20, seed=1)
        a = build_query_workload("patterns", corpus, count=15, seed=9)
        b = build_query_workload("patterns", corpus, count=15, seed=9)
        assert [q.describe() for q in a] == [q.describe() for q in b]


class TestScenario:
    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(protocol="bittorrent")
        with pytest.raises(ValueError):
            ScenarioConfig(community="unknown")
        with pytest.raises(ValueError):
            ScenarioConfig(peers=1)
        with pytest.raises(ValueError):
            ScenarioConfig(peers=10, publishers=12)
        with pytest.raises(ValueError):
            ScenarioConfig(peers=10, publishers=5, members=3)

    @pytest.mark.parametrize("protocol",
                             ["centralized", "gnutella", "super-peer", "rendezvous"])
    def test_small_scenario_end_to_end(self, protocol):
        scenario = build_scenario(ScenarioConfig(
            protocol=protocol, peers=15, members=8, publishers=4,
            corpus_size=20, queries=10, seed=3,
        ))
        assert len(scenario.servents) == 15
        assert len(scenario.applications) == 8
        assert len(scenario.resource_ids) == 20
        counts = scenario.run_queries()
        assert len(counts) == 10
        stats = scenario.network.stats
        assert len(stats.queries) == 10
        # At least the non-miss queries should mostly succeed.
        assert stats.success_rate() >= 0.5

    @pytest.mark.parametrize("concurrency", [1, 4])
    def test_an_offline_searcher_counts_zero_at_any_concurrency(self, concurrency):
        """A member offline when its turn comes is refused by the driver:
        its queries count 0 hits, one at a time or batched alike."""
        scenario = build_scenario(ScenarioConfig(peers=12, members=4, publishers=3,
                                                 corpus_size=12, queries=8, seed=2,
                                                 concurrency=concurrency))
        offline = scenario.members()[1].peer_id
        scenario.network.set_online(offline, False)
        counts = scenario.run_queries()
        assert len(counts) == 8
        assert counts[1] == counts[5] == 0
        assert len(scenario.network.stats.queries) == 6
        assert all(record.origin != offline for record in scenario.network.stats.queries)

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_every_bench_joiner_discovers_the_community(self, workload):
        """No toy bench set-up hides a discovery miss behind a local join."""
        assert build_scenario(scenario_config(workload, 11, toy=True)).discovery_misses == 0

    def test_a_discovery_miss_is_counted(self, monkeypatch):
        """A joiner whose community search finds no ad still joins, the
        founder's community locally, and the scenario counts it."""
        search = Servent.search_communities
        calls = []

        def every_other_misses(self, *args, **kwargs):
            calls.append(self.peer_id)
            response = search(self, *args, **kwargs)
            return SearchResponse(query=response.query) if len(calls) % 2 else response

        monkeypatch.setattr(Servent, "search_communities", every_other_misses)
        scenario = build_scenario(ScenarioConfig(peers=12, members=6, publishers=3,
                                                 corpus_size=12, queries=4, seed=11))
        assert len(calls) == 5 and scenario.discovery_misses == 3
        founded = scenario.applications[0].community.community_id
        assert all(application.community.community_id == founded
                   for application in scenario.applications)

    def test_stats_reset_before_query_phase(self):
        scenario = build_scenario(ScenarioConfig(peers=10, members=5, publishers=3,
                                                 corpus_size=10, queries=5, seed=1))
        assert scenario.network.stats.total_messages == 0


class TestMixedWorkload:
    CONFIG = dict(
        protocol="gnutella", peers=20, members=10, publishers=4,
        corpus_size=20, queries=30, seed=7,
        retrieve_fraction=0.4, popularity_skew=1.2,
        concurrency=5, query_interarrival_ms=10.0,
    )

    def test_new_knobs_validated(self):
        with pytest.raises(ValueError):
            ScenarioConfig(retrieve_fraction=-0.1)
        with pytest.raises(ValueError):
            ScenarioConfig(retrieve_fraction=1.5)
        with pytest.raises(ValueError):
            ScenarioConfig(popularity_skew=-1.0)

    def test_mixed_operations_split_and_determinism(self):
        scenario = build_scenario(ScenarioConfig(**self.CONFIG))
        ops = scenario.mixed_operations()
        assert len(ops) == self.CONFIG["queries"]
        from repro.engine.driver import RetrieveOp, SearchOp
        retrieve_ops = [op for op in ops if isinstance(op, RetrieveOp)]
        search_ops = [op for op in ops if isinstance(op, SearchOp)]
        assert retrieve_ops and search_ops
        # The op sequence is a pure function of the config.
        again = build_scenario(ScenarioConfig(**self.CONFIG)).mixed_operations()
        assert [type(op).__name__ for op in again] == [type(op).__name__ for op in ops]
        assert [op.resource_id for op in retrieve_ops] == \
            [op.resource_id for op in again if isinstance(op, RetrieveOp)]

    def test_zero_fraction_keeps_pure_search_workload(self):
        scenario = build_scenario(ScenarioConfig(**{**self.CONFIG, "retrieve_fraction": 0.0}))
        from repro.engine.driver import SearchOp
        assert all(isinstance(op, SearchOp) for op in scenario.mixed_operations())

    def test_run_mixed_workload_replicates_popular_objects(self):
        scenario = build_scenario(ScenarioConfig(**self.CONFIG))
        outcome = scenario.run_mixed_workload()
        assert outcome.downloads_completed > 0
        assert scenario.network.stats.downloads == outcome.downloads_completed
        degrees = scenario.replication_degrees()
        # Downloads concentrate on popular ranks, so the head of the
        # popularity order carries more copies than the tail.
        head = sum(degrees[:5])
        tail = sum(degrees[-5:])
        assert head > tail

    def test_run_mixed_workload_deterministic(self):
        def run_once():
            scenario = build_scenario(ScenarioConfig(**self.CONFIG))
            outcome = scenario.run_mixed_workload()
            return {
                "counts": outcome.result_counts,
                "latencies": [round(response.latency_ms, 9) for response in outcome.responses],
                "downloads": outcome.downloads_completed,
                "bytes": scenario.network.stats.download_bytes,
                "degrees": scenario.replication_degrees(),
            }
        assert run_once() == run_once()

    def test_mixed_workload_under_churn_fails_softly(self):
        scenario = build_scenario(ScenarioConfig(**{
            **self.CONFIG,
            "churn_session_ms": 2_000.0,
            "churn_absence_ms": 1_000.0,
        }))
        outcome = scenario.run_mixed_workload()
        # Under churn some downloads may fail; the run itself completes
        # and accounts every operation one way or the other.
        total = len(outcome.responses) + len(outcome.retrieves)
        assert total == self.CONFIG["queries"]


#: the E3 concurrent-query scenario scaled to 200 peers (claim E3's knobs
#: in repro.report), and a search/download mix at 120 peers
E3_200 = dict(peers=200, members=24, publishers=12, corpus_size=90, queries=16,
              community="design-patterns", ttl=6, seed=11,
              concurrency=8, query_interarrival_ms=20.0)
MIXED_120 = dict(peers=120, members=24, publishers=12, corpus_size=90, queries=24,
                 community="design-patterns", ttl=6, seed=11,
                 concurrency=8, query_interarrival_ms=20.0,
                 retrieve_fraction=0.3, popularity_skew=1.0)
POPULATION_CELLS = [(protocol, shards)
                    for protocol in ("centralized", "gnutella", "super-peer", "rendezvous")
                    for shards in (1, 2, 4)]


def run_population_cell(protocol: str, shards: int, *, mixed: bool) -> tuple:
    """(operations accounted, messages, digest) of one fresh run."""
    config = dict(MIXED_120 if mixed else E3_200, protocol=protocol, shards=shards)
    scenario = build_scenario(ScenarioConfig(**config))
    if mixed:
        outcome = scenario.run_mixed_workload(max_results=200)
        operations = len(outcome.responses) + len(outcome.retrieves)
        counts = outcome.result_counts
    else:
        counts = scenario.run_queries(max_results=200)
        operations = len(counts)
    stats = scenario.network.stats
    return operations, stats.total_messages, counters_digest(counts, stats)


@functools.lru_cache(maxsize=None)
def serial_population_cell(protocol: str, *, mixed: bool) -> tuple:
    return run_population_cell(protocol, 1, mixed=mixed)


class TestPopulationScenarios:
    """Every protocol at a few hundred peers, serial and windowed: each
    operation is accounted for, and a run at ``shards`` 1, 2 or 4
    reproduces an independent ``shards=1`` build bit for bit."""

    @pytest.mark.parametrize(("protocol", "shards"), POPULATION_CELLS,
                             ids=[f"{protocol}-s{shards}" for protocol, shards in POPULATION_CELLS])
    def test_e3_200_flood_answers_every_query(self, protocol, shards):
        operations, messages, digest = run_population_cell(protocol, shards, mixed=False)
        assert operations == E3_200["queries"]
        assert messages > 0
        assert digest == serial_population_cell(protocol, mixed=False)[2]

    @pytest.mark.parametrize(("protocol", "shards"), POPULATION_CELLS,
                             ids=[f"{protocol}-s{shards}" for protocol, shards in POPULATION_CELLS])
    def test_mixed_120_accounts_every_operation(self, protocol, shards):
        operations, messages, digest = run_population_cell(protocol, shards, mixed=True)
        assert operations == MIXED_120["queries"]
        assert messages > 0
        assert digest == serial_population_cell(protocol, mixed=True)[2]
