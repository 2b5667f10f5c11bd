"""Set-up pays for each distinct input once.

* An oracle for ``build_query_workload``: the tokenise-once tables must
  give exactly what a scan of the whole corpus per query gives.
* A complexity guard with no clock in it: how often ``build_scenario``
  parses XML (memos cold), and how often an election lists the online
  hubs, does not depend on the number of peers.
"""

import pytest

from bench.trace import Tracer
from repro.communities import ALL_COMMUNITIES
from repro.core.community import _shared_schema
from repro.core.servent import Servent
from repro.core.stylesheets import _compile
from repro.network.centralized import CentralizedProtocol
from repro.network.twotier import TwoTierNetwork
from repro.storage import interning
from repro.storage.index import tokenize
from repro.storage.query import Operator
from repro.workloads.queries import _value_of, build_query_workload
from repro.workloads.scenario import PROTOCOLS, ScenarioConfig, build_scenario
from repro.xmlkit import parser as xml_parser


def scan_expected(corpus, query):
    """The reference count: re-tokenise every record for one query,
    O(queries x corpus) — what ``build_query_workload`` used to do."""
    (criterion,) = query.criteria
    if criterion.operator is Operator.ANY:
        return sum(
            criterion.value.lower() in tokenize(" ".join(
                value if isinstance(value, str) else " ".join(str(item) for item in value)
                for value in record.values()))
            for record in corpus)
    wanted = set(tokenize(criterion.value))
    return sum(
        bool(wanted) and wanted.issubset(tokenize(_value_of(record, criterion.field_path)))
        for record in corpus)


def is_miss(query):
    """A query built from vocabulary the corpus never holds."""
    return query.criteria[0].value.startswith("zzqx")


@pytest.fixture()
def tracer():
    """``bench/trace.py``'s patcher: it replaces a function in every
    ``repro.*`` namespace that imported it, and undoes that afterwards."""
    tracer = Tracer()
    yield tracer
    tracer.uninstall()


def counted(tracer, name):
    return lambda function: tracer.counted(name, function)


class TestExpectedMatchesOracle:
    @pytest.mark.parametrize("repeat_alpha", [0.0, 0.5])
    @pytest.mark.parametrize("seed", [0, 7, 11, 110])
    @pytest.mark.parametrize("community", sorted(ALL_COMMUNITIES))
    def test_bundled_communities(self, community, seed, repeat_alpha):
        corpus = ALL_COMMUNITIES[community]().sample_corpus(80, seed=seed)
        workload = build_query_workload("c", corpus, count=48, seed=seed,
                                        repeat_alpha=repeat_alpha)
        assert len(workload) == 48
        assert workload.expected_matches \
            == [scan_expected(corpus, query) for query in workload]
        assert sum(workload.expected_matches) > 0

    def test_tokenising_does_not_grow_with_queries_times_corpus(self, tracer):
        corpus = ALL_COMMUNITIES["mp3"]().sample_corpus(80, seed=11)
        tracer.patch_function(tokenize, counted(tracer, "tokenize"))
        build_query_workload("c", corpus, count=200, seed=11)
        # One pass per table (any-field: one call per value, as nothing
        # is memoised; plus one per field: one per record) and at most
        # two calls per query — not a pass over the corpus per query.
        values = sum(len(record) for record in corpus)
        assert all(isinstance(value, str) for record in corpus for value in record.values())
        assert 0 < tracer.counts["tokenize"] <= values + len(corpus) * len(corpus[0]) + 2 * 200

    def test_each_distinct_value_is_tokenised_once(self, tracer):
        """Values publish never indexed (the memo is cold here) are
        tokenised once per build, not once per table or query."""
        corpus = ALL_COMMUNITIES["design-patterns"]().sample_corpus(80, seed=11)
        distinct = {text for record in corpus for value in record.values()
                    for text in ([value] if isinstance(value, str) else map(str, value))}
        interning.clear()
        tracer.patch_function(tokenize, counted(tracer, "tokenize"))
        build_query_workload("c", corpus, count=200, seed=11)
        assert 0 < tracer.counts["tokenize"] <= len(distinct)
        assert not interning._FORMS

    def test_value_that_tokenises_to_nothing(self):
        corpus = [{"title": "!!!", "note": "first"}, {"title": "?", "note": "second !!!"}]
        workload = build_query_workload("c", corpus, count=24,
                                        searchable_fields=["title"], seed=3)
        operators = {query.criteria[0].operator for query in workload if not is_miss(query)}
        assert operators == {Operator.ANY, Operator.CONTAINS}   # both branches drawn
        assert {query.criteria[0].value for query in workload if not is_miss(query)} \
            <= {"!!!", "?"}
        assert workload.expected_matches == [0] * 24
        assert workload.expected_matches \
            == [scan_expected(corpus, query) for query in workload]

    def test_shared_fallback_counts_the_token_in_any_field(self):
        corpus = [{"title": "", "note": "Shared folder", "tags": ["x", "shared"]},
                  {"title": "", "note": "private"},
                  {"title": "", "note": "unshared", "tags": ["SHARED stuff"]}]
        workload = build_query_workload("c", corpus, count=12,
                                        searchable_fields=["title"], seed=1)
        assert {query.criteria[0].value for query in workload if not is_miss(query)} \
            == {"shared"}
        assert workload.expected_matches == [0 if is_miss(query) else 2 for query in workload]
        assert workload.expected_matches \
            == [scan_expected(corpus, query) for query in workload]

    @pytest.mark.parametrize("community", sorted(ALL_COMMUNITIES))
    def test_the_publish_memo_never_changes_a_count(self, community):
        """``build_query_workload`` reads the tokens publish memoised for
        a value, and tokenises (without memoising) what publish never
        indexed: the workload is the same with the memo cold or warm,
        and the memo does not grow."""
        definition = ALL_COMMUNITIES[community]()
        corpus = definition.sample_corpus(60, seed=11)
        application = definition.application_on(Servent("alice", CentralizedProtocol(seed=11)))
        searchable = [info.path for info in application.community.schema.searchable_fields()]
        fields = [path for path in searchable if "/" not in path] or None

        def build():
            return build_query_workload(
                "c", corpus, count=64, searchable_fields=fields, repeat_alpha=0.3, seed=11
            )

        interning.clear()
        cold = build()
        assert not interning._FORMS
        for record in corpus:
            application.publish(record)
        memoised = len(interning._FORMS)
        warm = build()

        values = [value for record in corpus for value in record.values()]
        assert any(isinstance(value, str) and value in interning._FORMS for value in values)
        assert len(interning._FORMS) == memoised
        assert warm.queries == cold.queries
        assert warm.expected_matches == cold.expected_matches
        assert sum(warm.expected_matches) > 0


class TestSetupWorkDoesNotGrowWithPeers:
    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_parse_and_hub_listing_counts_are_population_independent(self, protocol, tracer):
        base = ScenarioConfig(protocol=protocol, peers=50, members=12, publishers=6,
                              corpus_size=40, queries=16, seed=11)
        tracer.patch_function(xml_parser.parse, counted(tracer, "parse"))
        tracer.patch_method((TwoTierNetwork,), "_online_hubs", counted(tracer, "_online_hubs"))

        counts = {}
        for peers in (50, 200):
            # Cold memos, so each build pays the whole per-text cost: the
            # equality below is not 0 == 0.
            _compile.cache_clear()
            _shared_schema.cache_clear()
            tracer.counts.clear()
            scenario = build_scenario(base, peers=peers)
            assert len(scenario.servents) == peers
            counts[peers] = dict(tracer.counts)
        assert counts[50]["parse"] > 0
        assert counts[50] == counts[200]
        if issubclass(PROTOCOLS[protocol], TwoTierNetwork):
            assert counts[50]["_online_hubs"] > 0
