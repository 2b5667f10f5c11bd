"""Equivalence suite for compiled query plans.

:meth:`CompiledQuery.evaluate` is the only evaluator the system runs;
``tests/storage/reference.py`` holds its reference semantics.  The plan must
return exactly the ids the reference returns — for every operator, over
randomized corpora and queries (fixed seeds), and at every handcrafted
edge (blank values, punctuation-only values, "*" field paths, missing
fields).  Where the two references share semantics, the plan must also
select exactly the records the reference ``matches_metadata`` accepts.
"""

from __future__ import annotations

import random

import pytest

from repro.storage.index import AttributeIndex, tokenize
from repro.storage.plan import CompiledQuery, compile_query
from repro.storage.query import Criterion, Operator, Query
from tests.storage.reference import evaluate, matches_metadata

VOCABULARY = [
    "observer", "factory", "abstract", "singleton", "visitor", "builder",
    "decouple", "create", "objects", "subject", "families", "defer",
    "Blue", "Train", "Jazz", "2nd", "Edition", "GoF",
]
FIELDS = ["name", "intent", "category", "artist"]


def random_metadata(rng: random.Random) -> dict[str, list[str]]:
    metadata = {}
    for field in rng.sample(FIELDS, rng.randint(1, len(FIELDS))):
        values = [
            " ".join(rng.sample(VOCABULARY, rng.randint(1, 3)))
            for _ in range(rng.randint(1, 2))
        ]
        metadata[field] = values
    return metadata


def random_query(rng: random.Random, community: str) -> Query:
    query = Query(community)
    for _ in range(rng.randint(1, 3)):
        operator = rng.choice(list(Operator))
        field = rng.choice(FIELDS + ["*"])
        if rng.random() < 0.15:
            value = rng.choice(["", "   ", "!!!", "?,;"])  # degenerate values
        elif operator is Operator.PREFIX:
            value = rng.choice(VOCABULARY)[: rng.randint(1, 4)]
        else:
            value = " ".join(rng.sample(VOCABULARY, rng.randint(1, 2)))
        query.where(field, value, operator)
    return query


def build_corpus(seed: int, size: int = 40):
    rng = random.Random(seed)
    index = AttributeIndex()
    corpus = {}
    for number in range(size):
        resource_id = f"r{number:03d}"
        corpus[resource_id] = metadata = random_metadata(rng)
        index.add("patterns", resource_id, metadata)
    return rng, index, corpus


def metadata_reference_applies(query: Query) -> bool:
    """Whether the per-document reference shares the index semantics.

    It passes a criterion with no word tokens, where an index lookup
    matches nothing; and it lets a cross-field keyword find its words in
    different fields, where the index wants them all in one field.
    """
    for criterion in query.criteria:
        words = tokenize(criterion.value)
        cross_field = criterion.operator is Operator.ANY or criterion.field_path == "*"
        if not words or (cross_field and len(words) > 1):
            return False
    return bool(query.criteria)


def metadata_reference(query: Query, corpus: dict[str, dict[str, list[str]]]) -> set[str]:
    """Ids of the records the reference ``matches_metadata`` accepts."""
    return {resource_id for resource_id, metadata in corpus.items()
            if matches_metadata(query, metadata)}


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
class TestRandomizedEquivalence:
    def test_evaluate_identical(self, seed):
        rng, index, _ = build_corpus(seed)
        for _ in range(120):
            query = random_query(rng, "patterns")
            plan = compile_query(query)
            assert plan.evaluate(index) == evaluate(query, index), query.describe()

    def test_evaluate_selects_what_matches_metadata_accepts(self, seed):
        """The plan against the second, index-free reference: record by
        record, the reference ``matches_metadata`` picks the same ids."""
        rng, index, corpus = build_corpus(seed)
        checked = 0
        for _ in range(120):
            query = random_query(rng, "patterns")
            if not metadata_reference_applies(query):
                continue
            checked += 1
            assert compile_query(query).evaluate(index) == metadata_reference(query, corpus), \
                query.describe()
        assert checked >= 40

    def test_evaluate_result_is_a_fresh_set(self, seed):
        """The plan intersects live postings but must never leak them."""
        rng, index, _ = build_corpus(seed)
        for _ in range(60):
            query = random_query(rng, "patterns")
            result = compile_query(query).evaluate(index)
            before = evaluate(query, index)
            result.add("sentinel-mutation")
            assert evaluate(query, index) == before


class TestOperatorEdges:
    CORPUS = {
        "r1": {"name": ["Observer"], "intent": ["decouple subject"]},
        "r2": {"name": ["Abstract Factory"], "intent": ["create families"]},
    }

    def build_index(self):
        index = AttributeIndex()
        for resource_id, metadata in self.CORPUS.items():
            index.add("patterns", resource_id, metadata)
        return index

    @pytest.mark.parametrize("operator", list(Operator))
    def test_each_operator_agrees(self, operator):
        index = self.build_index()
        for field in ("name", "intent", "*", "missing"):
            for value in ("Observer", "abstract factory", "obs", "", "!!!", "  OBSERVER  "):
                query = Query("patterns", [Criterion(field, value, operator)])
                plan = compile_query(query)
                assert plan.evaluate(index) == evaluate(query, index), (operator, field, value)

    @pytest.mark.parametrize("operator", list(Operator))
    def test_each_operator_agrees_with_matches_metadata(self, operator):
        index = self.build_index()
        for field in ("name", "intent", "*", "missing"):
            for value in ("Observer", "abstract factory", "obs", "  OBSERVER  ", "decouple"):
                query = Query("patterns", [Criterion(field, value, operator)])
                assert compile_query(query).evaluate(index) \
                    == metadata_reference(query, self.CORPUS), (operator, field, value)

    def test_conjunction_reordered_cheapest_first(self):
        query = (Query("patterns")
                 .where("*", "observer", Operator.ANY)
                 .where("name", "obs", Operator.PREFIX)
                 .where("intent", "decouple", Operator.CONTAINS)
                 .where("name", "Observer", Operator.EQUALS))
        plan = compile_query(query)
        operators = [criterion.operator for criterion in plan.criteria]
        assert operators == [Operator.EQUALS, Operator.CONTAINS, Operator.PREFIX, Operator.ANY]
        index = self.build_index()
        assert plan.evaluate(index) == evaluate(query, index) == {"r1"}

    def test_blank_criteria_are_dropped(self):
        query = Query("patterns").where("name", "   ").where("name", "Observer", Operator.EQUALS)
        plan = compile_query(query)
        assert len(plan.criteria) == 1
        assert not plan.is_empty
        empty = compile_query(Query("patterns").where("name", " "))
        assert empty.is_empty

    def test_wire_form_cached_and_identical(self):
        query = Query.keyword("patterns", "observer factory")
        plan = compile_query(query)
        assert plan.wire_xml == query.to_xml_text()
        assert plan.wire_bytes == len(query.to_xml_text().encode("utf-8"))
        assert plan.wire_xml is plan.wire_xml  # same object, rendered once

    def test_compiled_query_exposes_source(self):
        query = Query.keyword("patterns", "observer")
        plan = CompiledQuery(query)
        assert plan.source is query
        assert plan.community_id == "patterns"
