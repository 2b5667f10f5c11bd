"""Tests for the structured (CMIP-like) query model.

Evaluation runs through the compiled plan and, as a cross-check, the
reference semantics in ``tests/storage/reference.py``; both must agree.
"""

import pytest

from repro.storage.errors import QueryError
from repro.storage.index import AttributeIndex
from repro.storage.plan import compile_query
from repro.storage.query import Criterion, Operator, Query
from tests.storage import reference


def run(query: Query, index: AttributeIndex) -> set[str]:
    """The plan's answer, checked against the reference evaluator."""
    answer = reference.resolved(compile_query(query), index)
    assert answer == reference.evaluate(query, index), query.describe()
    return answer


@pytest.fixture()
def index():
    index = AttributeIndex()
    index.add("patterns", "r1", {"name": ["Observer"], "category": ["behavioral"],
                                 "intent": ["notify dependents of state changes"]})
    index.add("patterns", "r2", {"name": ["Visitor"], "category": ["behavioral"],
                                 "intent": ["represent operations on an object structure"]})
    index.add("patterns", "r3", {"name": ["Abstract Factory"], "category": ["creational"],
                                 "intent": ["create families of related objects"]})
    return index


class TestConstruction:
    def test_fluent_where(self):
        query = Query("patterns").where("name", "Observer", Operator.EQUALS).where("category", "behavioral")
        assert len(query.criteria) == 2
        assert not compile_query(query).is_empty

    def test_keyword_constructor(self):
        query = Query.keyword("patterns", "factory")
        assert query.criteria[0].operator == Operator.ANY

    def test_empty_detection(self):
        assert compile_query(Query("patterns")).is_empty
        assert compile_query(Query("patterns", [Criterion("name", "  ")])).is_empty
        assert not compile_query(Query("patterns", [Criterion("name", "x")])).is_empty

    def test_describe(self):
        query = Query("patterns").where("name", "Observer", Operator.EQUALS)
        assert "Observer" in query.describe()
        assert "all objects" in Query("patterns").describe()


class TestEvaluation:
    def test_equals_against_index(self, index):
        assert run(Query("patterns").where("name", "observer", Operator.EQUALS), index) == {"r1"}

    def test_contains_against_index(self, index):
        assert run(Query("patterns").where("intent", "object structure"), index) == {"r2"}

    def test_any_field(self, index):
        assert run(Query.keyword("patterns", "factory"), index) == {"r3"}

    def test_prefix(self, index):
        query = Query("patterns").where("name", "vis", Operator.PREFIX)
        assert run(query, index) == {"r2"}

    def test_conjunction(self, index):
        query = (Query("patterns")
                 .where("category", "behavioral", Operator.EQUALS)
                 .where("intent", "operations"))
        assert run(query, index) == {"r2"}

    def test_conjunction_no_match(self, index):
        query = (Query("patterns")
                 .where("category", "creational", Operator.EQUALS)
                 .where("intent", "notify"))
        assert run(query, index) == set()

    def test_empty_query_matches_nothing_via_index(self, index):
        assert run(Query("patterns"), index) == set()

    def test_wrong_community(self, index):
        assert run(Query.keyword("mp3s", "observer"), index) == set()


class TestMetadataMatching:
    METADATA = {"name": ["Observer"], "category": ["behavioral"],
                "intent": ["notify dependents of state changes"]}

    def matches(self, query: Query) -> bool:
        return reference.matches_metadata(query, self.METADATA)

    def test_contains(self):
        assert self.matches(Query("p").where("intent", "notify dependents"))
        assert not self.matches(Query("p").where("intent", "create factories"))

    def test_equals(self):
        assert self.matches(Query("p").where("name", "observer", Operator.EQUALS))
        assert not self.matches(Query("p").where("name", "observer pattern", Operator.EQUALS))

    def test_any(self):
        assert self.matches(Query.keyword("p", "behavioral"))
        assert not self.matches(Query.keyword("p", "creational"))

    def test_missing_field_fails(self):
        assert not self.matches(Query("p").where("author", "gamma"))

    def test_prefix(self):
        assert self.matches(Query("p", [Criterion("name", "obs", Operator.PREFIX)]))


class TestWireFormat:
    def test_roundtrip(self):
        query = (Query("patterns", query_id="q-7", origin="alice")
                 .where("name", "Observer", Operator.EQUALS)
                 .where("intent", "state changes"))
        again = Query.from_xml_text(query.to_xml_text())
        assert again.community_id == "patterns"
        assert again.query_id == "q-7"
        assert again.origin == "alice"
        assert [(c.field_path, c.value, c.operator) for c in again.criteria] == [
            ("name", "Observer", Operator.EQUALS),
            ("intent", "state changes", Operator.CONTAINS),
        ]

    def test_wire_size_positive_and_grows(self):
        small = Query.keyword("p", "x")
        large = Query.keyword("p", "a much longer query string with many words")
        assert 0 < compile_query(small).wire_bytes < compile_query(large).wire_bytes

    def test_missing_community_rejected(self):
        with pytest.raises(QueryError):
            Query.from_xml_text("<query><criterion field='a'>x</criterion></query>")

    def test_wrong_root_rejected(self):
        with pytest.raises(QueryError):
            Query.from_xml_text("<search community='p'/>")

    def test_unknown_operator_rejected(self):
        with pytest.raises(QueryError):
            Query.from_xml_text(
                "<query community='p'><criterion field='a' operator='regex'>x</criterion></query>"
            )
