"""Tests for the richer query language (XQuery-lite) and disk persistence."""

import pytest

from repro.communities.design_patterns import gof_pattern_records, pattern_schema_xsd
from repro.schema.instance import build_instance
from repro.schema.parser import parse_schema_text
from repro.storage.errors import QueryError, StorageError
from repro.storage.persistence import load_repository, save_repository
from repro.storage.plan import compile_query
from repro.storage.query import Query
from repro.storage.repository import LocalRepository
from repro.storage.xquery import XQueryLite, xquery


@pytest.fixture()
def pattern_repository():
    """A repository loaded with the 23 GoF patterns."""
    schema = parse_schema_text(pattern_schema_xsd())
    repository = LocalRepository(owner="curator")
    for record in gof_pattern_records():
        instance = build_instance(schema, record)
        metadata = {path: [str(value)] if isinstance(value, str) else [str(v) for v in value]
                    for path, value in record.items()}
        repository.publish("patterns", instance, metadata, title=str(record["name"]))
    return repository


class TestXQueryParsing:
    def test_basic_parse(self):
        query = XQueryLite.parse("for $p in pattern where $p/category = 'behavioral' return $p/name")
        assert query.variable == "p"
        assert query.source == "pattern"
        assert query.returns == "$p/name"

    def test_missing_return_rejected(self):
        with pytest.raises(QueryError):
            XQueryLite.parse("for $p in pattern where $p/name = 'Observer'")

    def test_unknown_variable_rejected(self, pattern_repository):
        query = XQueryLite.parse("for $p in pattern where $q/name = 'Observer' return $p/name")
        with pytest.raises(QueryError):
            query.evaluate(pattern_repository, "patterns")

    def test_where_clause_optional(self, pattern_repository):
        results = xquery(pattern_repository, "patterns", "for $p in pattern return $p/name")
        assert len(results) == 23


class TestXQueryEvaluation:
    def test_equality_filter(self, pattern_repository):
        results = xquery(pattern_repository, "patterns",
                         "for $p in pattern where $p/category = 'creational' return $p/name")
        assert sorted(result.as_text() for result in results) == [
            "Abstract Factory", "Builder", "Factory Method", "Prototype", "Singleton",
        ]

    def test_contains_and_conjunction(self, pattern_repository):
        results = xquery(
            pattern_repository, "patterns",
            "for $p in pattern where $p/category = 'behavioral' "
            "and contains($p/intent, 'algorithm') return $p/name",
        )
        names = {result.as_text() for result in results}
        assert "Strategy" in names and "Template Method" in names
        assert "Observer" not in names

    def test_disjunction(self, pattern_repository):
        results = xquery(
            pattern_repository, "patterns",
            "for $p in pattern where $p/name = 'Observer' or $p/name = 'Visitor' return $p/name",
        )
        assert {result.as_text() for result in results} == {"Observer", "Visitor"}

    def test_count_over_nested_elements(self, pattern_repository):
        results = xquery(
            pattern_repository, "patterns",
            "for $p in pattern where count($p/solution/participants) >= 5 return $p/name",
        )
        assert {result.as_text() for result in results} == {"Visitor"}

    def test_return_whole_object(self, pattern_repository):
        results = xquery(pattern_repository, "patterns",
                         "for $p in pattern where $p/name = 'Bridge' return $p")
        assert len(results) == 1
        element = results[0].value
        assert element.local_name == "pattern"
        assert element.child_text("name") == "Bridge"

    def test_source_element_filter(self, pattern_repository):
        assert xquery(pattern_repository, "patterns",
                      "for $m in mp3 return $m/title") == []
        assert len(xquery(pattern_repository, "patterns",
                          "for $x in * return $x/name")) == 23

    def test_agreement_with_index_search(self, pattern_repository):
        """The richer language and the attribute-index search agree on
        queries both can express."""
        index_hits = {stored.resource_id
                      for stored in pattern_repository.search(compile_query(
                          Query("patterns").where("category", "structural")))}
        xquery_hits = {result.resource_id
                       for result in xquery(pattern_repository, "patterns",
                                            "for $p in pattern where $p/category = 'structural' "
                                            "return $p/name")}
        assert index_hits == xquery_hits

    def test_query_the_index_cannot_answer(self, pattern_repository):
        """Participant lists are not indexed (case-study filter) but the
        document-level language still reaches them — the reason the paper
        lists XML Query as future work."""
        results = xquery(pattern_repository, "patterns",
                         "for $p in pattern where contains($p/solution/participants, 'Memento') "
                         "return $p/name")
        assert {result.as_text() for result in results} == {"Memento"}


class TestPersistence:
    def test_save_and_load_roundtrip(self, pattern_repository, tmp_path):
        saved = save_repository(pattern_repository, tmp_path / "store")
        assert saved == 23
        loaded = load_repository(tmp_path / "store")
        assert loaded.owner == "curator"
        assert len(loaded.documents) == 23
        # Index works after reload without recomputing metadata.
        hits = loaded.search(compile_query(Query("patterns").where("name", "Observer")))
        assert len(hits) == 1
        assert hits[0].title == "Observer"

    def test_resource_ids_stable_across_reload(self, pattern_repository, tmp_path):
        save_repository(pattern_repository, tmp_path / "store")
        loaded = load_repository(tmp_path / "store")
        original_ids = {stored.resource_id for stored in pattern_repository.documents}
        reloaded_ids = {stored.resource_id for stored in loaded.documents}
        assert original_ids == reloaded_ids

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            load_repository(tmp_path)

    def test_missing_object_file_rejected(self, pattern_repository, tmp_path):
        save_repository(pattern_repository, tmp_path / "store")
        victim = next((tmp_path / "store" / "patterns").glob("*.xml"))
        victim.unlink()
        with pytest.raises(StorageError):
            load_repository(tmp_path / "store")

    def test_tampered_object_detected(self, pattern_repository, tmp_path):
        save_repository(pattern_repository, tmp_path / "store")
        victim = next(path for path in (tmp_path / "store" / "patterns").glob("*.xml")
                      if "<name>Observer</name>" in path.read_text(encoding="utf-8"))
        victim.write_text(
            victim.read_text(encoding="utf-8").replace("<name>Observer</name>",
                                                       "<name>Tampered</name>"),
            encoding="utf-8",
        )
        with pytest.raises(StorageError):
            load_repository(tmp_path / "store")

    def test_xquery_over_reloaded_repository(self, pattern_repository, tmp_path):
        save_repository(pattern_repository, tmp_path / "store")
        loaded = load_repository(tmp_path / "store")
        results = xquery(loaded, "patterns",
                         "for $p in pattern where $p/category = 'creational' return $p/name")
        assert len(results) == 5
