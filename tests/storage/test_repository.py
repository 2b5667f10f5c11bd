"""Tests for the per-peer repository façade and attachments."""

import pytest

from repro.storage.attachments import Attachment, AttachmentStore
from repro.storage.errors import ObjectNotFoundError
from repro.storage.plan import CompiledQuery, compile_query
from repro.storage.query import Query
from repro.storage.repository import LocalRepository
from repro.xmlkit.parser import parse
from tests.storage.reference import evaluate


def doc(text):
    return parse(text).root


class TestAttachments:
    def test_synthesize_deterministic(self):
        a = Attachment.synthesize("http://x/file.mp3", seed=1)
        b = Attachment.synthesize("http://x/file.mp3", seed=1)
        assert a == b
        assert a.size_bytes > 0

    def test_synthesize_respects_explicit_size(self):
        a = Attachment.synthesize("http://x/f", size_bytes=1234)
        assert a.size_bytes == 1234

    def test_store_serve_receive_accounting(self):
        provider = AttachmentStore()
        requester = AttachmentStore()
        attachment = Attachment.synthesize("http://x/song.mp3", size_bytes=1000)
        provider.put(attachment)
        served = provider.serve("http://x/song.mp3")
        requester.receive(served)
        assert provider.bytes_served == 1000
        assert requester.bytes_received == 1000
        assert requester.has("http://x/song.mp3")
        assert requester.total_bytes() == 1000

    def test_missing_attachment_raises(self):
        with pytest.raises(ObjectNotFoundError):
            AttachmentStore().get("http://nope")


class TestRepository:
    def publish_sample(self, repository):
        return repository.publish(
            "patterns",
            doc("<pattern><name>Observer</name><intent>notify dependents</intent></pattern>"),
            {"name": ["Observer"], "intent": ["notify dependents"]},
            title="Observer",
            attachment_uris=["http://repo/observer.png"],
        )

    def test_publish_stores_and_indexes(self):
        repository = LocalRepository(owner="alice")
        result = self.publish_sample(repository)
        assert result.indexed_fields == 2
        assert repository.documents.contains(result.resource_id)
        assert len(result.attachments) == 1
        assert repository.attachments.has("http://repo/observer.png")

    def test_search_by_keyword(self):
        repository = LocalRepository()
        self.publish_sample(repository)
        hits = repository.search(compile_query(Query.keyword("patterns", "observer")))
        assert [stored.title for stored in hits] == ["Observer"]
        misses = repository.search(compile_query(Query.keyword("patterns", "visitor")))
        assert misses == []

    def test_empty_query_browses_community(self):
        repository = LocalRepository()
        self.publish_sample(repository)
        assert len(repository.search(compile_query(Query("patterns")))) == 1
        assert repository.search(compile_query(Query("other"))) == []
        repository.publish("patterns", doc("<pattern><name>Visitor</name></pattern>"),
                           {"name": ["Visitor"]}, title="Visitor")
        assert len(repository.search(compile_query(Query("patterns")))) == 2

    def test_empty_query_result_is_not_aliased_to_the_store(self):
        """Mutating a browse result must never corrupt the document
        store shared by every in-process peer (mutation aliasing)."""
        repository = LocalRepository()
        self.publish_sample(repository)
        first = repository.search(compile_query(Query("patterns")))
        first.clear()
        again = repository.search(compile_query(Query("patterns")))
        assert len(again) == 1
        assert len(repository.documents.objects_in("patterns")) == 1

    def test_search_with_compiled_plan_matches_naive(self):
        from repro.storage.query import Operator

        repository = LocalRepository()
        self.publish_sample(repository)
        for query in (
            Query.keyword("patterns", "observer"),
            Query("patterns").where("name", "Observer", Operator.EQUALS),
            Query.keyword("patterns", "visitor"),
        ):
            expected = [repository.retrieve(resource_id)
                        for resource_id in sorted(evaluate(query, repository.index))]
            assert repository.search(compile_query(query)) == expected

    def test_retrieve(self):
        repository = LocalRepository()
        result = self.publish_sample(repository)
        stored = repository.retrieve(result.resource_id)
        assert stored.title == "Observer"

    def test_a_community_holding_nothing_is_never_evaluated(self, monkeypatch):
        """A community the repository holds no object of answers
        ``[]``, browse and criteria alike, without entering the plan."""
        repository = LocalRepository()
        repository.publish("mp3s", doc("<mp3><title>Giant Steps</title></mp3>"),
                           {"title": ["Giant Steps"]}, title="Giant Steps")

        evaluated = []
        evaluate = CompiledQuery.evaluate

        def spy(plan, index):
            evaluated.append(plan.community_id)
            return evaluate(plan, index)

        monkeypatch.setattr(CompiledQuery, "evaluate", spy)
        for query in (Query.keyword("patterns", "observer"), Query("patterns")):
            assert repository.search(compile_query(query)) == []
        assert evaluated == []
        assert repository.documents.communities() == ["mp3s"]
        assert repository.statistics()["communities"] == 1
        # The guard bites: a community that holds an object is evaluated.
        hits = repository.search(compile_query(Query.keyword("mp3s", "giant")))
        assert [stored.title for stored in hits] == ["Giant Steps"]
        assert evaluated == ["mp3s"]

    def test_statistics(self):
        repository = LocalRepository()
        self.publish_sample(repository)
        stats = repository.statistics()
        assert stats["objects"] == 1
        assert stats["communities"] == 1
        assert stats["index_entries"] == 2
        assert stats["attachments"] == 1
        assert stats["document_bytes"] > 0

    def test_publish_same_object_twice_idempotent(self):
        repository = LocalRepository()
        first = self.publish_sample(repository)
        second = self.publish_sample(repository)
        assert first.resource_id == second.resource_id
        assert repository.statistics()["objects"] == 1
