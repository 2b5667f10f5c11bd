"""Tests for the content-addressed document store."""

import pytest

from repro.storage.document_store import DocumentStore, resource_id_for
from repro.storage.errors import ObjectNotFoundError
from repro.xmlkit.parser import parse


def doc(text):
    return parse(text).root


class TestResourceIds:
    def test_same_content_same_id(self):
        a = doc("<mp3><title>x</title></mp3>")
        b = doc("<mp3><title>x</title></mp3>")
        assert resource_id_for("c1", a) == resource_id_for("c1", b)

    def test_different_content_different_id(self):
        a = doc("<mp3><title>x</title></mp3>")
        b = doc("<mp3><title>y</title></mp3>")
        assert resource_id_for("c1", a) != resource_id_for("c1", b)

    def test_community_scoped(self):
        a = doc("<mp3><title>x</title></mp3>")
        assert resource_id_for("c1", a) != resource_id_for("c2", a)

    def test_whitespace_insensitive(self):
        a = doc("<mp3><title>x</title></mp3>")
        b = doc("<mp3>\n  <title>x</title>\n</mp3>")
        assert resource_id_for("c1", a) == resource_id_for("c1", b)


class TestStore:
    def test_put_and_get(self):
        store = DocumentStore()
        record = store.put("c1", doc("<mp3><title>x</title></mp3>"), title="x", publisher="alice")
        assert store.get(record.resource_id).title == "x"
        assert store.contains(record.resource_id)
        assert len(store) == 1

    def test_put_is_idempotent(self):
        store = DocumentStore()
        first = store.put("c1", doc("<a><b>1</b></a>"))
        second = store.put("c1", doc("<a><b>1</b></a>"))
        assert first is second
        assert len(store) == 1

    def test_get_missing_raises(self):
        with pytest.raises(ObjectNotFoundError):
            DocumentStore().get("nope")

    def test_partition_by_community(self):
        store = DocumentStore()
        store.put("mp3s", doc("<mp3><t>a</t></mp3>"))
        store.put("mp3s", doc("<mp3><t>b</t></mp3>"))
        store.put("patterns", doc("<pattern><n>Observer</n></pattern>"))
        assert len(store.objects_in("mp3s")) == 2
        assert len(store.objects_in("patterns")) == 1
        assert store.objects_in("unknown") == []
        assert sorted(store.communities()) == ["mp3s", "patterns"]

    def test_stored_document_is_a_copy(self):
        store = DocumentStore()
        original = doc("<a><b>1</b></a>")
        record = store.put("c1", original)
        original.children[0].text = "mutated"
        assert record.document.children[0].text == "1"

    def test_size_accounting(self):
        store = DocumentStore()
        store.put("c1", doc("<a><b>12345</b></a>"))
        assert store.total_bytes() > 0
        assert store.total_bytes() == sum(record.size_bytes for record in store)

    def test_default_title_from_content(self):
        store = DocumentStore()
        record = store.put("c1", doc("<a><b>Hello World</b></a>"))
        assert "Hello World" in record.title

    def test_metadata_attached(self):
        store = DocumentStore()
        record = store.put("c1", doc("<a><b>x</b></a>"), metadata={"b": ["x"]})
        assert record.metadata == {"b": ["x"]}
