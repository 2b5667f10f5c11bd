"""Pickle round-trips for the types that cross process boundaries.

Process-parallel shard execution ships messages (outbox batches),
stored objects (download replication) and compiled queries between
workers.  These tests pin the transport invariants: a slotted
``Message`` survives with its shared wire form intact (shipped, not
re-rendered), a ``CompiledQuery`` keeps its lazily-measured wire
caches, and a ``StoredObject``'s interned metadata view re-interns in
the receiving process so the identity-sharing memory invariants
survive transport.
"""

from __future__ import annotations

import pickle

from repro.network.messages import Message, MessageType, query_message
from repro.storage import interning
from repro.storage.document_store import DocumentStore
from repro.storage.index import AttributeIndex
from repro.storage.interning import intern_values
from repro.storage.plan import compile_query
from repro.storage.query import Query
from repro.xmlkit.parser import parse


def roundtrip(value):
    return pickle.loads(pickle.dumps(value))


class TestMessageRoundTrip:
    def test_all_fields_survive(self):
        message = Message(
            type=MessageType.QUERY_HIT, sender="a", recipient="b",
            message_id="msg-77", ttl=3, hops=4, payload_bytes=120,
            query_xml="<q/>", resource_id="r1", community_id="c1",
            attachment_uri="u", carried_results=(("a", "r1"),),
            payload_object=({"name": ["x"]}, "x"), ack_to="a",
            chunk_index=2, chunk_total=5)
        loaded = roundtrip(message)
        assert loaded == message
        assert loaded.size_bytes == message.size_bytes

    def test_wire_form_is_shipped_not_re_rendered(self):
        """Every hop of one flood shares a single ``query_xml`` string;
        a batched pickle must memoize it — one copy on the wire, one
        shared object after loading — instead of re-serializing per
        message."""
        query_xml = "<query><criterion>observer pattern</criterion></query>"
        first = query_message("p0", "p1", query_xml, community_id="c")
        hops = [first] + [first.forwarded(f"p{i}", f"p{i + 1}") for i in range(1, 40)]
        assert all(hop.query_xml is query_xml for hop in hops)

        payload = pickle.dumps(hops)
        loaded = pickle.loads(payload)
        assert [hop.query_xml for hop in loaded] == [query_xml] * len(hops)
        assert all(hop.query_xml is loaded[0].query_xml for hop in loaded)
        # The batch carries the wire form once: well under the cost of
        # one serialized copy per message.
        assert len(payload) < len(hops) * len(query_xml)

    def test_message_id_and_payload_sizes_preserved(self):
        message = query_message("p0", "p1", "<q>zück</q>")
        loaded = roundtrip(message)
        assert loaded.message_id == message.message_id
        assert loaded.payload_bytes == len("<q>zück</q>".encode("utf-8"))


class TestCompiledQueryRoundTrip:
    def test_compiled_query_survives_with_wire_caches(self):
        compiled = compile_query(Query("patterns").where("name", "factory"))
        # Populate the lazy caches so the pickled state carries them.
        wire_xml, wire_bytes = compiled.wire_xml, compiled.wire_bytes
        loaded = roundtrip(compiled)
        assert loaded.community_id == compiled.community_id
        assert loaded.wire_xml == wire_xml
        assert loaded.wire_bytes == wire_bytes
        assert loaded.cache_key == compiled.cache_key

    def test_uncompiled_caches_rebuild_identically(self):
        compiled = compile_query(Query("patterns").where("name", "factory"))
        loaded = roundtrip(compiled)  # caches never touched pre-pickle
        assert loaded.wire_xml == compiled.wire_xml
        assert loaded.wire_bytes == compiled.wire_bytes


class TestInternedViewRoundTrip:
    def make_stored(self):
        store = DocumentStore()
        document = parse(
            "<pattern><name>Observer</name><intent>decouple</intent></pattern>").root
        return store.put("patterns", document,
                         metadata={"name": ["Observer"], "intent": ["decouple"]})

    def test_view_re_interns_in_the_loading_process(self):
        stored = self.make_stored()
        stored.metadata_view()  # populate the cache that must not ship
        loaded = roundtrip(stored)
        # The cached view was dropped in transit...
        assert loaded._metadata_view is None
        view = loaded.metadata_view()
        # ...and the rebuilt one is canonical in *this* process: the
        # value tuples are the interning table's objects, shared with
        # every other holder of equal content.
        for values in view.values():
            assert values is intern_values(tuple(values))
        assert view == stored.metadata_view()

    def test_equal_content_shares_one_tuple_after_loading(self):
        stored = self.make_stored()
        interning.clear()
        first = roundtrip(stored)
        second = roundtrip(stored)
        assert first.metadata_view()["name"] is second.metadata_view()["name"]

    def test_index_posting_bytes_unchanged_by_roundtrip(self):
        index = AttributeIndex()
        for number in range(50):
            index.add("patterns", f"res-{number:04d}",
                      {"name": [f"Pattern {number % 7}"],
                       "intent": ["decouple things", f"variant {number % 3}"]})
        before = index.posting_bytes()
        loaded = roundtrip(index)
        assert loaded.posting_bytes() == before
        assert loaded.entry_count() == index.entry_count()
