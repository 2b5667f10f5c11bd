"""Unit tests for the collaborators ``PeerNetwork`` composes.

No protocol adapter is involved: ``ReliableChannel`` and
``ResultCacheLayer`` run against a scripted fake kernel, ``HubCatalog``
against plain peers and a hand-built query context, checked against a
brute-force reference that sorts every match.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.kernel import QueryContext, RetrieveContext
from repro.network.base import SearchResult
from repro.network.config import CacheConfig, ReliabilityConfig
from repro.network.messages import MessageType, ack_message, register_message
from repro.network.peers import Peer
from repro.network.reliable import ReliableChannel
from repro.network.result_cache import ResultCacheLayer
from repro.network.twotier import HubCatalog
from repro.storage.document_store import metadata_wire_bytes
from repro.storage.plan import compile_query
from repro.storage.query import Query
from tests.network.harness import FakeKernel
from tests.storage.reference import resolved


def make_channel(**config):
    kernel = FakeKernel(Peer(peer_id="alice"), Peer(peer_id="hub"))
    channel = ReliableChannel(
        kernel, ReliabilityConfig(reliable_delivery=True, retry_timeout_ms=100.0, **config)
    )
    return kernel, channel


def upload():
    return register_message("alice", "hub", community_id="c", resource_id="r", metadata_bytes=10)


def download_context():
    return RetrieveContext(requester_id="alice", provider_id="hub", resource_id="r")


class TestReliableChannel:
    def test_off_is_a_plain_send(self):
        kernel = FakeKernel(Peer(peer_id="alice"), Peer(peer_id="hub"))
        channel = ReliableChannel(kernel, ReliabilityConfig())
        message = upload()
        channel.send(message)
        assert kernel.sent == [message] and not message.ack_to
        assert channel.pending == {} and kernel.simulator.posted == []

    def test_ack_settles_the_entry_and_a_duplicate_ack_is_a_no_op(self):
        kernel, channel = make_channel()
        message, context = upload(), download_context()
        channel.send(message, context=context)
        assert message.ack_to == "alice"
        assert list(channel.pending) == [message.message_id]
        assert context.pending == 1  # the envelope's token
        ack = ack_message("hub", "alice", message_id=message.message_id)
        on_ack = kernel.handlers[MessageType.ACK]
        on_ack(kernel.peers["alice"], ack, context)
        assert channel.pending == {} and kernel.released == [context]
        on_ack(kernel.peers["alice"], ack, context)
        assert kernel.released == [context]
        # The retry timer armed at send time finds nothing to do.
        kernel.fire_next_timer()
        assert len(kernel.sent) == 1 and kernel.simulator.posted == []
        assert kernel.stats.retries == kernel.stats.timeouts == 0

    def test_exhaustion_backs_off_then_times_out_exactly_once(self):
        kernel, channel = make_channel(retry_max_attempts=5)
        message, context = upload(), download_context()
        channel.send(message, context=context)
        delays = []
        while kernel.simulator.posted:
            key, delay_ms, _callback, _args = kernel.simulator.posted[0]
            assert key == "alice"  # the sender's own timer
            delays.append(delay_ms)
            kernel.fire_next_timer()
        assert delays == [100.0, 200.0, 400.0, 800.0, 800.0]
        assert kernel.sent == [message] * 5
        assert kernel.stats.retries == 4 and kernel.stats.timeouts == 1
        assert channel.pending == {}
        assert kernel.released == [context] and context.pending == 0

    def test_offline_sender_settles_quietly(self):
        kernel, channel = make_channel()
        context = download_context()
        channel.send(upload(), context=context)
        kernel.peers["alice"].online = False
        kernel.fire_next_timer()
        assert channel.pending == {} and kernel.released == [context]
        assert kernel.stats.timeouts == kernel.stats.retries == 0
        assert len(kernel.sent) == 1 and kernel.simulator.posted == []

    def test_a_virtual_sender_is_never_offline(self):
        kernel, channel = make_channel()
        kernel.virtual_nodes.add("server")
        message = register_message(
            "server", "alice", community_id="c", resource_id="r", metadata_bytes=1
        )
        channel.send(message)
        kernel.fire_next_timer()
        assert kernel.sent == [message, message] and kernel.stats.retries == 1


def insert(catalog, provider_id, name, *, community_id="patterns", **kwargs):
    metadata = {"name": [name]}
    catalog.insert(
        provider_id,
        community_id,
        f"{name}-id",
        metadata,
        name,
        metadata_wire_bytes(metadata),
        **kwargs,
    )


def query_context(query, *, origin_id="origin", max_results=100):
    return QueryContext(query=query, origin_id=origin_id, max_results=max_results)


def keyword(text):
    return compile_query(Query.keyword("patterns", text))


def select(catalog, plan, *, peers=None, origin_id=None, room=None):
    """The keys ``HubCatalog.take`` must answer with, by brute force: every
    match sorted (an empty query browses its community), then the offline,
    unknown and origin providers skipped, then the slice to ``room``."""
    records = catalog.records
    if plan.is_empty:
        keys = [key for key, record in records.items() if record.community_id == plan.community_id]
    else:
        keys = resolved(plan, catalog.index)
    keys = sorted(keys)
    if peers is not None:
        keys = [key for key in keys if reachable(records[key].provider_id, peers, origin_id)]
    return keys if room is None else keys[: max(room, 0)]


def reachable(provider_id, peers, origin_id):
    provider = peers.get(provider_id)
    return provider is not None and provider.online and provider_id != origin_id


def key_of(result):
    return f"{result.resource_id}@{result.provider_id}"


PROVIDERS = ("alice", "bob", "carol", "dave")
NAMES = ("Observer", "Visitor", "Factory Method", "Abstract Factory", "Sonata")
DESCRIPTIONS = ("", "a creational pattern", "a behavioural pattern")

#: (provider, community, name, description); no peer table knows the "ghost" provider
CATALOG_ENTRIES = st.lists(
    st.tuples(
        st.sampled_from((*PROVIDERS, "ghost")),
        st.sampled_from(("patterns", "music")),
        st.sampled_from(NAMES),
        st.sampled_from(DESCRIPTIONS),
    ),
    min_size=8,
    max_size=40,
)
#: (community, keyword text): keyword plans, an empty text browses, "zzz" matches nothing
SEARCHES = st.tuples(
    st.sampled_from(("patterns", "music")),
    st.sampled_from(("factory", "pattern", "creational", "", "zzz")),
)


#: one step of a catalog's life: insert (re-inserting a key when its
#: provider and name repeat), remove every record of a provider or a
#: title, or take a keyword search at a room of ``drawn % (records + 2)``,
#: so from 0 to one past the catalog
WRITE_SCHEDULES = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.tuples(
                st.sampled_from((*PROVIDERS, "ghost")),
                st.sampled_from(("patterns", "music")),
                st.sampled_from(NAMES),
                st.sampled_from(DESCRIPTIONS),
            ),
        ),
        st.tuples(st.just("remove"), st.sampled_from((*PROVIDERS, *NAMES))),
        st.tuples(st.just("take"), st.tuples(SEARCHES, st.integers(0, 60))),
    ),
    min_size=4,
    max_size=30,
)

class TestHubCatalog:
    def test_reinserting_a_key_replaces_the_record(self):
        catalog = HubCatalog()
        insert(catalog, "alice", "Observer")
        insert(catalog, "alice", "Observer", expires_at_ms=500.0)
        assert list(catalog.records) == ["Observer-id@alice"]
        record = catalog.records["Observer-id@alice"]
        assert record.expires_at_ms == 500.0
        assert record.metadata_bytes == len("name") + len("Observer")
        assert select(catalog, keyword("observer")) == ["Observer-id@alice"]

    def test_the_callers_metadata_dict_is_not_kept(self):
        # Announce paths hand the catalog a stored object's own metadata
        # dict, so a later edit of that dict must reach nothing here.
        catalog = HubCatalog()
        metadata = {"name": ["Observer"], "description": ["a behavioural pattern"]}
        catalog.insert(
            "alice", "patterns", "Observer-id", metadata, "Observer", metadata_wire_bytes(metadata)
        )
        peers = {"alice": Peer(peer_id="alice")}

        def answers():
            return {
                text: catalog.take(query_context(Query.keyword("patterns", text)), peers, hops=0)
                for text in ("observer", "behavioural", "visitor", "creational", "")
            }

        view, before = dict(catalog.records["Observer-id@alice"].metadata_view), answers()
        metadata["name"][0] = "Visitor"
        metadata["name"].append("Sonata")
        metadata["description"] = ["a creational pattern"]
        metadata["extra"] = ["observer"]
        assert catalog.records["Observer-id@alice"].metadata_view == view
        assert answers() == before
        assert [key_of(result) for result in before["observer"][0]] == ["Observer-id@alice"]

    def test_remove_where_by_provider_and_by_lease(self):
        catalog = HubCatalog()
        insert(catalog, "alice", "Observer", expires_at_ms=100.0)
        insert(catalog, "bob", "Observer", expires_at_ms=900.0)
        insert(catalog, "bob", "Visitor", expires_at_ms=100.0)
        gone = catalog.remove_where(lambda record: record.provider_id == "alice")
        assert [(record.provider_id, record.title) for record in gone] == [("alice", "Observer")]
        assert select(catalog, keyword("observer")) == ["Observer-id@bob"]
        expired = catalog.remove_where(lambda record: record.expires_at_ms <= 100.0)
        assert [record.title for record in expired] == ["Visitor"]
        assert list(catalog.records) == ["Observer-id@bob"]
        assert select(catalog, keyword("visitor")) == []
        assert catalog.remove_where(lambda record: False) == []

    @pytest.mark.parametrize(
        "community_id, expected",
        [
            ("patterns", ["Observer-id@alice", "Visitor-id@bob"]),
            ("music", ["Sonata-id@alice"]),
        ],
    )
    def test_an_empty_query_browses_one_community_in_key_order(self, community_id, expected):
        catalog = HubCatalog()
        insert(catalog, "bob", "Visitor")
        insert(catalog, "alice", "Observer")
        insert(catalog, "alice", "Sonata", community_id="music")
        assert select(catalog, compile_query(Query(community_id))) == expected

    def test_take_honours_room_origin_and_offline_providers(self):
        peers = {name: Peer(peer_id=name) for name in ("alice", "bob", "carol", "origin")}
        peers["bob"].online = False
        catalog = HubCatalog()
        for provider in ("alice", "bob", "carol", "origin", "ghost"):
            insert(catalog, provider, "Observer")
        query = Query.keyword("patterns", "observer")

        results, metadata_bytes = catalog.take(query_context(query), peers, hops=2)
        assert [result.provider_id for result in results] == ["alice", "carol"]
        assert {result.hops for result in results} == {3}
        assert metadata_bytes == 2 * (len("name") + len("Observer"))

        results, _ = catalog.take(query_context(query, max_results=1), peers, hops=0)
        assert [result.provider_id for result in results] == ["alice"]

        full = query_context(query, max_results=2)
        full.claim(2)
        assert catalog.take(full, peers, hops=0) == ([], 0)

    @pytest.mark.parametrize("room, matches", [(0, 0), (0, 1), (3, 2), (3, 3), (3, 4)])
    @pytest.mark.parametrize("skipped", [0, 1, 2])
    def test_take_either_side_of_the_room(self, room, matches, skipped):
        """A match set that fits the room is sorted, a larger one walked
        in the index's key order; both hand out the same keys.  The first
        ``skipped`` providers in key order are offline or the origin, so
        the walk passes the room."""
        providers = [f"p{number}" for number in range(matches)]
        peers = {provider: Peer(peer_id=provider) for provider in providers}
        catalog = HubCatalog()
        for provider in providers:
            insert(catalog, provider, "Observer")
        insert(catalog, "p0", "Visitor")
        if skipped and matches:
            peers["p0"].online = False
        origin_id = "p1" if skipped == 2 and matches > 1 else "origin"
        context = query_context(
            Query.keyword("patterns", "observer"), origin_id=origin_id, max_results=room
        )
        results, metadata_bytes = catalog.take(context, peers, hops=0)
        expected = select(catalog, keyword("observer"), peers=peers, origin_id=origin_id, room=room)
        assert [key_of(result) for result in results] == expected
        assert len(expected) == min(room, matches - min(skipped, matches))
        assert metadata_bytes == sum(catalog.records[key].metadata_bytes for key in expected)
        # Only a match set larger than the room builds the index's key order.
        assert (catalog.index._order is not None) == (matches > room)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        entries=CATALOG_ENTRIES,
        offline=st.sets(st.sampled_from(PROVIDERS), max_size=2),
        origin_id=st.sampled_from((*PROVIDERS, "origin")),
        search=SEARCHES,
        max_results=st.integers(0, 4),
        claimed=st.integers(0, 1),
        hops=st.integers(0, 3),
    )
    def test_take_equals_the_reference_and_shares_one_hit_per_depth(
        self, entries, offline, origin_id, search, max_results, claimed, hops
    ):
        catalog = HubCatalog()
        for provider_id, community_id, name, description in entries:
            metadata = {"name": [name], "description": [description] if description else []}
            catalog.insert(
                provider_id,
                community_id,
                f"{name}-id",
                metadata,
                name,
                metadata_wire_bytes(metadata),
            )
        peers = {provider_id: Peer(peer_id=provider_id) for provider_id in PROVIDERS}
        for provider_id in offline:
            peers[provider_id].online = False
        query = Query.keyword(*search)

        def take(depth):
            context = query_context(query, origin_id=origin_id, max_results=max_results)
            context.claim(claimed)
            return catalog.take(context, peers, hops=depth)

        expected = select(
            catalog,
            compile_query(query),
            peers=peers,
            origin_id=origin_id,
            room=max_results - claimed,
        )
        results, metadata_bytes = take(hops)
        assert [key_of(result) for result in results] == expected
        for result in results:
            record = catalog.records[key_of(result)]
            assert result == SearchResult(
                record.provider_id,
                record.resource_id,
                record.community_id,
                record.title,
                record.metadata_view,
                hops + 1,
            )
            assert result.metadata_bytes() == metadata_wire_bytes(result.metadata)
            assert result.metadata_bytes() == record.metadata_bytes
        assert metadata_bytes == sum(result.metadata_bytes() for result in results)

        # One depth, one shared hit per record; another depth, its own.
        again, again_bytes = take(hops)
        assert again_bytes == metadata_bytes
        assert all(hit is first for hit, first in zip(again, results, strict=True))
        deeper, _ = take(hops + 1)
        assert [key_of(result) for result in deeper] == expected
        assert [result.hops for result in deeper] == [hops + 2] * len(expected)

        # A re-insert replaces the record, and with it the shared hit.
        if results:
            stale = results[0]
            record = catalog.records[key_of(stale)]
            metadata = {path: list(values) for path, values in record.metadata_view.items()}
            catalog.insert(
                record.provider_id,
                record.community_id,
                record.resource_id,
                metadata,
                f"{record.title} (revised)",
                record.metadata_bytes,
            )
            fresh, _ = take(hops)
            assert [key_of(result) for result in fresh] == expected
            assert fresh[0] is not stale and fresh[0].title == f"{stale.title} (revised)"
            assert all(hit is first for hit, first in zip(fresh[1:], results[1:], strict=True))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(schedule=WRITE_SCHEDULES, origin_id=st.sampled_from((*PROVIDERS, "origin")))
    # Ids run against key order and a record that does not match sorts
    # first; the first walk (4 matches, room 2) builds the index's key
    # order, then a removal frees an id a later-sorting key takes over
    # before the next walk (4 matches, room 1).
    @example(
        schedule=[
            ("insert", ("dave", "patterns", "Observer", "a behavioural pattern")),
            ("insert", ("alice", "patterns", "Visitor", "a behavioural pattern")),
            ("insert", ("carol", "patterns", "Observer", "a creational pattern")),
            ("insert", ("bob", "patterns", "Factory Method", "a creational pattern")),
            ("insert", ("alice", "patterns", "Abstract Factory", "")),
            ("take", (("patterns", "pattern"), 2)),
            ("remove", "bob"),
            ("insert", ("carol", "patterns", "Sonata", "a behavioural pattern")),
            ("take", (("patterns", "pattern"), 1)),
        ],
        origin_id="origin",
    )
    def test_take_equals_the_reference_under_writes(self, schedule, origin_id):
        """Inserts, re-inserts of one key and ``remove_where`` steps
        interleaved with takes at rooms from 0 to one past the catalog:
        every take answers as the sorted reference does, also once the
        index's key order was built and an id came back off the free
        list."""
        catalog = HubCatalog()
        peers = {provider_id: Peer(peer_id=provider_id) for provider_id in PROVIDERS}
        for step, argument in schedule:
            if step == "insert":
                provider_id, community_id, name, description = argument
                metadata = {"name": [name], "description": [description] if description else []}
                catalog.insert(
                    provider_id,
                    community_id,
                    f"{name}-id",
                    metadata,
                    name,
                    metadata_wire_bytes(metadata),
                )
            elif step == "remove":
                catalog.remove_where(
                    lambda record, gone=argument: gone in (record.provider_id, record.title)
                )
            else:
                search, drawn = argument
                room = drawn % (len(catalog.records) + 2)
                context = query_context(Query.keyword(*search), origin_id=origin_id,
                                        max_results=room)
                results, metadata_bytes = catalog.take(context, peers, hops=0)
                expected = select(catalog, compile_query(Query.keyword(*search)),
                                  peers=peers, origin_id=origin_id, room=room)
                assert [key_of(result) for result in results] == expected
                assert metadata_bytes == sum(
                    catalog.records[key].metadata_bytes for key in expected
                )


def make_cache_layer():
    kernel = FakeKernel(Peer(peer_id="alice"), Peer(peer_id="bob"))
    kernel.virtual_nodes.add("server")
    return kernel, ResultCacheLayer(kernel, CacheConfig(enabled=True, capacity=4, ttl_ms=100.0))


class TestResultCacheLayer:
    def test_a_site_opens_only_on_a_node_that_is_up(self):
        kernel, layer = make_cache_layer()
        kernel.peers["bob"].online = False
        assert layer.site("bob") is None and layer.site("ghost") is None
        assert layer.sites == {}
        alice, server = layer.site("alice"), layer.site("server")
        assert alice is not None and server is not None and alice is not server
        assert layer.site("alice") is alice
        assert (alice.capacity, alice.ttl_ms) == (4, 100.0)

    def test_a_site_dies_with_drop(self):
        _kernel, layer = make_cache_layer()
        first = layer.site("alice")
        layer.drop("alice")
        layer.drop("never-there")
        assert layer.sites == {} and layer.site("alice") is not first

    def test_store_and_lookup_share_one_key_and_count_misses(self):
        kernel, layer = make_cache_layer()
        context = query_context(Query.keyword("patterns", "observer"), origin_id="alice")
        assert layer.lookup("alice", context) is None  # no site yet: still a miss
        assert layer.sites == {} and kernel.stats.cache_misses == 1
        layer.store("alice", context, [])
        repeat = query_context(Query.keyword("patterns", "observer"), origin_id="alice")
        assert layer.lookup("alice", repeat).results == ()
        assert layer.would_serve("alice", repeat, at_ms=99.0)
        assert not layer.would_serve("alice", repeat, at_ms=100.0)
        assert not layer.would_serve("bob", repeat, at_ms=0.0)
        kernel.peers["bob"].online = False
        layer.store("bob", context, [])
        assert "bob" not in layer.sites

    def test_one_sweep_visits_every_site(self):
        kernel, layer = make_cache_layer()
        context = query_context(Query.keyword("patterns", "observer"))
        for node_id in ("alice", "bob", "server"):
            layer.store(node_id, context, [])
        layer.ensure_sweep()
        layer.ensure_sweep()  # idempotent while the timer lives
        [(interval_ms, sweep)] = kernel.recurring
        assert interval_ms == 100.0
        kernel.simulator.now = 50.0
        sweep()
        assert [len(cache) for cache in layer.sites.values()] == [1, 1, 1]
        kernel.simulator.now = 100.0
        sweep()
        assert [len(cache) for cache in layer.sites.values()] == [0, 0, 0]
        assert [cache.expirations for cache in layer.sites.values()] == [1, 1, 1]
