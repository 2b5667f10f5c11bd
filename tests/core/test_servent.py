"""Tests for the servent: Create / Search / View / download / communities."""

import pytest

from repro.core.community import ROOT_COMMUNITY_ID
from repro.core.errors import CommunityError, InvalidObjectError, NotAMemberError
from repro.core.resource import Resource
from repro.communities.mp3 import mp3_schema_xsd


@pytest.fixture()
def alice_with_mp3s(two_servents):
    alice, bob = two_servents
    community = alice.create_community(
        "MP3 community", mp3_schema_xsd(),
        description="share music metadata", keywords="music mp3 audio",
    )
    return alice, bob, community


class TestCreateFunction:
    def test_create_object_publishes_and_indexes(self, alice_with_mp3s):
        alice, _, community = alice_with_mp3s
        resource = alice.create_object(community.community_id, {
            "title": "So What", "artist": "Miles Davis", "album": "Kind of Blue",
            "genre": "jazz", "bitrate": "192",
        })
        assert alice.repository.documents.contains(resource.resource_id)
        stats = alice.statistics()
        assert stats["objects"] == 2        # community object + the MP3
        assert stats["index_entries"] > 0

    def test_create_requires_membership(self, two_servents):
        _, bob = two_servents
        with pytest.raises(NotAMemberError):
            bob.create_object("community-unknown", {"title": "x"})

    def test_invalid_object_rejected(self, alice_with_mp3s):
        alice, _, community = alice_with_mp3s
        with pytest.raises(InvalidObjectError):
            alice.create_object(community.community_id, {
                "title": "x", "artist": "y", "album": "z", "genre": "polka", "bitrate": "192",
            })

    def test_publish_resource_from_xml(self, alice_with_mp3s, sample_mp3_xml):
        alice, _, community = alice_with_mp3s
        resource = Resource.from_xml_text(community.community_id, sample_mp3_xml)
        result = alice.publish_resource(resource)
        assert alice.repository.documents.contains(result.resource_id)
        assert alice.repository.attachments.has("http://peer.local/audio/so-what.mp3")

    def test_create_form_and_rendering(self, alice_with_mp3s):
        alice, _, community = alice_with_mp3s
        form = alice.create_form(community.community_id)
        assert any(field.path == "title" for field in form.fields)
        assert "up2p-create" in alice.render_create_form(community.community_id)
        assert "up2p-search" in alice.render_search_form(community.community_id)


class TestSearchAndDownload:
    def seed(self, alice, community):
        return alice.create_object(community.community_id, {
            "title": "Blue in Green", "artist": "Miles Davis", "album": "Kind of Blue",
            "genre": "jazz", "bitrate": "256",
            "file": "http://peer.local/audio/big.mp3",
        })

    def test_search_requires_membership(self, alice_with_mp3s):
        _, bob, community = alice_with_mp3s
        with pytest.raises(NotAMemberError):
            bob.search(community.community_id, "miles davis")

    def test_keyword_search(self, alice_with_mp3s):
        alice, bob, community = alice_with_mp3s
        self.seed(alice, community)
        bob.join_community(community)
        response = bob.search(community.community_id, "miles davis")
        assert response.result_count == 1
        assert response.results[0].provider_id == "alice"

    def test_field_search(self, alice_with_mp3s):
        alice, bob, community = alice_with_mp3s
        self.seed(alice, community)
        bob.join_community(community)
        response = bob.search(community.community_id, {"album": "kind of blue"})
        assert response.result_count == 1
        miss = bob.search(community.community_id, {"album": "bitches brew"})
        assert miss.result_count == 0

    def test_browse(self, alice_with_mp3s):
        alice, bob, community = alice_with_mp3s
        self.seed(alice, community)
        bob.join_community(community)
        assert bob.browse(community.community_id).result_count == 1

    def test_download_replicates_and_fetches_attachments(self, alice_with_mp3s):
        alice, bob, community = alice_with_mp3s
        self.seed(alice, community)
        bob.join_community(community)
        result = bob.search(community.community_id, "blue in green").results[0]
        downloaded = bob.download(result)
        assert downloaded.resource.community_id == community.community_id
        assert bob.repository.documents.contains(downloaded.resource_id)
        assert downloaded.retrieve.attachments_transferred == 1
        assert bob.repository.attachments.has("http://peer.local/audio/big.mp3")

    def test_view_downloaded_object(self, alice_with_mp3s):
        alice, bob, community = alice_with_mp3s
        self.seed(alice, community)
        bob.join_community(community)
        result = bob.search(community.community_id, "blue in green").results[0]
        downloaded = bob.download(result)
        html = bob.view(downloaded.resource_id)
        assert "Blue in Green" in html and "Miles Davis" in html

    def test_local_objects_listing(self, alice_with_mp3s):
        alice, _, community = alice_with_mp3s
        self.seed(alice, community)
        assert len(alice.local_objects(community.community_id)) == 1
        assert len(alice.local_objects()) == 2


class TestCommunityOperations:
    def test_create_community_publishes_to_root(self, alice_with_mp3s):
        alice, _, community = alice_with_mp3s
        root_objects = alice.local_objects(ROOT_COMMUNITY_ID)
        assert len(root_objects) == 1
        assert alice.registry.is_joined(community.community_id)
        assert alice.filespace.has(community.descriptor.schema_uri)

    def test_discovery_and_join(self, alice_with_mp3s):
        _, bob, community = alice_with_mp3s
        found = bob.search_communities("music")
        assert any(result.title == "MP3 community" for result in found.results)
        joined = bob.join_community(found.results[0])
        assert joined.community_id == community.community_id
        assert bob.registry.is_joined(community.community_id)
        # Joining downloads the community object, so Bob now also shares it.
        assert len(bob.local_objects(ROOT_COMMUNITY_ID)) == 1

    def test_browse_all_communities(self, alice_with_mp3s):
        _, bob, _ = alice_with_mp3s
        assert bob.search_communities().result_count == 1

    def test_join_requires_root_community_result(self, alice_with_mp3s):
        alice, bob, community = alice_with_mp3s
        alice.create_object(community.community_id, {
            "title": "t", "artist": "a", "album": "b", "genre": "jazz", "bitrate": "128",
        })
        bob.join_community(community)
        mp3_result = bob.search(community.community_id, "t").results[0]
        with pytest.raises(CommunityError):
            bob.join_community(mp3_result)

    def test_join_with_dangling_schema_uri_fails(self, alice_with_mp3s):
        alice, bob, _ = alice_with_mp3s
        # A community whose schema URI was never published to the file space.
        from repro.core.community import Community, CommunityDescriptor
        rogue = Community(CommunityDescriptor(name="Rogue", schema_uri="up2p:rogue/missing.xsd"),
                          mp3_schema_xsd())
        alice.registry.join(rogue)
        alice.peer.join_community(rogue.community_id)
        alice.publish_resource(rogue.to_resource())
        found = [r for r in bob.search_communities("rogue").results if r.title == "Rogue"]
        with pytest.raises(CommunityError):
            bob.join_community(found[0])

    def test_custom_stylesheets_travel_with_community(self, two_servents):
        from repro.communities.design_patterns import design_pattern_community
        alice, bob = two_servents
        definition = design_pattern_community()
        community = definition.create_on(alice)
        # The custom view stylesheet is reachable by URI for joiners.
        assert alice.filespace.has(community.descriptor.schema_uri)
        found = bob.search_communities("patterns").results[0]
        joined = bob.join_community(found)
        assert joined.community_id == community.community_id

    def test_joined_communities_listing(self, alice_with_mp3s):
        alice, _, community = alice_with_mp3s
        names = {c.name for c in alice.joined_communities()}
        assert {"Community", "MP3 community"} <= names

    def test_statistics_include_memberships(self, alice_with_mp3s):
        alice, _, _ = alice_with_mp3s
        assert alice.statistics()["joined_communities"] == 2
