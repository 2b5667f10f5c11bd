"""Tests for the community registry and the shared file space."""

import pytest

from repro.core.community import Community, CommunityDescriptor, ROOT_COMMUNITY_ID
from repro.core.errors import NotAMemberError
from repro.core.filespace import FileSpace, filespace_for
from repro.core.registry import CommunityRegistry
from repro.communities.mp3 import mp3_schema_xsd
from repro.network.centralized import CentralizedProtocol


def make_community(name="MP3s"):
    return Community(CommunityDescriptor(name=name), mp3_schema_xsd())


class TestRegistry:
    def test_root_joined_by_default(self):
        registry = CommunityRegistry()
        assert registry.is_joined(ROOT_COMMUNITY_ID)
        assert registry.root.name == "Community"
        assert len(registry) == 1

    def test_join(self):
        registry = CommunityRegistry()
        community = make_community()
        registry.join(community)
        assert registry.is_joined(community.community_id)
        assert registry.known[community.community_id] is community

    def test_require_joined(self):
        registry = CommunityRegistry()
        community = make_community()
        registry.register(community)
        with pytest.raises(NotAMemberError) as error:
            registry.require_joined(community.community_id)
        assert "not a member" in str(error.value)
        registry.join(community)
        assert registry.require_joined(community.community_id) is community

    def test_require_joined_unknown_community(self):
        with pytest.raises(NotAMemberError):
            CommunityRegistry().require_joined("community-doesnotexist")

    def test_register_records_without_joining(self):
        registry = CommunityRegistry()
        community = make_community("Design Patterns")
        assert registry.register(community) is community
        assert registry.known[community.community_id] is community
        assert not registry.is_joined(community.community_id)
        assert len(registry) == 1
        with pytest.raises(NotAMemberError, match="known but not joined: 'Design Patterns'"):
            registry.require_joined(community.community_id)

    def test_iterates_joined_communities_in_join_order(self):
        registry = CommunityRegistry()
        first = registry.join(make_community("B community"))
        second = registry.join(make_community("A community"))
        registry.register(make_community("C community"))   # known only
        assert list(registry) == [registry.root, first, second]
        assert len(registry) == 3


class TestFileSpace:
    def test_put_get(self):
        space = FileSpace()
        space.put("up2p:mp3/schema.xsd", "<schema/>")
        assert space.get("up2p:mp3/schema.xsd") == "<schema/>"
        assert len(space) == 1
        assert space.fetches == 1

    def test_get_missing_returns_none(self):
        assert FileSpace().get("up2p:none") is None

    def test_empty_uri_rejected(self):
        with pytest.raises(ValueError):
            FileSpace().put("  ", "x")

    def test_filespace_shared_per_network(self):
        network = CentralizedProtocol()
        space_a = filespace_for(network)
        space_b = filespace_for(network)
        assert space_a is space_b
        other = filespace_for(CentralizedProtocol())
        assert other is not space_a
