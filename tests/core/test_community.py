"""Tests for communities, descriptors and the Fig. 3 bootstrap schema."""

import dataclasses

import pytest

from repro.core.community import (
    COMMUNITY_SCHEMA_XSD,
    Community,
    CommunityDescriptor,
    KNOWN_PROTOCOLS,
    ROOT_COMMUNITY_ID,
    community_schema,
    derive_community_id,
    root_community,
)
from repro.core.errors import CommunityError
from repro.core.resource import Resource
from repro.schema.validator import validate


class TestBootstrapSchema:
    """The reproduction of paper Fig. 3."""

    def test_fields_match_figure_3(self):
        schema = community_schema()
        assert [info.path for info in schema.fields()] == [
            "name", "description", "keywords", "category", "security",
            "protocol", "schema", "displaystyle", "createstyle", "searchstyle",
        ]

    def test_protocol_enumeration_matches_figure_3(self):
        schema = community_schema()
        assert schema.field_by_path("protocol").enumeration == list(KNOWN_PROTOCOLS)

    def test_community_objects_validate(self):
        descriptor = CommunityDescriptor(name="MP3s", protocol="Gnutella",
                                         schema_uri="http://x/mp3.xsd")
        report = validate(community_schema(), descriptor.to_xml())
        assert report.is_valid

    def test_schema_text_is_verbatim_xsd(self):
        assert '<enumeration value="Napster"/>' in COMMUNITY_SCHEMA_XSD
        assert '<element name="displaystyle" type="xsd:anyURI"/>' in COMMUNITY_SCHEMA_XSD


class TestCommunityDescriptor:
    def test_requires_name(self):
        with pytest.raises(CommunityError):
            CommunityDescriptor(name="   ")

    def test_rejects_unknown_protocol(self):
        with pytest.raises(CommunityError):
            CommunityDescriptor(name="x", protocol="Freenet")

    def test_xml_roundtrip(self):
        descriptor = CommunityDescriptor(
            name="Design Patterns", description="GoF and more", keywords="patterns gof",
            category="software", security="none", protocol="Gnutella",
            schema_uri="up2p:patterns/schema.xsd", displaystyle="up2p:patterns/view.xsl",
        )
        again = CommunityDescriptor.from_xml_text(descriptor.to_xml_text())
        assert again == descriptor

    def test_from_xml_rejects_wrong_root(self):
        with pytest.raises(CommunityError):
            CommunityDescriptor.from_xml_text("<group><name>x</name></group>")


class TestCommunity:
    def test_community_id_stable(self, mp3_xsd):
        assert derive_community_id("MP3s", mp3_xsd) == derive_community_id("MP3s", mp3_xsd)
        assert derive_community_id("MP3s", mp3_xsd) != derive_community_id("Other", mp3_xsd)

    def test_community_id_ignores_whitespace_differences(self, mp3_xsd):
        assert derive_community_id("MP3s", mp3_xsd) == derive_community_id("MP3s", mp3_xsd.replace("\n", " \n "))

    def test_community_parses_its_schema(self, mp3_xsd):
        community = Community(CommunityDescriptor(name="MP3s"), mp3_xsd)
        assert community.root_element_name == "mp3"
        assert "title" in community.searchable_field_paths()

    def test_bad_schema_rejected(self):
        with pytest.raises(CommunityError):
            Community(CommunityDescriptor(name="broken"), "<not-a-schema/>")

    def test_validate_object(self, mp3_xsd, sample_mp3_document):
        community = Community(CommunityDescriptor(name="MP3s"), mp3_xsd)
        assert community.validate_object(sample_mp3_document).is_valid

    def test_extract_metadata_searchable_only(self, mp3_xsd, sample_mp3_xml):
        community = Community(CommunityDescriptor(name="MP3s"), mp3_xsd)
        resource = Resource.from_xml_text(community.community_id, sample_mp3_xml)
        metadata = community.extract_metadata(resource)
        assert "title" in metadata and "artist" in metadata
        assert "bitrate" not in metadata          # not marked searchable
        assert metadata["__attachments__"] == ["http://peer.local/audio/so-what.mp3"]

    def test_index_filter_fields_override(self, mp3_xsd, sample_mp3_xml):
        community = Community(CommunityDescriptor(name="MP3s"), mp3_xsd,
                              index_filter_fields=("title", "bitrate"))
        resource = Resource.from_xml_text(community.community_id, sample_mp3_xml)
        metadata = community.extract_metadata(resource)
        assert set(metadata) == {"title", "bitrate", "__attachments__"}

    def test_to_resource_and_back(self, mp3_xsd):
        descriptor = CommunityDescriptor(name="MP3s", schema_uri="up2p:mp3.xsd", protocol="Napster")
        community = Community(descriptor, mp3_xsd)
        resource = community.to_resource()
        assert resource.community_id == ROOT_COMMUNITY_ID
        assert resource.title == "MP3s"
        rebuilt = Community(CommunityDescriptor.from_xml(resource.document), mp3_xsd)
        assert rebuilt.descriptor == descriptor
        assert rebuilt.community_id == community.community_id

    def test_with_descriptor(self, mp3_xsd):
        """Narrowing (paper §IV-A): the same schema under a narrower
        descriptor is a community of its own that shares the parsed
        schema with the broad one."""
        community = Community(CommunityDescriptor(name="MP3s"), mp3_xsd)
        narrowed = Community(
            dataclasses.replace(community.descriptor, name="MP3s: Miles Davis",
                                description="only Miles Davis"),
            community.schema_xsd)
        assert narrowed.descriptor.description == "only Miles Davis"
        assert community.descriptor.description == ""
        assert narrowed.community_id != community.community_id
        assert narrowed.schema is community.schema
        assert narrowed.searchable_field_paths() == community.searchable_field_paths()


class TestRootCommunity:
    def test_root_community_shares_community_objects(self):
        root = root_community()
        assert root.community_id == ROOT_COMMUNITY_ID
        assert root.root_element_name == "community"

    def test_metaclass_move_community_object_of_root_validates(self):
        """A community object is itself a valid object of the root community —
        the paper's metaclass analogy."""
        root = root_community()
        mp3_community_object = CommunityDescriptor(
            name="MP3s", protocol="Gnutella", schema_uri="up2p:mp3.xsd"
        ).to_xml()
        assert root.validate_object(mp3_community_object).is_valid

    def test_root_community_searchable_fields_include_keywords(self):
        root = root_community()
        assert "keywords" in root.searchable_field_paths()
        assert "name" in root.searchable_field_paths()
