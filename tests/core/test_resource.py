"""Tests for shared resources and metadata extraction."""

from repro.core.resource import Resource
from repro.schema.parser import parse_schema_text


class TestResource:
    def test_resource_id_content_addressed(self, sample_mp3_xml):
        a = Resource.from_xml_text("mp3s", sample_mp3_xml)
        b = Resource.from_xml_text("mp3s", sample_mp3_xml)
        c = Resource.from_xml_text("mp3s", sample_mp3_xml.replace("So What", "Freddie Freeloader"))
        assert a.resource_id == b.resource_id
        assert a.resource_id != c.resource_id

    def test_resource_id_community_scoped(self, sample_mp3_xml):
        a = Resource.from_xml_text("mp3s", sample_mp3_xml)
        b = Resource.from_xml_text("other", sample_mp3_xml)
        assert a.resource_id != b.resource_id

    def test_metadata_searchable_only(self, mp3_schema, sample_mp3_xml):
        resource = Resource.from_xml_text("mp3s", sample_mp3_xml)
        metadata = resource.metadata(mp3_schema)
        assert metadata["title"] == ["So What"]
        assert metadata["genre"] == ["jazz"]
        assert "duration" not in metadata

    def test_metadata_all_fields(self, mp3_schema, sample_mp3_xml):
        resource = Resource.from_xml_text("mp3s", sample_mp3_xml)
        metadata = resource.metadata(mp3_schema, searchable_only=False)
        assert "duration" in metadata and "bitrate" in metadata

    def test_attachments_from_schema_fields(self, mp3_schema, sample_mp3_xml):
        resource = Resource.from_xml_text("mp3s", sample_mp3_xml)
        metadata = resource.metadata(mp3_schema)
        assert metadata["__attachments__"] == ["http://peer.local/audio/so-what.mp3"]

    def test_explicit_attachments_merged(self, mp3_schema, sample_mp3_xml):
        resource = Resource.from_xml_text("mp3s", sample_mp3_xml,
                                          attachments=("http://peer.local/cover.jpg",))
        metadata = resource.metadata(mp3_schema)
        assert set(metadata["__attachments__"]) == {
            "http://peer.local/audio/so-what.mp3", "http://peer.local/cover.jpg",
        }

    def test_nested_field_extraction(self, pattern_schema):
        xml = ("<pattern><name>Observer</name><category>behavioral</category>"
               "<intent>notify</intent><keywords>gof</keywords>"
               "<solution><structure>subject list</structure>"
               "<participants>Subject</participants><participants>Observer</participants></solution>"
               "</pattern>")
        resource = Resource.from_xml_text("patterns", xml)
        metadata = resource.metadata(pattern_schema, searchable_only=False)
        assert metadata["solution/participants"] == ["Subject", "Observer"]

    def test_display_title_prefers_explicit(self, mp3_schema, sample_mp3_xml):
        resource = Resource.from_xml_text("mp3s", sample_mp3_xml, title="My Song")
        assert resource.display_title(mp3_schema) == "My Song"

    def test_display_title_falls_back_to_first_field(self, mp3_schema, sample_mp3_xml):
        resource = Resource.from_xml_text("mp3s", sample_mp3_xml)
        assert resource.display_title(mp3_schema) == "So What"

    def test_to_xml_text(self, sample_mp3_xml):
        resource = Resource.from_xml_text("mp3s", sample_mp3_xml)
        assert "<mp3>" in resource.to_xml_text()

    def test_pretty_serialization(self, sample_mp3_xml):
        resource = Resource.from_xml_text("mp3s", sample_mp3_xml)
        assert "\n" in resource.to_xml_text(pretty_print=True)

    def test_metadata_with_unmarked_schema_uses_all_fields(self):
        schema = parse_schema_text("""
        <schema xmlns="http://www.w3.org/2001/XMLSchema">
          <element name="note">
            <complexType><sequence>
              <element name="subject" type="xsd:string"/>
              <element name="body" type="xsd:string"/>
            </sequence></complexType>
          </element>
        </schema>
        """)
        resource = Resource.from_xml_text("notes", "<note><subject>hi</subject><body>text</body></note>")
        metadata = resource.metadata(schema)
        assert set(metadata) == {"subject", "body"}
