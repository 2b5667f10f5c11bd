"""Tests for parsing XSD documents into the component model."""

import pytest

from repro.schema.errors import SchemaParseError
from repro.schema.parser import parse_schema, parse_schema_text
from repro.xmlkit.parser import parse


class TestCommunitySchema:
    """The verbatim Fig. 3 schema must parse into the expected model."""

    def test_root_element(self, community_schema_xsd):
        schema = parse_schema_text(community_schema_xsd)
        assert schema.root_element().name == "community"

    def test_all_ten_fields_in_order(self, community_schema_xsd):
        schema = parse_schema_text(community_schema_xsd)
        assert [info.path for info in schema.fields()] == [
            "name", "description", "keywords", "category", "security",
            "protocol", "schema", "displaystyle", "createstyle", "searchstyle",
        ]

    def test_protocol_enumeration(self, community_schema_xsd):
        schema = parse_schema_text(community_schema_xsd)
        protocol = schema.field_by_path("protocol")
        assert protocol.enumeration == ["", "Napster", "Gnutella", "FastTrack"]

    def test_anyuri_fields(self, community_schema_xsd):
        schema = parse_schema_text(community_schema_xsd)
        for path in ("schema", "displaystyle", "createstyle", "searchstyle"):
            assert schema.field_by_path(path).type_name in ("anyURI", "xsd:anyURI")

    def test_named_simple_type_registered(self, community_schema_xsd):
        schema = parse_schema_text(community_schema_xsd)
        assert "protocolTypes" in schema.simple_types
        assert schema.simple_types["protocolTypes"].base in ("string", "xsd:string")


class TestGeneralParsing:
    def test_searchable_and_attachment_annotations(self):
        schema = parse_schema_text("""
        <schema xmlns="http://www.w3.org/2001/XMLSchema"
                xmlns:up2p="http://up2p.repro/extensions">
          <element name="mp3">
            <complexType>
              <sequence>
                <element name="title" type="xsd:string" up2p:searchable="true"/>
                <element name="file" type="xsd:anyURI" up2p:attachment="true" minOccurs="0"/>
              </sequence>
            </complexType>
          </element>
        </schema>
        """)
        fields = {info.path: info for info in schema.fields()}
        assert fields["title"].searchable
        assert not fields["file"].searchable
        assert fields["file"].attachment
        assert fields["file"].optional

    def test_named_complex_type_reference(self):
        schema = parse_schema_text("""
        <schema xmlns="http://www.w3.org/2001/XMLSchema">
          <element name="entry" type="entryType"/>
          <complexType name="entryType">
            <sequence>
              <element name="key" type="xsd:string"/>
              <element name="value" type="xsd:string"/>
            </sequence>
          </complexType>
        </schema>
        """)
        assert [info.path for info in schema.fields()] == ["key", "value"]

    def test_choice_group(self):
        schema = parse_schema_text("""
        <schema xmlns="http://www.w3.org/2001/XMLSchema">
          <element name="contact">
            <complexType>
              <choice>
                <element name="email" type="xsd:string"/>
                <element name="phone" type="xsd:string"/>
              </choice>
            </complexType>
          </element>
        </schema>
        """)
        root_type = schema.resolve_complex_type(schema.root_element())
        assert root_type.particle.kind == "choice"

    def test_attributes_parsed(self):
        schema = parse_schema_text("""
        <schema xmlns="http://www.w3.org/2001/XMLSchema">
          <element name="atom">
            <complexType>
              <sequence>
                <element name="symbol" type="xsd:string"/>
              </sequence>
              <attribute name="id" type="xsd:ID" use="required"/>
              <attribute name="charge" type="xsd:integer" default="0"/>
            </complexType>
          </element>
        </schema>
        """)
        root_type = schema.resolve_complex_type(schema.root_element())
        assert root_type.attribute("id").required
        assert root_type.attribute("charge").default == "0"

    def test_documentation_captured(self):
        schema = parse_schema_text("""
        <schema xmlns="http://www.w3.org/2001/XMLSchema">
          <element name="pattern">
            <complexType>
              <sequence>
                <element name="intent" type="xsd:string">
                  <annotation><documentation>What the pattern is for</documentation></annotation>
                </element>
              </sequence>
            </complexType>
          </element>
        </schema>
        """)
        assert schema.fields()[0].documentation == "What the pattern is for"

    def test_facets_parsed(self):
        schema = parse_schema_text("""
        <schema xmlns="http://www.w3.org/2001/XMLSchema">
          <element name="song">
            <complexType>
              <sequence>
                <element name="bitrate" type="bitrateType"/>
              </sequence>
            </complexType>
          </element>
          <simpleType name="bitrateType">
            <restriction base="xsd:integer">
              <minInclusive value="32"/>
              <maxInclusive value="320"/>
            </restriction>
          </simpleType>
        </schema>
        """)
        simple = schema.simple_types["bitrateType"]
        assert simple.facets.min_inclusive == 32
        assert simple.facets.max_inclusive == 320


    def test_parse_schema_from_a_parsed_document(self, community_schema_xsd):
        document = parse(community_schema_xsd, check_namespaces=False,
                         keep_whitespace_text=False)
        from_text = parse_schema_text(community_schema_xsd)
        for source in (document, document.root):
            schema = parse_schema(source)
            assert schema.root_element().name == "community"
            assert schema.fields() == from_text.fields()


class TestParseErrors:
    def test_not_a_schema_document(self):
        with pytest.raises(SchemaParseError):
            parse_schema_text("<community><name>x</name></community>")

    def test_not_well_formed(self):
        with pytest.raises(SchemaParseError):
            parse_schema_text("<schema><element name='a'>")

    def test_no_global_elements(self):
        with pytest.raises(SchemaParseError):
            parse_schema_text('<schema xmlns="http://www.w3.org/2001/XMLSchema"/>')

    def test_element_without_name(self):
        with pytest.raises(SchemaParseError):
            parse_schema_text("""
            <schema xmlns="http://www.w3.org/2001/XMLSchema">
              <element type="xsd:string"/>
            </schema>
            """)

    def test_element_with_both_type_and_inline(self):
        with pytest.raises(SchemaParseError):
            parse_schema_text("""
            <schema xmlns="http://www.w3.org/2001/XMLSchema">
              <element name="x" type="xsd:string">
                <complexType><sequence/></complexType>
              </element>
            </schema>
            """)

    def test_unsupported_top_level_construct(self):
        with pytest.raises(SchemaParseError):
            parse_schema_text("""
            <schema xmlns="http://www.w3.org/2001/XMLSchema">
              <element name="a" type="xsd:string"/>
              <group name="g"/>
            </schema>
            """)

    def test_unsupported_facet(self):
        with pytest.raises(SchemaParseError):
            parse_schema_text("""
            <schema xmlns="http://www.w3.org/2001/XMLSchema">
              <element name="a" type="t"/>
              <simpleType name="t">
                <restriction base="xsd:decimal">
                  <totalDigits value="4"/>
                </restriction>
              </simpleType>
            </schema>
            """)
