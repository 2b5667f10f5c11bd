"""Tests for XML serialization."""

import pytest

from repro.xmlkit.dom import Element
from repro.xmlkit.errors import XMLSerializeError
from repro.xmlkit.escape import escape_attribute, escape_text
from repro.xmlkit.parser import parse
from repro.xmlkit.serializer import canonical, pretty, serialize


class TestSerialize:
    def test_roundtrip_simple(self):
        text = "<community><name>mp3 &amp; more</name><protocol>Gnutella</protocol></community>"
        document = parse(text)
        again = parse(serialize(document))
        assert canonical(document) == canonical(again)

    def test_empty_element_self_closes(self):
        assert serialize(Element("br"), xml_declaration=False) == "<br/>"

    def test_declaration_toggle(self):
        element = Element("a")
        assert serialize(element).startswith("<?xml")
        assert not serialize(element, xml_declaration=False).startswith("<?xml")

    def test_attribute_escaping(self):
        element = Element("a", {"title": 'Tom & "Jerry" <3'})
        output = serialize(element, xml_declaration=False)
        assert "&amp;" in output and "&quot;" in output and "&lt;" in output
        assert parse(output).root.get("title") == 'Tom & "Jerry" <3'

    def test_text_escaping_roundtrip(self):
        element = Element("a", text="1 < 2 & 3 > 2")
        assert parse(serialize(element)).root.text == "1 < 2 & 3 > 2"

    def test_illegal_control_character_rejected(self):
        element = Element("a", text="bad \x01 char")
        with pytest.raises(XMLSerializeError):
            serialize(element)


class TestPretty:
    def test_pretty_indents_children(self):
        document = parse("<a><b><c/></b></a>")
        output = pretty(document)
        assert "\n  <b>" in output
        assert "\n    <c/>" in output

    def test_pretty_preserves_inline_text(self):
        document = parse("<a><b>hello world</b></a>")
        output = pretty(document)
        assert "<b>hello world</b>" in output

    def test_pretty_reparses_equal(self, community_schema_xsd):
        document = parse(community_schema_xsd, check_namespaces=False)
        again = parse(pretty(document), check_namespaces=False)
        assert canonical(document) == canonical(again)


class TestCanonical:
    def test_attribute_order_independent(self):
        a = parse('<e b="2" a="1"/>')
        b = parse('<e a="1" b="2"/>')
        assert canonical(a) == canonical(b)

    def test_whitespace_insensitive(self):
        a = parse("<e>\n  <f>x</f>\n</e>")
        b = parse("<e><f>x</f></e>")
        assert canonical(a) == canonical(b)

    def test_content_sensitive(self):
        a = parse("<e><f>x</f></e>")
        b = parse("<e><f>y</f></e>")
        assert canonical(a) != canonical(b)


class TestEscapeHelpers:
    def test_escape_text(self):
        assert escape_text("a<b>&c") == "a&lt;b&gt;&amp;c"

    def test_escape_attribute_newlines(self):
        assert "&#10;" in escape_attribute("line1\nline2")

    def test_carriage_return_written_as_a_reference(self):
        # A raw CR would be read back as LF (XML 1.0 §2.11).
        assert escape_text("a\r\nb\rc") == "a&#13;\nb&#13;c"
        assert escape_attribute("a\r\n\tb") == "a&#13;&#10;&#9;b"
        element = Element("a", {"v": "x\r\ny"}, text="p\r\nq\r")
        again = parse(serialize(element)).root
        assert again.text == "p\r\nq\r"
        assert again.get("v") == "x\r\ny"
