"""Tests for the tree-building XML parser."""

import pytest

from repro.xmlkit.errors import XMLParseError
from repro.xmlkit.parser import parse, parse_file


class TestWellFormedDocuments:
    def test_single_root(self):
        document = parse("<community/>")
        assert document.root.tag == "community"
        assert document.root.children == []

    def test_simple_element_text(self):
        assert parse("<a>hello</a>").root.text == "hello"

    def test_nested_children_in_order(self):
        document = parse("<a><b/><c/><d/></a>")
        assert [child.tag for child in document.root.children] == ["b", "c", "d"]

    def test_attributes_double_and_single_quotes(self):
        document = parse("""<e a="1" b='two'/>""")
        assert document.root.attributes == {"a": "1", "b": "two"}

    def test_attribute_order_is_document_order(self):
        document = parse('<e z="1" b="2" a="3"/>')
        assert list(document.root.attributes) == ["z", "b", "a"]

    def test_text_and_tail(self):
        document = parse("<a>before<b/>after</a>")
        assert document.root.text == "before"
        assert document.root.children[0].tail == "after"

    def test_cdata_becomes_text(self):
        document = parse("<code><![CDATA[if (a < b) {}]]></code>")
        assert document.root.text == "if (a < b) {}"

    def test_cdata_is_not_parsed(self):
        assert parse("<a><![CDATA[<not> & parsed]]></a>").root.text == "<not> & parsed"

    def test_declaration_fields(self):
        document = parse('<?xml version="1.1" encoding="ISO-8859-1" standalone="yes"?><a/>')
        assert document.version == "1.1"
        assert document.encoding == "ISO-8859-1"
        assert document.standalone is True

    def test_declaration_defaults(self):
        document = parse('<?xml version="1.0" standalone="no"?><a/>')
        assert (document.version, document.encoding, document.standalone) == ("1.0", "UTF-8", False)
        bare = parse("<a/>")
        assert (bare.version, bare.encoding, bare.standalone) == ("1.0", "UTF-8", None)

    def test_comments_and_pis_ignored(self):
        document = parse("<!-- c --><?pi data?><a><!-- inner --><b/></a>")
        assert [child.tag for child in document.root.children] == ["b"]

    @pytest.mark.parametrize(
        "text",
        [
            '<?xml version="1.0" encoding="UTF-8"?><a/>',
            '<?xml-stylesheet href="a.xsl"?><a/>',
            "<a><!-- a comment --></a>",
            "<!DOCTYPE pattern SYSTEM 'pattern.dtd'><pattern/>",
            "<!DOCTYPE pattern PUBLIC '-//U-P2P//pattern' 'pattern.dtd'><pattern/>",
        ],
    )
    def test_prolog_constructs_accepted(self, text):
        assert parse(text).root.children == []

    def test_parent_links(self):
        document = parse("<a><b><c/></b></a>")
        c = document.root.children[0].children[0]
        assert c.parent.tag == "b"
        assert c.parent.parent.tag == "a"

    def test_whitespace_text_kept_by_default(self):
        document = parse("<a>\n  <b/>\n</a>")
        assert document.root.text == "\n  "
        assert document.root.children[0].tail == "\n"

    def test_whitespace_text_dropped_when_requested(self):
        document = parse("<a>\n  <b/>\n</a>", keep_whitespace_text=False)
        assert document.root.text == ""

    def test_namespace_declarations_resolved(self):
        document = parse(
            '<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"><xsd:element/></xsd:schema>'
        )
        assert document.root.namespace == "http://www.w3.org/2001/XMLSchema"
        assert document.root.children[0].namespace == "http://www.w3.org/2001/XMLSchema"

    def test_default_namespace_inherited(self):
        document = parse('<schema xmlns="urn:x"><element/></schema>')
        assert document.root.children[0].namespace == "urn:x"

    def test_community_schema_from_paper_parses(self, community_schema_xsd):
        document = parse(community_schema_xsd, check_namespaces=False)
        names = [element.get("name") for element in document.root.iter("element")]
        assert "community" in names
        assert "protocol" in names

    def test_parse_file(self, tmp_path):
        path = tmp_path / "object.xml"
        path.write_text("<pattern><name>Observer</name></pattern>", encoding="utf-8")
        document = parse_file(path)
        assert document.root.child_text("name") == "Observer"

    def test_parse_file_passes_options(self, tmp_path):
        path = tmp_path / "schema.xsd"
        path.write_text("<xsd:schema>\n  <xsd:element/>\n</xsd:schema>", encoding="utf-8")
        document = parse_file(path, check_namespaces=False, keep_whitespace_text=False)
        assert document.root.text == ""


class TestElementNames:
    @pytest.mark.parametrize("name", ["community", "xsd:element", "_private", "with-dash", "v1.2"])
    def test_legal_names_accepted(self, name):
        assert parse(f"<{name}/>", check_namespaces=False).root.tag == name

    @pytest.mark.parametrize("name", ["1number", "", "spa ce", "-dash", ".dot"])
    def test_illegal_names_rejected(self, name):
        with pytest.raises(XMLParseError):
            parse(f"<{name}/>", check_namespaces=False)


class TestReferences:
    def test_named_entities_in_text(self):
        document = parse("<a>&lt;tag&gt; &amp; &quot;q&quot; &apos;a&apos;</a>")
        assert document.root.text == "<tag> & \"q\" 'a'"

    def test_numeric_character_references(self):
        assert parse("<a>&#65;&#x42;&#x1F600;</a>").root.text == "AB\U0001F600"

    def test_references_in_attributes(self):
        document = parse('<a title="Tom &amp; Jerry &#65;&#x42;"/>')
        assert document.root.get("title") == "Tom & Jerry AB"

    def test_whitespace_references_in_attributes_survive(self):
        # §3.3.3 replaces raw whitespace, never a character reference.
        document = parse('<a v="x&#10;y&#9;z&#13;"/>')
        assert document.root.get("v") == "x\ny\tz\r"

    @pytest.mark.parametrize(
        "text",
        [
            "<a>&nbsp;</a>",
            '<a x="&nbsp;"/>',
            "<a>fish & chips</a>",
            '<a x="fish & chips"/>',
            "<a>&#0;</a>",
            '<a x="&#0;"/>',
            "<a>&#1;</a>",
            "<a>&#xD800;</a>",
        ],
    )
    def test_bad_reference_rejected(self, text):
        with pytest.raises(XMLParseError):
            parse(text)

    def test_error_points_at_the_offending_reference(self):
        with pytest.raises(XMLParseError) as error:
            parse("<a>\n<b>\n&bad;</b></a>")
        assert (error.value.line, error.value.column) == (3, 1)
        assert "undefined entity" in str(error.value)


class TestXml10Normalisation:
    def test_attribute_whitespace_becomes_spaces(self):
        document = parse('<a v="one\ntwo\tthree\r\nfour"/>')
        assert document.root.get("v") == "one two three four"

    def test_crlf_becomes_lf_in_text(self):
        document = parse("<a>one\r\ntwo\rthree</a>")
        assert document.root.text == "one\ntwo\nthree"

    def test_crlf_in_cdata_becomes_lf(self):
        assert parse("<a><![CDATA[x\r\ny]]></a>").root.text == "x\ny"

    @pytest.mark.parametrize("char", ["\x00", "\x01", "\x0b", "\x1f", "\ufffe", "\ud800"])
    def test_illegal_characters_rejected(self, char):
        with pytest.raises(XMLParseError):
            parse(f"<a>{char}</a>")


class TestWhitespaceRuns:
    """With keep_whitespace_text=False each run is judged on its own."""

    @pytest.mark.parametrize("separator", ["<!-- c -->", "<?pi data?>"])
    def test_comment_or_pi_ends_a_run(self, separator):
        text = f"<a>  {separator}  x</a>"
        assert parse(text, keep_whitespace_text=False).root.text == "  x"
        assert parse(text).root.text == "    x"

    def test_cdata_whitespace_is_always_kept(self):
        document = parse("<a> <![CDATA[ ]]> </a>", keep_whitespace_text=False)
        assert document.root.text == " "

    def test_whitespace_references_count_as_whitespace(self):
        document = parse("<a> &#32;&#10; <b/></a>", keep_whitespace_text=False)
        assert document.root.text == ""

    def test_tails_follow_the_same_rule(self):
        document = parse("<a><b/>\n  <c/> t </a>", keep_whitespace_text=False)
        b, c = document.root.children
        assert (b.tail, c.tail) == ("", " t ")


class TestRefusals:
    """What this parser deliberately does not support is refused loudly."""

    @pytest.mark.parametrize(
        "text",
        [
            "<!DOCTYPE a [<!ENTITY e 'v'>]><a>&e;</a>",
            "<!DOCTYPE a []><a/>",
            "<!DOCTYPE a SYSTEM 'a.dtd' [<!ATTLIST a x CDATA 'd'>]><a/>",
            "<!DOCTYPE a [<!ENTITY x '&#38;x;&#38;x;'>]><a>&x;</a>",
        ],
    )
    def test_internal_subset_refused(self, text):
        with pytest.raises(XMLParseError, match="internal DTD subsets are not supported"):
            parse(text)

    def test_undeclared_entity_refused_despite_external_dtd(self):
        with pytest.raises(XMLParseError, match="undefined entity &foo;"):
            parse("<!DOCTYPE a SYSTEM 'x.dtd'><a>&foo;</a>")

    def test_undeclared_entity_in_attribute_refused_despite_external_dtd(self):
        with pytest.raises(XMLParseError, match="undefined entity"):
            parse("<!DOCTYPE a SYSTEM 'x.dtd'><a><b x='1 > 0' y=\"&foo;\"/></a>")

    def test_predefined_references_accepted_with_external_dtd(self):
        root = parse("<!DOCTYPE a SYSTEM 'x.dtd'><a x='&amp;&#65;' y=\"'&gt;'\">&lt;</a>").root
        assert (root.get("x"), root.get("y"), root.text) == ("&A", "'>'", "<")

    def test_prefixes_checked_not_expanded(self):
        document = parse('<p:a xmlns:p="urn:p" p:x="1"/>')
        assert document.root.tag == "p:a"
        assert document.root.attributes == {"xmlns:p": "urn:p", "p:x": "1"}
        assert document.root.namespace == "urn:p"

    def test_declared_encoding_recorded_not_applied(self):
        document = parse('<?xml version="1.0" encoding="ISO-8859-1"?><a>café €</a>')
        assert document.encoding == "ISO-8859-1"
        assert document.root.text == "café €"


class TestMalformedDocuments:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "   ",
            "<a>",
            "<a></b>",
            "<a><b></a></b>",
            "<a/><b/>",
            "text outside",
            "<a/>trailing text",
            "<a><b></a>",
            "<a><!-- never closed</a>",
            "<a><!-- bad -- comment --></a>",
            "<a><![CDATA[oops</a>",
            "<a>]]></a>",
            "<a name/>",
            "<a name=value/>",
            '<a x="1" x="2"/>',
            '<a x="a<b"/>',
            "<a></a b>",
            "<1abc/>",
            '<?xml encoding="UTF-8"?><a/>',
            '  <?xml version="1.0"?><a/>',
            "<?xml-stylesheet",
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(XMLParseError):
            parse(text)

    def test_undeclared_prefix_rejected(self):
        with pytest.raises(XMLParseError):
            parse("<xsd:schema><a/></xsd:schema>")

    def test_undeclared_prefix_allowed_when_disabled(self):
        document = parse("<xsd:schema><a/></xsd:schema>", check_namespaces=False)
        assert document.root.local_name == "schema"

    def test_undeclared_attribute_prefix_rejected(self):
        with pytest.raises(XMLParseError):
            parse('<a up2p:searchable="true"/>')

    def test_xml_prefix_is_predeclared(self):
        document = parse('<a xml:lang="en"/>')
        assert document.root.get("xml:lang") == "en"

    def test_declaration_not_first_rejected(self):
        with pytest.raises(XMLParseError):
            parse('<a/><?xml version="1.0"?>')

    def test_error_carries_line_and_column(self):
        with pytest.raises(XMLParseError) as error:
            parse("<a>\n  <b></c>\n</a>")
        assert (error.value.line, error.value.column) == (2, 8)
        assert "line 2, column 8" in str(error.value)
