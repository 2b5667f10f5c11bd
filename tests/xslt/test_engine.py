"""Tests for the XSLT transformation engine."""

import pytest

from repro.xmlkit.parser import parse
from repro.xslt.engine import Transformer
from repro.xslt.errors import XSLTParseError, XSLTRuntimeError
from repro.xslt.parser import parse_stylesheet_text

XSL_HEADER = '<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">'


def run(stylesheet_body, source_xml, parameters=None, output="xml"):
    stylesheet = parse_stylesheet_text(
        f'<?xml version="1.0"?>{XSL_HEADER}<xsl:output method="{output}"/>{stylesheet_body}</xsl:stylesheet>'
    )
    source = parse(source_xml, keep_whitespace_text=False)
    return Transformer(stylesheet).transform(source, parameters)


SOURCE = (
    "<community><name>mp3</name><description>songs</description>"
    "<protocol>Gnutella</protocol><keywords>music audio</keywords></community>"
)


class TestBasicInstructions:
    def test_value_of(self):
        result = run('<xsl:template match="/"><out><xsl:value-of select="community/name"/></out></xsl:template>',
                     SOURCE)
        assert result.serialize() == "<out>mp3</out>"

    def test_literal_elements_and_text(self):
        result = run('<xsl:template match="/"><p>static text</p></xsl:template>', SOURCE)
        assert result.serialize() == "<p>static text</p>"

    def test_xsl_text(self):
        result = run('<xsl:template match="/"><out><xsl:text>kept  spaces</xsl:text></out></xsl:template>',
                     SOURCE)
        assert "kept  spaces" in result.serialize()

    def test_attribute_value_template(self):
        result = run('<xsl:template match="/"><div class="{community/protocol}"/></xsl:template>', SOURCE)
        assert result.root.get("class") == "Gnutella"

    def test_escaped_braces_in_avt(self):
        result = run('<xsl:template match="/"><div class="{{literal}}"/></xsl:template>', SOURCE)
        assert result.root.get("class") == "{literal}"

    def test_xsl_element_and_attribute(self):
        result = run(
            '<xsl:template match="/">'
            '<xsl:element name="row"><xsl:attribute name="id">r1</xsl:attribute>x</xsl:element>'
            "</xsl:template>",
            SOURCE,
        )
        assert result.serialize() == '<row id="r1">x</row>'

    def test_dynamic_element_name(self):
        result = run(
            '<xsl:template match="/"><xsl:element name="{community/name}">x</xsl:element></xsl:template>',
            SOURCE,
        )
        assert result.root.tag == "mp3"

    def test_copy_of_deep_copies(self):
        result = run('<xsl:template match="/"><wrap><xsl:copy-of select="community/name"/></wrap></xsl:template>',
                     SOURCE)
        assert result.serialize() == "<wrap><name>mp3</name></wrap>"

    def test_for_each(self):
        result = run(
            '<xsl:template match="/"><list><xsl:for-each select="community/*">'
            '<item><xsl:value-of select="name()"/></item></xsl:for-each></list></xsl:template>',
            SOURCE,
        )
        assert result.serialize() == (
            "<list><item>name</item><item>description</item>"
            "<item>protocol</item><item>keywords</item></list>"
        )

    def test_for_each_with_sort(self):
        result = run(
            '<xsl:template match="/"><list><xsl:for-each select="community/*">'
            '<xsl:sort select="name()"/>'
            '<i><xsl:value-of select="name()"/></i></xsl:for-each></list></xsl:template>',
            SOURCE,
        )
        names = [child.text for child in result.root.children]
        assert names == sorted(names)

    def test_if_and_choose(self):
        body = (
            '<xsl:template match="/"><out>'
            '<xsl:if test="community/protocol = \'Gnutella\'"><yes/></xsl:if>'
            "<xsl:choose>"
            '<xsl:when test="count(community/*) &gt; 10"><many/></xsl:when>'
            "<xsl:otherwise><few/></xsl:otherwise>"
            "</xsl:choose></out></xsl:template>"
        )
        result = run(body, SOURCE)
        assert result.serialize() == "<out><yes/><few/></out>"

    def test_variable(self):
        body = (
            '<xsl:template match="/">'
            '<xsl:variable name="proto" select="community/protocol"/>'
            '<out><xsl:value-of select="$proto"/></out></xsl:template>'
        )
        assert run(body, SOURCE).serialize() == "<out>Gnutella</out>"


class TestTemplates:
    def test_apply_templates_with_match_rules(self):
        body = (
            '<xsl:template match="/"><doc><xsl:apply-templates select="community/*"/></doc></xsl:template>'
            '<xsl:template match="name"><title><xsl:value-of select="."/></title></xsl:template>'
            '<xsl:template match="*"><other name="{name()}"/></xsl:template>'
        )
        result = run(body, SOURCE)
        xml = result.serialize()
        assert "<title>mp3</title>" in xml
        assert xml.count("<other") == 3

    def test_priority_overrides_default(self):
        body = (
            '<xsl:template match="/"><doc><xsl:apply-templates select="community/name"/></doc></xsl:template>'
            '<xsl:template match="name" priority="2"><high/></xsl:template>'
            '<xsl:template match="community/name"><specific/></xsl:template>'
        )
        assert "<high/>" in run(body, SOURCE).serialize()

    def test_more_specific_pattern_wins_by_default(self):
        body = (
            '<xsl:template match="/"><doc><xsl:apply-templates select="community/name"/></doc></xsl:template>'
            '<xsl:template match="name"><generic/></xsl:template>'
            '<xsl:template match="community/name"><specific/></xsl:template>'
        )
        assert "<specific/>" in run(body, SOURCE).serialize()

    def test_builtin_rules_recurse_to_text(self):
        body = '<xsl:template match="name"><got><xsl:value-of select="."/></got></xsl:template>'
        result = run(body, SOURCE)
        text = result.serialize()
        # Built-in rules copy the text of unmatched elements and apply the
        # explicit rule for <name>.
        assert "<got>mp3</got>" in text
        assert "songs" in text

    def test_named_template_with_params(self):
        body = (
            '<xsl:template match="/"><out>'
            '<xsl:call-template name="greet"><xsl:with-param name="who" select="community/name"/></xsl:call-template>'
            "</out></xsl:template>"
            '<xsl:template name="greet"><xsl:param name="who"/><hello to="{$who}"/></xsl:template>'
        )
        assert run(body, SOURCE).serialize() == '<out><hello to="mp3"/></out>'

    def test_call_template_unknown_name_raises(self):
        body = '<xsl:template match="/"><xsl:call-template name="nope"/></xsl:template>'
        with pytest.raises(XSLTRuntimeError):
            run(body, SOURCE)

    def test_apply_templates_default_select(self):
        body = (
            '<xsl:template match="community"><c><xsl:apply-templates/></c></xsl:template>'
            '<xsl:template match="*"><f/></xsl:template>'
        )
        result = run(body, SOURCE)
        assert result.serialize() == "<c><f/><f/><f/><f/></c>"

    def test_modes(self):
        body = (
            '<xsl:template match="/"><out>'
            '<xsl:apply-templates select="community/name" mode="loud"/>'
            '<xsl:apply-templates select="community/name"/>'
            "</out></xsl:template>"
            '<xsl:template match="name" mode="loud"><LOUD/></xsl:template>'
            '<xsl:template match="name"><quiet/></xsl:template>'
        )
        assert run(body, SOURCE).serialize() == "<out><LOUD/><quiet/></out>"

    def test_recursion_limit(self):
        body = (
            '<xsl:template match="/"><xsl:call-template name="loop"/></xsl:template>'
            '<xsl:template name="loop"><xsl:call-template name="loop"/></xsl:template>'
        )
        with pytest.raises(XSLTRuntimeError):
            run(body, SOURCE)


class TestOutputMethods:
    def test_html_output(self):
        body = '<xsl:template match="/"><html><body><br/><p>x</p></body></html></xsl:template>'
        html = run(body, SOURCE, output="html").serialize()
        assert "<br>" in html and "</p>" in html

    def test_text_output(self):
        body = '<xsl:template match="/"><xsl:value-of select="community/name"/></xsl:template>'
        assert run(body, SOURCE, output="text").serialize() == "mp3"

    def test_global_params_passed_at_runtime(self):
        stylesheet = parse_stylesheet_text(
            f'{XSL_HEADER}<xsl:param name="greeting" select="\'hi\'"/>'
            '<xsl:template match="/"><out><xsl:value-of select="$greeting"/></out></xsl:template>'
            "</xsl:stylesheet>"
        )
        source = parse(SOURCE)
        assert Transformer(stylesheet).transform(source).serialize() == "<out>hi</out>"
        assert Transformer(stylesheet).transform(source, {"greeting": "bonjour"}).serialize() == "<out>bonjour</out>"

    def test_source_tree_not_mutated(self):
        source = parse(SOURCE)
        stylesheet = parse_stylesheet_text(
            f'{XSL_HEADER}<xsl:template match="/"><x/></xsl:template></xsl:stylesheet>'
        )
        Transformer(stylesheet).transform(source)
        assert source.root.parent is None


class TestStylesheetParsing:
    def test_template_requires_match_or_name(self):
        with pytest.raises(XSLTParseError):
            parse_stylesheet_text(f"{XSL_HEADER}<xsl:template><x/></xsl:template></xsl:stylesheet>")

    def test_rejects_non_stylesheet_root(self):
        with pytest.raises(XSLTParseError):
            parse_stylesheet_text("<community/>")

    def test_rejects_import(self):
        with pytest.raises(XSLTParseError):
            parse_stylesheet_text(
                f'{XSL_HEADER}<xsl:import href="other.xsl"/>'
                '<xsl:template match="/"/></xsl:stylesheet>'
            )

    def test_requires_at_least_one_template(self):
        with pytest.raises(XSLTParseError):
            parse_stylesheet_text(f"{XSL_HEADER}<xsl:output method='html'/></xsl:stylesheet>")

    def test_transform_alias_for_stylesheet(self):
        stylesheet = parse_stylesheet_text(
            '<xsl:transform xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">'
            '<xsl:template match="/"><x/></xsl:template></xsl:transform>'
        )
        assert len(stylesheet.templates) == 1

    def test_unsupported_instruction_raises_at_runtime(self):
        body = '<xsl:template match="/"><xsl:key name="k" match="x" use="y"/></xsl:template>'
        with pytest.raises(XSLTRuntimeError):
            run(body, SOURCE)
