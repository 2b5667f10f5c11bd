"""Tests for HTML serialization of result trees."""

from repro.xmlkit.dom import Element
from repro.xmlkit.parser import parse
from repro.xslt.html import render_html


class TestRenderHtml:
    def test_void_elements_not_closed(self):
        tree = parse('<div><input type="text" name="title"/><br/></div>').root
        html = render_html([tree])
        assert '<input type="text" name="title">' in html
        assert "<br>" in html
        assert "</input>" not in html and "</br>" not in html

    def test_non_void_empty_elements_get_end_tags(self):
        html = render_html([parse("<div><td></td></div>").root])
        assert "<td></td>" in html

    def test_boolean_attributes_minimized(self):
        element = Element("input", {"type": "text", "disabled": "disabled"})
        html = render_html([element])
        assert " disabled" in html and 'disabled="' not in html

    def test_text_escaping(self):
        element = Element("p", text="a < b & c")
        assert render_html([element]) == "<p>a &lt; b &amp; c</p>"

    def test_mixed_nodes_and_strings(self):
        html = render_html(["hello ", Element("b", text="world")])
        assert html == "hello <b>world</b>"

    def test_nested_structure_with_tails(self):
        tree = parse("<p>a<b>c</b>d</p>").root
        assert render_html([tree]) == "<p>a<b>c</b>d</p>"

    def test_tag_case_lowered(self):
        assert render_html([Element("DIV")]) == "<div></div>"

