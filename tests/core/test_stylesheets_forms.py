"""Tests for the default stylesheets (Fig. 1 / Fig. 2 pipeline) and forms."""

import re

from repro.core.forms import SearchForm
from repro.core.stylesheets import (
    DEFAULT_CREATE_STYLESHEET,
    DEFAULT_INDEX_FILTER_STYLESHEET,
    DEFAULT_SEARCH_STYLESHEET,
    DEFAULT_VIEW_STYLESHEET,
    StylesheetSet,
)
from repro.communities.design_patterns import (
    PATTERN_INDEX_FILTER_STYLESHEET,
    PATTERN_VIEW_STYLESHEET,
    pattern_stylesheets,
)
from repro.schema.instance import build_instance
from repro.schema.validator import validate
from repro.storage.query import Operator
from repro.xslt.parser import parse_stylesheet_text


def input_names(html, row_class=None):
    """The ``name`` of every ``<input>`` in a rendered form, in order;
    with ``row_class``, only those inside ``<tr class="row_class">``."""
    if row_class is None:
        return re.findall(r'<input type="text" name="([^"]+)"', html)
    return re.findall(rf'<tr class="{row_class}">.*?<input type="text" name="([^"]+)"', html)


class TestDefaultStylesheets:
    """The generative role of XML Schema and XSLT (paper §IV-A)."""

    def test_all_defaults_compile(self):
        for text in (DEFAULT_CREATE_STYLESHEET, DEFAULT_SEARCH_STYLESHEET,
                     DEFAULT_VIEW_STYLESHEET, DEFAULT_INDEX_FILTER_STYLESHEET):
            assert parse_stylesheet_text(text).templates

    def test_create_form_generated_from_schema(self, mp3_xsd):
        html = StylesheetSet().render_create_form(mp3_xsd)
        assert "up2p-create" in html
        assert 'name="title"' in html
        assert 'name="artist"' in html
        assert "Share" in html

    def test_create_form_works_on_any_community_schema(self, community_schema_xsd, pattern_xsd):
        styles = StylesheetSet()
        for xsd in (community_schema_xsd, pattern_xsd):
            html = styles.render_create_form(xsd)
            assert "<form" in html and "input" in html

    def test_search_form_marks_unsearchable_fields_disabled(self, mp3_xsd):
        html = StylesheetSet().render_search_form(mp3_xsd)
        assert 'name="title"' in html
        assert "not-indexed" in html        # bitrate / duration rows
        assert "searchable" in html

    def test_view_renders_all_attributes(self, sample_mp3_xml):
        html = StylesheetSet().render_view(sample_mp3_xml)
        assert "So What" in html and "Miles Davis" in html and "jazz" in html
        assert "<table" in html

    def test_view_handles_nested_objects(self):
        xml = ("<pattern><name>Observer</name>"
               "<solution><structure>subject notifies</structure></solution></pattern>")
        html = StylesheetSet().render_view(xml)
        assert "nested" in html and "subject notifies" in html

    def test_index_filter_extracts_flat_attributes(self, sample_mp3_xml):
        values = StylesheetSet().extract_indexed_attributes(sample_mp3_xml)
        assert values["title"] == ["So What"]
        assert values["artist"] == ["Miles Davis"]

    def test_custom_pattern_view_stylesheet(self, gof_records):
        styles = pattern_stylesheets()
        from repro.schema.instance import build_instance
        from repro.schema.parser import parse_schema_text
        from repro.communities.design_patterns import pattern_schema_xsd
        from repro.xmlkit.serializer import serialize
        schema = parse_schema_text(pattern_schema_xsd())
        instance = build_instance(schema, gof_records[18])  # Observer
        html = styles.render_view(serialize(instance, xml_declaration=False))
        assert "<h1>Observer</h1>" in html
        assert "Participants" in html
        assert "<li>Subject</li>" in html

    def test_custom_index_filter_limits_fields(self, gof_records):
        styles = StylesheetSet(index_filter=PATTERN_INDEX_FILTER_STYLESHEET,
                               view=PATTERN_VIEW_STYLESHEET)
        from repro.schema.instance import build_instance
        from repro.schema.parser import parse_schema_text
        from repro.communities.design_patterns import pattern_schema_xsd
        from repro.xmlkit.serializer import serialize
        schema = parse_schema_text(pattern_schema_xsd())
        instance = build_instance(schema, gof_records[0])
        values = styles.extract_indexed_attributes(serialize(instance, xml_declaration=False))
        assert set(values) <= {"name", "category", "intent", "keywords",
                               "applicability", "consequences"}
        assert "sample_code" not in values


class TestFormFields:
    def test_fields_from_schema(self, mp3_schema):
        by_path = {field.path: field for field in SearchForm.from_schema(mp3_schema).fields}
        genres = {info.path: info.enumeration for info in mp3_schema.fields()}["genre"]
        assert by_path["genre"].options == tuple(genres)
        assert by_path["title"].options == ()


class TestCreateForm:
    """The Create form the default stylesheet generates (paper §IV-C.1)."""

    def test_html_rendering(self, mp3_xsd, mp3_schema):
        html = StylesheetSet().render_create_form(mp3_xsd)
        # one input per schema field, in schema order, each labelled with
        # its declared type (the enumeration's named type for genre)
        assert input_names(html) == [info.path for info in mp3_schema.fields()]
        assert 'name="bitrate" class="xsd:positiveInteger"' in html
        assert 'name="genre" class="genreValues"' in html
        assert html.count('type="submit"') == 1

    def test_submit_builds_valid_instance(self, mp3_xsd, mp3_schema):
        # Every input the generated form offers is a field path the
        # Create function accepts; filling them in gives a valid object.
        html = StylesheetSet().render_create_form(mp3_xsd)
        filled = {
            "title": "Blue in Green", "artist": "Miles Davis", "album": "Kind of Blue",
            "genre": "jazz", "year": "1959", "bitrate": "256", "duration": "337",
            "file": "http://peer.local/audio/blue-in-green.mp3",
        }
        values = {name: filled[name] for name in input_names(html)}
        assert set(values) == set(filled)
        document = build_instance(mp3_schema, values)
        assert validate(mp3_schema, document).is_valid
        assert document.child_text("title") == "Blue in Green"
        assert document.child_text("bitrate") == "256"


class TestSearchForm:
    def test_only_searchable_fields(self, mp3_schema):
        form = SearchForm.from_schema(mp3_schema)
        paths = {field.path for field in form.fields}
        assert paths == {"title", "artist", "album", "genre"}

    def test_submit_builds_query(self, mp3_schema):
        form = SearchForm.from_schema(mp3_schema)
        query = form.submit("mp3s", {"artist": "Miles Davis", "title": ""})
        assert len(query.criteria) == 1
        assert query.criteria[0].field_path == "artist"
        assert query.criteria[0].operator == Operator.CONTAINS

    def test_enumerated_fields_use_equals(self, mp3_schema):
        form = SearchForm.from_schema(mp3_schema)
        query = form.submit("mp3s", {"genre": "jazz"})
        assert query.criteria[0].operator == Operator.EQUALS

    def test_unknown_fields_ignored(self, mp3_schema):
        form = SearchForm.from_schema(mp3_schema)
        query = form.submit("mp3s", {"composer": "Bach"})
        assert query.criteria == []

    def test_keyword_query(self, mp3_schema):
        form = SearchForm.from_schema(mp3_schema)
        query = form.keyword_query("mp3s", "kind of blue")
        assert query.criteria[0].operator == Operator.ANY

    def test_submit_joins_repeated_values_and_strips_blanks(self, mp3_schema):
        form = SearchForm.from_schema(mp3_schema)
        query = form.submit("mp3s", {"title": ["kind", "of", "blue"],
                                     "artist": "  Miles  ", "album": "   "})
        assert [(c.field_path, c.value) for c in query.criteria] == \
            [("title", "kind of blue"), ("artist", "Miles")]
        assert query.community_id == "mp3s"

    def test_html_rendering(self, mp3_xsd, mp3_schema):
        # The stylesheet-rendered form and the programmatic model agree
        # on which fields a search can use.
        html = StylesheetSet().render_search_form(mp3_xsd)
        model = [field.path for field in SearchForm.from_schema(mp3_schema).fields]
        assert "up2p-search" in html
        assert input_names(html, "searchable") == model
        assert set(input_names(html, "not-indexed")) == \
            {info.path for info in mp3_schema.fields()} - set(model)
        assert html.count("disabled") == len(input_names(html, "not-indexed"))
