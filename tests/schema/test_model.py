"""Tests for the schema component model."""

import pytest

from repro.schema.errors import SchemaError
from repro.schema.model import (
    ComplexType,
    ElementDeclaration,
    Facets,
    Occurrence,
    Particle,
    Schema,
    SimpleType,
)


class TestOccurrence:
    def test_defaults(self):
        occurrence = Occurrence()
        assert occurrence.allows(1)
        assert not occurrence.allows(0)
        assert not occurrence.allows(2)

    def test_optional(self):
        occurrence = Occurrence.parse("0", "1")
        assert occurrence.is_optional
        assert occurrence.allows(0)
        assert occurrence.allows(1)

    def test_unbounded(self):
        occurrence = Occurrence.parse("1", "unbounded")
        assert occurrence.is_repeated
        assert occurrence.allows(500)
        assert not occurrence.allows(0)

    def test_explicit_range(self):
        occurrence = Occurrence.parse("2", "4")
        assert not occurrence.allows(1)
        assert occurrence.allows(3)
        assert not occurrence.allows(5)

    def test_invalid_range_rejected(self):
        with pytest.raises(SchemaError):
            Occurrence.parse("3", "2")

    def test_defaults_from_missing_attributes(self):
        assert Occurrence.parse(None, None) == Occurrence(1, 1)
        assert Occurrence.parse("", "") == Occurrence(1, 1)


class TestFacets:
    def test_enumeration(self):
        facets = Facets(enumeration=["Napster", "Gnutella", "FastTrack", ""])
        assert facets.problems("Gnutella") == []
        assert facets.problems("") == []
        assert facets.problems("Freenet")

    def test_pattern(self):
        facets = Facets(pattern=r"[A-Z]{3}-\d+")
        assert facets.problems("ABC-42") == []
        assert facets.problems("abc-42")

    def test_length_bounds(self):
        facets = Facets(min_length=2, max_length=4)
        assert facets.problems("abc") == []
        assert facets.problems("a")
        assert facets.problems("abcde")

    def test_exact_length(self):
        facets = Facets(length=3)
        assert facets.problems("abc") == []
        assert facets.problems("ab")

    def test_numeric_bounds(self):
        facets = Facets(min_inclusive=0, max_inclusive=100)
        assert facets.problems("50") == []
        assert facets.problems("-1")
        assert facets.problems("101")
        assert facets.problems("not-a-number")

    def test_exclusive_bounds(self):
        facets = Facets(min_exclusive=0, max_exclusive=10)
        assert facets.problems("5") == []
        assert facets.problems("0")
        assert facets.problems("10")

    def test_is_empty(self):
        assert Facets().is_empty()
        assert not Facets(enumeration=["a"]).is_empty()


class TestSimpleType:
    def test_builtin_base(self):
        simple = SimpleType(name="year", base="integer", facets=Facets(min_inclusive=1900))
        assert simple.problems("1999") == []
        assert simple.problems("abc")
        assert simple.problems("1850")

    def test_chained_base_through_schema(self):
        schema = Schema()
        schema.add_simple_type(SimpleType(name="shortString", base="string",
                                          facets=Facets(max_length=5)))
        derived = SimpleType(name="code", base="shortString", facets=Facets(pattern="[a-z]+"))
        assert derived.problems("abc", schema) == []
        assert derived.problems("toolongvalue", schema)
        assert derived.problems("ABC", schema)


def build_pattern_schema() -> Schema:
    """A small hand-built schema used by the model tests."""
    schema = Schema()
    schema.add_simple_type(SimpleType(name="categoryType", base="string",
                                      facets=Facets(enumeration=["creational", "structural", "behavioral"])))
    solution = ElementDeclaration(
        name="solution",
        complex_type=ComplexType(name=None, particle=Particle(items=[
            ElementDeclaration(name="structure"),
            ElementDeclaration(name="participants", occurrence=Occurrence(1, None)),
        ])),
    )
    root_type = ComplexType(name=None, particle=Particle(items=[
        ElementDeclaration(name="name", type_name="xsd:string", searchable=True),
        ElementDeclaration(name="category", type_name="categoryType", searchable=True),
        ElementDeclaration(name="intent", type_name="xsd:string", searchable=True),
        solution,
        ElementDeclaration(name="diagram", type_name="xsd:anyURI", attachment=True,
                           occurrence=Occurrence(0, 1)),
    ]))
    schema.add_element(ElementDeclaration(name="pattern", complex_type=root_type))
    return schema


class TestSchema:
    def test_root_element(self):
        schema = build_pattern_schema()
        assert schema.root_element().name == "pattern"

    def test_empty_schema_has_no_root(self):
        with pytest.raises(SchemaError):
            Schema().root_element()

    def test_duplicate_registrations_rejected(self):
        schema = build_pattern_schema()
        with pytest.raises(SchemaError):
            schema.add_element(ElementDeclaration(name="pattern"))
        with pytest.raises(SchemaError):
            schema.add_simple_type(SimpleType(name="categoryType", base="string"))

    def test_fields_flatten_nested_groups(self):
        schema = build_pattern_schema()
        paths = [info.path for info in schema.fields()]
        assert paths == ["name", "category", "intent", "solution/structure",
                         "solution/participants", "diagram"]

    def test_field_flags(self):
        schema = build_pattern_schema()
        by_path = {info.path: info for info in schema.fields()}
        assert by_path["name"].searchable
        assert by_path["diagram"].attachment
        assert by_path["diagram"].optional
        assert by_path["solution/participants"].repeated
        assert by_path["category"].enumeration == ["creational", "structural", "behavioral"]

    def test_fields_memo_sees_later_additions(self):
        schema = Schema()
        schema.add_element(ElementDeclaration(name="note", type_name="noteType"))
        first = schema.fields()
        assert [info.path for info in first] == ["note"]    # type not defined yet: a leaf
        schema.add_complex_type(ComplexType(name="noteType", particle=Particle(items=[
            ElementDeclaration(name="body"),
            ElementDeclaration(name="mood", type_name="moodType"),
        ])))
        assert [info.path for info in schema.fields()] == ["body", "mood"]
        assert schema.field_by_path("mood").enumeration == []
        schema.add_simple_type(SimpleType(name="moodType", base="string",
                                          facets=Facets(enumeration=["calm", "cross"])))
        assert schema.field_by_path("mood").enumeration == ["calm", "cross"]
        assert [info.path for info in first] == ["note"]    # an earlier answer is not rewritten

    def test_fields_returns_a_fresh_list_per_call(self):
        schema = build_pattern_schema()
        first = schema.fields()
        first.clear()
        assert len(schema.fields()) == 6
        assert schema.fields() == schema.fields(schema.root_element())

    def test_searchable_fields_subset(self):
        schema = build_pattern_schema()
        assert [info.path for info in schema.searchable_fields()] == ["name", "category", "intent"]

    def test_searchable_fallback_when_nothing_marked(self):
        schema = Schema()
        schema.add_element(ElementDeclaration(
            name="note",
            complex_type=ComplexType(name=None, particle=Particle(items=[
                ElementDeclaration(name="body"),
            ])),
        ))
        assert [info.path for info in schema.searchable_fields()] == ["body"]

    def test_attachment_fields(self):
        schema = build_pattern_schema()
        assert [info.path for info in schema.attachment_fields()] == ["diagram"]

    def test_field_by_path(self):
        schema = build_pattern_schema()
        assert schema.field_by_path("solution/structure") is not None
        assert schema.field_by_path("nope") is None

    def test_describe_mentions_flags(self):
        description = build_pattern_schema().describe()
        assert "root element: pattern" in description
        assert "searchable" in description
        assert "attachment" in description

    def test_field_label_formatting(self):
        schema = Schema()
        schema.add_element(ElementDeclaration(
            name="song",
            complex_type=ComplexType(name=None, particle=Particle(items=[
                ElementDeclaration(name="trackTitle"),
                ElementDeclaration(name="album_name"),
            ])),
        ))
        labels = [info.label for info in schema.fields()]
        assert labels == ["Track Title", "Album name"]

    def test_recursive_type_does_not_loop(self):
        schema = Schema()
        nested = ComplexType(name="node", particle=Particle(items=[
            ElementDeclaration(name="label"),
            ElementDeclaration(name="child", type_name="node", occurrence=Occurrence(0, None)),
        ]))
        schema.add_complex_type(nested)
        schema.add_element(ElementDeclaration(name="tree", type_name="node"))
        paths = [info.path for info in schema.fields()]
        assert "label" in paths
        assert len(paths) < 50
