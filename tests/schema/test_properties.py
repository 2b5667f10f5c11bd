"""Property-based tests for the schema substrate."""

import string

from hypothesis import given, settings, strategies as st

from repro.schema.builder import SchemaBuilder, schema_to_xsd
from repro.schema.instance import InstanceSynthesizer, build_instance
from repro.schema.parser import parse_schema_text
from repro.schema.validator import validate
from repro.xmlkit.xpath import xpath_find_all

field_names = st.text(alphabet=string.ascii_lowercase, min_size=2, max_size=10)
type_names = st.sampled_from(["string", "integer", "decimal", "boolean", "date", "anyURI"])


@st.composite
def field_specs(draw):
    return {
        "name": draw(field_names),
        "type_name": draw(type_names),
        "searchable": draw(st.booleans()),
        "optional": draw(st.booleans()),
        "repeated": draw(st.booleans()),
    }


@st.composite
def schema_builders(draw):
    root = draw(field_names)
    specs = draw(st.lists(field_specs(), min_size=1, max_size=8,
                          unique_by=lambda spec: spec["name"]))
    builder = SchemaBuilder(root)
    for spec in specs:
        builder.field(spec["name"], spec["type_name"], searchable=spec["searchable"],
                      optional=spec["optional"], repeated=spec["repeated"])
    return builder


@settings(max_examples=40, deadline=None)
@given(schema_builders())
def test_generated_schema_roundtrips_through_xsd(builder):
    """build → serialize to XSD → reparse preserves the field inventory."""
    schema = builder.build()
    reparsed = parse_schema_text(schema_to_xsd(schema))
    original = [(f.path, f.searchable, f.optional, f.repeated) for f in schema.fields()]
    again = [(f.path, f.searchable, f.optional, f.repeated) for f in reparsed.fields()]
    assert original == again


@settings(max_examples=30, deadline=None)
@given(schema_builders(), st.integers(min_value=0, max_value=2 ** 16))
def test_synthesized_instances_always_validate(builder, seed):
    """Random instances generated from a schema validate against it."""
    schema = parse_schema_text(schema_to_xsd(builder.build()))
    instance = InstanceSynthesizer(schema, seed=seed).synthesize()
    report = validate(schema, instance)
    assert report.is_valid, report.summary()


@settings(max_examples=30, deadline=None)
@given(schema_builders(), st.data())
def test_build_then_read_recovers_values(builder, data):
    """Reading each field path of build_instance(values) recovers the provided values."""
    schema = builder.build()
    values = {}
    for info in schema.fields():
        if info.type_name.endswith("string"):
            text = data.draw(st.text(alphabet=string.ascii_letters + " ", min_size=1, max_size=20))
        else:
            text = "1"
        values[info.path] = text.strip() or "x"
    instance = build_instance(schema, values)
    for path, value in values.items():
        assert [node.text_content() for node in xpath_find_all(instance, path)] == [value]
