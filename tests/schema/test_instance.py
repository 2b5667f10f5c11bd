"""Tests for instance construction and synthesis."""

import pytest

from repro.schema.errors import SchemaError
from repro.schema.instance import InstanceSynthesizer, build_instance
from repro.schema.validator import validate
from repro.xmlkit.xpath import xpath_find_all
from repro.xmlkit.serializer import serialize


class TestBuildInstance:
    def test_simple_values(self, mp3_schema):
        instance = build_instance(mp3_schema, {
            "title": "So What", "artist": "Miles Davis", "album": "Kind of Blue",
            "genre": "jazz", "bitrate": "192",
        })
        assert instance.child_text("title") == "So What"
        assert instance.tag == "mp3"

    def test_nested_paths(self, pattern_schema):
        instance = build_instance(pattern_schema, {
            "name": "Observer",
            "category": "behavioral",
            "intent": "notify dependents",
            "solution/structure": "subject holds observers",
            "solution/participants": ["Subject", "Observer"],
        })
        solution = instance.find("solution")
        assert solution.find("structure").text == "subject holds observers"
        assert len(solution.find_all("participants")) == 2

    def test_repeated_values_from_sequence(self, mp3_schema):
        instance = build_instance(mp3_schema, {"title": ["a"], "artist": "x",
                                                "album": "y", "genre": "jazz", "bitrate": "128"})
        assert instance.child_text("title") == "a"

    def test_unknown_path_rejected(self, mp3_schema):
        with pytest.raises(SchemaError):
            build_instance(mp3_schema, {"composer": "Bach"})

    def test_missing_required_fields_created_empty(self, mp3_schema):
        instance = build_instance(mp3_schema, {"title": "x"})
        assert instance.find("artist") is not None
        assert instance.child_text("artist") == ""

    def test_empty_values_leave_required_fields_for_the_validator(self, mp3_schema):
        instance = build_instance(mp3_schema, {})
        required = [info.path for info in mp3_schema.fields() if not info.optional]
        assert [child.local_name for child in instance.children] == required
        assert all(child.text_content() == "" for child in instance.children)
        report = validate(mp3_schema, instance)
        # empty text is a string but neither a genre nor a positive integer
        assert sorted(error.path for error in report.errors) == ["mp3/bitrate", "mp3/genre"]

    def test_optional_missing_fields_omitted(self, mp3_schema):
        instance = build_instance(mp3_schema, {
            "title": "x", "artist": "y", "album": "z", "genre": "rock", "bitrate": "128",
        })
        assert instance.find("year") is None

    def test_serializable(self, mp3_schema):
        instance = build_instance(mp3_schema, {"title": "x", "artist": "y", "album": "z",
                                               "genre": "rock", "bitrate": "128"})
        assert "<title>x</title>" in serialize(instance, xml_declaration=False)


class TestReadBack:
    def test_roundtrip(self, pattern_schema):
        values = {
            "name": "Observer", "category": "behavioral", "intent": "notify dependents",
            "solution/structure": "subject notifies observers",
            "solution/participants": ["Subject", "Observer", "ConcreteObserver"],
        }
        instance = build_instance(pattern_schema, values)
        assert [node.text_content() for node in xpath_find_all(instance, "name")] == ["Observer"]
        assert [node.text_content() for node in xpath_find_all(instance, "solution/participants")] \
            == ["Subject", "Observer", "ConcreteObserver"]


class TestSynthesizer:
    def test_synthesized_instances_validate(self, mp3_schema):
        synthesizer = InstanceSynthesizer(mp3_schema, seed=3)
        for instance in synthesizer.corpus(20):
            report = validate(mp3_schema, instance)
            assert report.is_valid, report.summary()

    def test_pattern_schema_synthesis_validates(self, pattern_schema):
        synthesizer = InstanceSynthesizer(pattern_schema, seed=5)
        for instance in synthesizer.corpus(10):
            assert validate(pattern_schema, instance).is_valid

    def test_deterministic_for_same_seed(self, mp3_schema):
        a = InstanceSynthesizer(mp3_schema, seed=9).synthesize()
        b = InstanceSynthesizer(mp3_schema, seed=9).synthesize()
        assert serialize(a) == serialize(b)

    def test_overrides_pin_values(self, mp3_schema):
        instance = InstanceSynthesizer(mp3_schema, seed=1).synthesize(
            overrides={"artist": "Miles Davis"}
        )
        assert instance.child_text("artist") == "Miles Davis"

    def test_enumerated_fields_use_allowed_values(self, mp3_schema):
        genres = {info.path: info.enumeration for info in mp3_schema.fields()}["genre"]
        instance = InstanceSynthesizer(mp3_schema, seed=2).synthesize()
        assert instance.child_text("genre") in genres
