"""Sharing safety of the parse-once flyweights.

Every servent of a process shares one compiled transformer per distinct
stylesheet text and one parsed ``Schema`` per distinct schema text
(``core/stylesheets._compile`` / ``core/community._shared_schema``).
These tests pin that the sharing is real, that it is invisible — what
one servent does never shows up in another — and that the read-only
contract the memos rely on actually holds.
"""

import copy

import pytest

from repro.core.community import (
    COMMUNITY_SCHEMA_XSD,
    Community,
    CommunityDescriptor,
    root_community,
)
from repro.core.errors import CommunityError
from repro.core.stylesheets import (
    DEFAULT_VIEW_STYLESHEET,
    StylesheetSet,
    _compile,
    compile_stylesheet,
)
from repro.communities.design_patterns import design_pattern_community, pattern_stylesheets
from repro.schema.model import ElementDeclaration
from repro.schema.parser import parse_schema_text
from repro.workloads.scenario import build_scenario
from repro.xmlkit.dom import Element
from repro.xmlkit.parser import parse as parse_xml
from repro.xmlkit.serializer import serialize
from repro.xslt.errors import XSLTParseError

COMPILED = ("_create", "_search", "_view", "_index_filter")


def stylesheet_state(transformer):
    """Everything a transformer holds, as comparable plain data."""
    sheet = transformer._stylesheet
    rules = {id(rule): rule for rule in (*sheet.templates, *sheet.named_templates.values())}
    return (
        sheet.output_method, sheet.output_indent, sheet.strip_space,
        dict(sheet.global_variables),
        [(rule.match, rule.name, rule.priority, rule.mode, list(rule.params), rule.body_text,
          [serialize(node, xml_declaration=False) for node in rule.body],
          [node.parent is None or node.parent.tag for node in rule.body])
         for rule in rules.values()],
    )


def schema_state(schema):
    return copy.deepcopy((schema.target_namespace, schema.elements,
                          schema.complex_types, schema.simple_types, schema.annotations))


class TestFlyweightIsReal:
    def test_servents_share_compiled_defaults_and_root_schema(self, two_servents):
        alice, bob = two_servents
        assert alice.stylesheets is not bob.stylesheets
        for attribute in COMPILED:
            assert getattr(alice.stylesheets, attribute) is getattr(bob.stylesheets, attribute)
        assert alice.registry is not bob.registry
        assert alice.registry.root is not bob.registry.root
        assert alice.registry.root.schema is bob.registry.root.schema

    def test_joining_members_share_the_community_schema(self, joined_pattern_apps):
        alice_app, bob_app = joined_pattern_apps
        assert alice_app.community is not bob_app.community
        assert alice_app.community.schema is bob_app.community.schema

    def test_public_parsers_still_hand_out_fresh_objects(self):
        first = parse_schema_text(COMMUNITY_SCHEMA_XSD)
        assert first is not parse_schema_text(COMMUNITY_SCHEMA_XSD)
        assert compile_stylesheet(DEFAULT_VIEW_STYLESHEET) \
            is not compile_stylesheet(DEFAULT_VIEW_STYLESHEET)
        # ... and mutable ones: a caller's edit stays the caller's.
        first.add_element(ElementDeclaration(name="extra"))
        assert "extra" not in parse_schema_text(COMMUNITY_SCHEMA_XSD).elements

    def test_unusable_texts_are_rejected_every_time(self):
        for _ in range(2):
            with pytest.raises(XSLTParseError):
                StylesheetSet(view="<not-a-stylesheet/>")
            with pytest.raises(CommunityError):
                Community(CommunityDescriptor(name="broken"), "<not-a-schema/>")


class TestSharingIsInvisible:
    def test_set_styles_on_one_servent_leaves_the_other_alone(self, joined_pattern_apps,
                                                              gof_records):
        alice_app, bob_app = joined_pattern_apps
        alice, bob = alice_app.servent, bob_app.servent
        community_id = alice_app.community.community_id
        resource = alice_app.publish(gof_records[18])
        downloaded = bob.download(bob_app.search("Observer").results[0])
        assert downloaded.resource_id == resource.resource_id
        bob_styles = bob.styles_for(community_id)
        bob_view = bob.view(resource.resource_id)
        bob_form = bob.render_create_form(community_id)

        alice.set_styles(community_id, StylesheetSet())
        assert alice.styles_for(community_id) is not bob.styles_for(community_id)
        assert alice.view(resource.resource_id) != bob_view

        assert bob.styles_for(community_id) is bob_styles
        assert bob.view(resource.resource_id) == bob_view
        assert bob.render_create_form(community_id) == bob_form

    def test_custom_sets_built_from_one_text_share_and_stay_separate_objects(self):
        first, second = pattern_stylesheets(), pattern_stylesheets()
        assert first is not second
        assert first._view is second._view
        assert first._view is not StylesheetSet()._view


class TestReadOnlyContract:
    def test_transform_leaves_stylesheet_and_source_untouched(self, mp3_xsd, sample_mp3_xml):
        for text, source_xml in ((StylesheetSet().create_text, mp3_xsd),
                                 (StylesheetSet().search_text, mp3_xsd),
                                 (StylesheetSet().view_text, sample_mp3_xml),
                                 (StylesheetSet().index_filter_text, sample_mp3_xml),
                                 (pattern_stylesheets().view_text, sample_mp3_xml)):
            transformer = _compile(text)
            before = stylesheet_state(transformer)
            wrapper = parse_xml("<wrapper/>").root
            source = wrapper.append(parse_xml(source_xml, check_namespaces=False).root)
            source_before = serialize(wrapper, xml_declaration=False)

            first = transformer.transform(source)
            rendered = first.serialize()
            # No stylesheet node is aliased into a result: wrecking the
            # first result tree shows neither in the stylesheet nor in
            # the next result.
            for node in first.nodes:
                for element in list(node.iter()) if isinstance(node, Element) else ():
                    element.tag = element.text = element.tail = "wrecked"
                    element.attributes.clear()
                    element.children.clear()
            assert transformer.transform(source).serialize() == rendered
            assert stylesheet_state(transformer) == before
            # The source's synthetic document parent is gone again.
            assert source.parent is wrapper
            assert serialize(wrapper, xml_declaration=False) == source_before

    def test_a_full_scenario_only_reads_the_shared_schemas(self):
        definition = design_pattern_community()
        schemas = (root_community().schema,
                   Community(CommunityDescriptor(name=definition.name),
                             definition.schema_xsd).schema)
        described = [schema.describe() for schema in schemas]
        state = [schema_state(schema) for schema in schemas]

        scenario = build_scenario(protocol="super-peer", community="design-patterns",
                                  peers=24, members=8, publishers=4,
                                  corpus_size=30, queries=12, seed=5)
        scenario.run_queries(max_results=50)
        scenario.run_mixed_workload(max_results=50)

        assert scenario.servents[-1].registry.root.schema is schemas[0]
        assert scenario.applications[-1].community.schema is schemas[1]
        assert [schema.describe() for schema in schemas] == described
        assert [schema_state(schema) for schema in schemas] == state
