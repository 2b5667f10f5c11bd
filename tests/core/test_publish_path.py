"""The publish path does each piece of work once.

The paper's Create function builds one XML object from the
schema-generated form, validates it against the community schema and
indexes its searchable fields.  These tests pin that each published
object costs one validation, one resource id and no schema walk once
the schema is warm, and that the form path publishes exactly what the
step-by-step path (``build_instance`` + ``validate`` +
``publish_resource``) publishes, rejecting an invalid object before
anything is stored, indexed or announced.
"""

import pytest

from bench.trace import Tracer
from repro.communities.design_patterns import design_pattern_community
from repro.communities.mp3 import mp3_community
from repro.core.errors import InvalidObjectError
from repro.core.forms import FormField
from repro.core.resource import Resource
from repro.core.servent import Servent, _first_value
from repro.network.centralized import CentralizedProtocol
from repro.schema.instance import build_instance
from repro.schema.model import (
    ComplexType,
    ElementDeclaration,
    Facets,
    Particle,
    Schema,
    SimpleType,
)
from repro.schema.validator import validate
from repro.storage import interning
from repro.storage.document_store import metadata_wire_bytes, resource_id_for, stored_form
from repro.storage.index import tokenize
from repro.workloads.scenario import build_scenario
from repro.xmlkit.serializer import canonical, serialize

COMMUNITIES = {"mp3": mp3_community, "design-patterns": design_pattern_community}
INVALID_MP3 = {"title": "x", "artist": "y", "album": "z", "genre": "polka", "bitrate": "192"}


@pytest.fixture()
def tracer():
    """``bench/trace.py``'s patcher: it replaces a function in every
    ``repro.*`` namespace that imported it, and undoes that afterwards."""
    tracer = Tracer()
    yield tracer
    tracer.uninstall()


def counted(tracer, name):
    return lambda function: tracer.counted(name, function)


def count_resource_ids(tracer):
    """Count every resource id worked out, through either entry point:
    ``stored_form`` (the store's one walk) or ``resource_id_for``."""
    tracer.patch_function(stored_form, counted(tracer, "resource_id"))
    tracer.patch_function(resource_id_for, counted(tracer, "resource_id"))


def fresh_application(community="mp3"):
    """A generated application on its own centralized network."""
    network = CentralizedProtocol(seed=11)
    return COMMUNITIES[community]().application_on(Servent("alice", network))


def sample_records(community, count):
    return COMMUNITIES[community]().sample_corpus(count, seed=5)


def as_xml(application, record):
    document = build_instance(application.community.schema, record)
    return serialize(document, xml_declaration=False)


def publish_step_by_step(application, record):
    """The step-by-step reference: build, validate, then publish_resource."""
    schema = application.community.schema
    document = build_instance(schema, dict(record))
    assert validate(schema, document).is_valid
    resource = Resource(
        community_id=application.community.community_id,
        document=document,
        title=_first_value(record),
        provider_id=application.servent.peer_id,
    )
    return application.servent.publish_resource(resource).resource_id


def observed(application):
    """Everything a publish leaves behind: stored documents, local index
    entries and attachments, the index server's catalog (hits left out:
    a search allocates them) and the announcing traffic."""
    servent = application.servent
    repository = servent.repository
    return {
        "documents": [
            (
                stored.resource_id,
                stored.community_id,
                stored.title,
                stored.publisher,
                stored.size_bytes,
                stored.metadata,
                canonical(stored.document),
            )
            for stored in repository.documents
        ],
        "index": list(repository.index.iter_entries()),
        "attachments": sorted(repository.attachments._attachments.items()),
        "catalog": {
            key: (
                record.resource_id,
                record.community_id,
                record.title,
                record.metadata_view,
                record.provider_id,
                record.metadata_bytes,
                record.expires_at_ms,
            )
            for key, record in servent.network._server.records.items()
        },
        "statistics": servent.statistics(),
        "messages": servent.network.stats.total_messages,
        "bytes": servent.network.stats.total_bytes,
    }


class TestWorkCounts:
    N = 12

    def test_form_publish_validates_hashes_and_walks_once(self, tracer):
        application = fresh_application()
        records = sample_records("mp3", self.N + 1)
        application.publish(records[0])  # the schema walk happens here at the latest
        tracer.patch_function(validate, counted(tracer, "validate"))
        count_resource_ids(tracer)
        tracer.patch_method((Schema,), "_collect_fields", counted(tracer, "collect_fields"))
        tracer.patch_method((FormField,), "__init__", counted(tracer, "form_field"))

        resources = [application.publish(record) for record in records[1:]]

        assert tracer.counts["validate"] == self.N
        assert tracer.counts["collect_fields"] == 0
        assert tracer.counts["resource_id"] == self.N
        assert tracer.counts["form_field"] == 0
        stored = {stored.resource_id for stored in application.servent.repository.documents}
        published = {resource.resource_id for resource in resources}
        assert len(published) == self.N and published <= stored

    def test_xml_publish_validates_once(self, tracer):
        application = fresh_application()
        texts = [as_xml(application, record) for record in sample_records("mp3", self.N)]
        tracer.patch_function(validate, counted(tracer, "validate"))
        count_resource_ids(tracer)

        documents = application.servent.repository.documents
        before = len(documents)
        for text in texts:
            application.publish_xml(text)

        assert tracer.counts["validate"] == self.N
        assert tracer.counts["resource_id"] == self.N
        assert len(documents) == before + self.N

    def test_a_publish_measures_its_metadata_wire_size_once(self, tracer):
        """The REGISTER accounting and the index server's catalog record
        take one ``metadata_wire_bytes`` result, not one each."""
        application = fresh_application()
        records = sample_records("mp3", self.N)
        tracer.patch_function(metadata_wire_bytes, counted(tracer, "wire_bytes"))

        keys = [application.publish(record).resource_id for record in records]

        assert tracer.counts["wire_bytes"] == self.N
        catalog = application.servent.network._server.records
        for key in keys:
            record = catalog[f"{key}@alice"]
            assert record.metadata_bytes == metadata_wire_bytes(record.metadata_view)

    def test_each_distinct_value_is_tokenised_once(self, tracer):
        """The peer's index and the index server's catalog take one
        value's tokens from one ``tokenize`` call, not one each."""
        application = fresh_application()
        records = sample_records("mp3", self.N)
        interning.clear()
        tracer.patch_function(tokenize, counted(tracer, "tokenize"))

        keys = [application.publish(record).resource_id for record in records]

        index = application.servent.repository.index
        catalog = application.servent.network._server.index
        local = [entry.value for key in keys for entry in index.entries_for(key)]
        served = [entry.value for key in keys for entry in catalog.entries_for(f"{key}@alice")]
        assert sorted(served) == sorted(local)
        assert len(local) > len(set(local)) > 0
        assert tracer.counts["tokenize"] == len(set(local))

    def test_validation_resolves_each_declaration_once(self, tracer):
        """Once a schema has validated an object, validating more builds
        no ``SimpleType`` and resolves no declaration or group again."""
        application = fresh_application()
        records = sample_records("mp3", self.N + 1)
        application.publish(records[0])
        tracer.patch_method((SimpleType,), "__init__", counted(tracer, "simple_type"))
        for name in ("resolve_complex_type", "resolve_simple_type"):
            tracer.patch_method((Schema,), name, counted(tracer, "resolve"))
        tracer.patch_method((ElementDeclaration,), "resolved_type_name", counted(tracer, "resolve"))
        tracer.patch_method((Particle,), "element_declarations", counted(tracer, "group"))

        for record in records[1:]:
            application.publish(record)

        assert tracer.counts["simple_type"] == 0
        assert tracer.counts["resolve"] == 0
        assert tracer.counts["group"] == 0

    def test_adding_a_type_after_a_validation_changes_the_verdict(self, tracer):
        """The resolved declarations are dropped by ``add_simple_type``,
        as the root field walk is: a type defined after a validation
        governs the next one."""
        mood = ElementDeclaration(name="mood", type_name="moodType")
        note_type = ComplexType(name=None, particle=Particle(items=[mood]))
        schema = Schema()
        schema.add_element(ElementDeclaration(name="note", complex_type=note_type))
        note = build_instance(schema, {"mood": "happy"})
        tracer.patch_method((Schema,), "resolve_simple_type", counted(tracer, "resolve"))

        assert [error.code for error in validate(schema, note).errors] == ["unknown-type"]
        resolved = tracer.counts["resolve"]
        assert [error.code for error in validate(schema, note).errors] == ["unknown-type"]
        assert tracer.counts["resolve"] == resolved
        mood_type = SimpleType(name="moodType", facets=Facets(enumeration=["happy", "sad"]))
        schema.add_simple_type(mood_type)

        assert validate(schema, note).is_valid
        assert tracer.counts["resolve"] > resolved

    def test_resource_id_is_fixed_at_publish(self):
        application = fresh_application()
        resource = application.publish(sample_records("mp3", 1)[0])
        published = resource.resource_id
        assert published == resource_id_for(resource.community_id, resource.document)

        resource.document.make_child("comment", "edited after publish")

        assert resource.resource_id == published
        stored = application.servent.repository.retrieve(published)
        assert stored.document.find("comment") is None


class TestEquivalence:
    @pytest.mark.parametrize("community", sorted(COMMUNITIES))
    def test_form_path_publishes_what_the_step_by_step_path_does(self, community):
        records = sample_records(community, 30)
        form, reference = fresh_application(community), fresh_application(community)

        form_ids = [form.publish(record).resource_id for record in records]
        reference_ids = [publish_step_by_step(reference, record) for record in records]

        assert form_ids == reference_ids
        assert observed(form) == observed(reference)
        catalogued = {record[0] for record in observed(form)["catalog"].values()}
        assert catalogued >= set(form_ids)

    @pytest.mark.parametrize("entry", ["form", "xml"])
    def test_invalid_object_leaves_nothing_behind(self, entry):
        application = fresh_application()
        application.publish(sample_records("mp3", 1)[0])
        before = observed(application)

        with pytest.raises(InvalidObjectError):
            if entry == "form":
                application.publish(INVALID_MP3)
            else:
                application.publish_xml(as_xml(application, INVALID_MP3))

        assert observed(application) == before


class TestScenarioBuild:
    def test_scenario_takes_each_id_from_its_publish(self, tracer):
        count_resource_ids(tracer)
        counts = {}
        for corpus_size in (10, 20):
            before = tracer.counts["resource_id"]
            scenario = build_scenario(
                protocol="centralized",
                peers=12,
                members=6,
                publishers=3,
                corpus_size=corpus_size,
                queries=4,
                seed=3,
            )
            counts[corpus_size] = tracer.counts["resource_id"] - before
            stored = {
                stored.resource_id
                for servent in scenario.servents
                for stored in servent.repository.documents
            }
            assert len(scenario.resource_ids) == corpus_size
            assert set(scenario.resource_ids) <= stored

        # Ten more objects cost ten more ids: one per publish, none re-read.
        assert counts[20] - counts[10] == 10
