"""The species community for biodiversity research (paper §I, ref. [6])."""

from __future__ import annotations

import random

from repro.communities.base import CommunityDefinition
from repro.schema.builder import SchemaBuilder, schema_to_xsd

_KINGDOMS = ("Animalia", "Plantae", "Fungi", "Protista", "Bacteria")
_STATUS = ("least concern", "near threatened", "vulnerable", "endangered", "critically endangered")

_SPECIES = (
    ("Ursus arctos", "brown bear", "Animalia", "Ursidae", "forests and tundra of the northern hemisphere"),
    ("Panthera leo", "lion", "Animalia", "Felidae", "savannahs of sub-Saharan Africa"),
    ("Quercus rubra", "northern red oak", "Plantae", "Fagaceae", "deciduous forests of eastern North America"),
    ("Amanita muscaria", "fly agaric", "Fungi", "Amanitaceae", "birch and pine woodland"),
    ("Salmo salar", "Atlantic salmon", "Animalia", "Salmonidae", "north Atlantic rivers and coastal waters"),
    ("Apis mellifera", "western honey bee", "Animalia", "Apidae", "temperate and tropical regions worldwide"),
    ("Sequoiadendron giganteum", "giant sequoia", "Plantae", "Cupressaceae", "western Sierra Nevada slopes"),
    ("Castor canadensis", "North American beaver", "Animalia", "Castoridae", "streams, ponds and wetlands"),
)


def species_schema_xsd() -> str:
    """The species community schema (field-guide style)."""
    builder = SchemaBuilder("species")
    builder.field("scientific_name", searchable=True, documentation="Binomial name")
    builder.field("common_name", searchable=True)
    builder.field("kingdom", enumeration=_KINGDOMS, searchable=True)
    builder.field("family", searchable=True)
    builder.field("habitat", searchable=True)
    builder.field("conservation_status", enumeration=_STATUS, searchable=True, optional=True)
    builder.field("description", optional=True)
    observations = builder.group("observations", optional=True)
    observations.field("location", repeated=True)
    observations.field("observer", optional=True)
    observations.end()
    builder.field("photo", "anyURI", attachment=True, optional=True)
    return schema_to_xsd(builder.build())


def generate_species_corpus(size: int, seed: int = 0) -> list[dict[str, object]]:
    rng = random.Random(seed)
    corpus: list[dict[str, object]] = []
    for index in range(size):
        scientific, common, kingdom, family, habitat = _SPECIES[index % len(_SPECIES)]
        population = index // len(_SPECIES)
        suffix = "" if population == 0 else f" (population {population})"
        corpus.append({
            "scientific_name": scientific + suffix,
            "common_name": common,
            "kingdom": kingdom,
            "family": family,
            "habitat": habitat,
            "conservation_status": rng.choice(_STATUS),
            "description": f"Field observations of {common} in {habitat}.",
            "observations/location": [f"site-{rng.randint(1, 40)}" for _ in range(rng.randint(1, 3))],
            "observations/observer": rng.choice(("Stevenson", "Morris", "field station")),
            "photo": f"http://efg.example.org/photos/{index:05d}.jpg",
        })
    return corpus


def species_community() -> CommunityDefinition:
    return CommunityDefinition(
        name="Biodiversity Species",
        schema_xsd=species_schema_xsd(),
        description="Electronic field guide entries for species, shared peer-to-peer.",
        keywords="species biodiversity field guide taxonomy",
        category="science",
        protocol="FastTrack",
        corpus=generate_species_corpus,
    )
