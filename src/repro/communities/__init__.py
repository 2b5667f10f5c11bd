"""Bundled example communities.

The paper motivates U-P2P with a list of communities that become easy
to create once the application is generated from a schema (§I):

* XML descriptions of chemical molecules (CML),
* descriptions of species for biodiversity research,
* descriptions of genes,
* design patterns for computer science students (the §V case study),
* software components,
* MP3 trading communities narrowed by artist or genre.

Each module in this package defines one of those communities: its XML
Schema, optional custom stylesheets and index filters, and a synthetic
corpus generator used by the examples, the tests and the paper's
claims in :mod:`repro.report`.
"""

from repro.communities.base import CommunityDefinition
from repro.communities.design_patterns import design_pattern_community, generate_pattern_corpus
from repro.communities.genes import gene_community, generate_gene_corpus
from repro.communities.molecules import molecule_community, generate_molecule_corpus
from repro.communities.mp3 import mp3_community, generate_mp3_corpus
from repro.communities.species import species_community, generate_species_corpus

ALL_COMMUNITIES = {
    "mp3": mp3_community,
    "design-patterns": design_pattern_community,
    "molecules": molecule_community,
    "species": species_community,
    "genes": gene_community,
}

__all__ = [
    "CommunityDefinition",
    "ALL_COMMUNITIES",
    "mp3_community",
    "generate_mp3_corpus",
    "design_pattern_community",
    "generate_pattern_corpus",
    "molecule_community",
    "generate_molecule_corpus",
    "species_community",
    "generate_species_corpus",
    "gene_community",
    "generate_gene_corpus",
]
