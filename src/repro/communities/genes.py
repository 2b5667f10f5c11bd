"""The gene community for genome researchers (paper §I, ref. [7], AGAVE-style)."""

from __future__ import annotations

import random

from repro.communities.base import CommunityDefinition
from repro.schema.builder import SchemaBuilder, schema_to_xsd

_ORGANISMS = ("Homo sapiens", "Mus musculus", "Drosophila melanogaster",
              "Saccharomyces cerevisiae", "Escherichia coli", "Danio rerio")
_CHROMOSOMES = tuple(str(number) for number in range(1, 23)) + ("X", "Y")

_GENES = (
    ("BRCA1", "breast cancer type 1 susceptibility protein", "DNA repair"),
    ("TP53", "cellular tumor antigen p53", "tumor suppression"),
    ("CFTR", "cystic fibrosis transmembrane conductance regulator", "chloride transport"),
    ("HBB", "hemoglobin subunit beta", "oxygen transport"),
    ("INS", "insulin", "glucose regulation"),
    ("MYC", "myc proto-oncogene protein", "transcription regulation"),
    ("APOE", "apolipoprotein E", "lipid metabolism"),
    ("EGFR", "epidermal growth factor receptor", "signal transduction"),
)


def gene_schema_xsd() -> str:
    """The gene community schema (AGAVE-flavoured annotation record)."""
    builder = SchemaBuilder("gene")
    builder.field("symbol", searchable=True, documentation="Official gene symbol")
    builder.field("name", searchable=True, documentation="Full gene name")
    builder.field("organism", enumeration=_ORGANISMS, searchable=True)
    builder.field("chromosome", searchable=True)
    builder.field("function", searchable=True)
    builder.field("sequence_length", "positiveInteger")
    exons = builder.group("annotation", optional=True)
    exons.field("exon_count", "positiveInteger", optional=True)
    exons.field("note", repeated=True, optional=True)
    exons.end()
    builder.field("sequence", "anyURI", attachment=True, optional=True,
                  documentation="FASTA sequence file downloaded with the record")
    return schema_to_xsd(builder.build())


def generate_gene_corpus(size: int, seed: int = 0) -> list[dict[str, object]]:
    rng = random.Random(seed)
    corpus: list[dict[str, object]] = []
    for index in range(size):
        symbol, name, function = _GENES[index % len(_GENES)]
        variant = index // len(_GENES)
        suffix = "" if variant == 0 else f"-{variant}"
        corpus.append({
            "symbol": symbol + suffix,
            "name": name,
            "organism": rng.choice(_ORGANISMS),
            "chromosome": rng.choice(_CHROMOSOMES),
            "function": function,
            "sequence_length": str(rng.randint(500, 250000)),
            "annotation/exon_count": str(rng.randint(1, 60)),
            "annotation/note": [f"annotated by curator {rng.randint(1, 9)}"],
            "sequence": f"http://genome.example.org/fasta/{symbol.lower()}{suffix}.fa",
        })
    return corpus


def gene_community() -> CommunityDefinition:
    return CommunityDefinition(
        name="Genome Annotations",
        schema_xsd=gene_schema_xsd(),
        description="Share gene annotation records and sequences for genome research.",
        keywords="gene genome annotation agave bioinformatics",
        category="science",
        protocol="Napster",
        corpus=generate_gene_corpus,
    )
