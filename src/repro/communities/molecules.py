"""The chemical-molecule community (CML, paper §I and reference [8]).

"XML descriptions of chemical molecules for chemists or chemistry
students" — the schema follows the spirit of Chemical Markup Language:
a molecule with a name, formula, identifiers and a list of atoms.
"""

from __future__ import annotations

import random

from repro.communities.base import CommunityDefinition
from repro.schema.builder import SchemaBuilder, schema_to_xsd

#: (name, formula, weight, atoms) of some well-known molecules.
_MOLECULES = (
    ("water", "H2O", 18.015, ("H", "H", "O")),
    ("benzene", "C6H6", 78.11, ("C",) * 6 + ("H",) * 6),
    ("ethanol", "C2H6O", 46.07, ("C", "C", "H", "H", "H", "H", "H", "H", "O")),
    ("caffeine", "C8H10N4O2", 194.19, ("C",) * 8 + ("H",) * 10 + ("N",) * 4 + ("O",) * 2),
    ("aspirin", "C9H8O4", 180.16, ("C",) * 9 + ("H",) * 8 + ("O",) * 4),
    ("glucose", "C6H12O6", 180.16, ("C",) * 6 + ("H",) * 12 + ("O",) * 6),
    ("methane", "CH4", 16.04, ("C", "H", "H", "H", "H")),
    ("ammonia", "NH3", 17.03, ("N", "H", "H", "H")),
    ("penicillin G", "C16H18N2O4S", 334.39, ("C",) * 16 + ("H",) * 18 + ("N", "N", "O", "O", "O", "O", "S")),
    ("dopamine", "C8H11NO2", 153.18, ("C",) * 8 + ("H",) * 11 + ("N", "O", "O")),
)

_FAMILIES = ("alkane", "aromatic", "alcohol", "amine", "acid", "ester", "sugar", "alkaloid")


def molecule_schema_xsd() -> str:
    """The molecule community schema (CML-flavoured)."""
    builder = SchemaBuilder("molecule")
    builder.field("name", searchable=True, documentation="Trivial or IUPAC name")
    builder.field("formula", searchable=True, documentation="Molecular formula, Hill notation")
    builder.field("family", enumeration=_FAMILIES, searchable=True, optional=True)
    builder.field("weight", "decimal", documentation="Molecular weight in g/mol")
    builder.field("cas", optional=True, searchable=True, documentation="CAS registry number")
    atoms = builder.group("atoms")
    atoms.field("atom", repeated=True, documentation="Element symbol of one atom")
    atoms.end()
    builder.field("smiles", optional=True, documentation="SMILES string")
    builder.field("structure", "anyURI", attachment=True, optional=True,
                  documentation="A structure file (e.g. MOL) downloaded with the molecule")
    return schema_to_xsd(builder.build())


def generate_molecule_corpus(size: int, seed: int = 0) -> list[dict[str, object]]:
    """``size`` molecule descriptions (known molecules plus derivatives)."""
    rng = random.Random(seed)
    corpus: list[dict[str, object]] = []
    for index in range(size):
        name, formula, weight, atoms = _MOLECULES[index % len(_MOLECULES)]
        derivative = index // len(_MOLECULES)
        display_name = name if derivative == 0 else f"{name} derivative {derivative}"
        corpus.append({
            "name": display_name,
            "formula": formula,
            "family": rng.choice(_FAMILIES),
            "weight": f"{weight + derivative * 14.03:.2f}",
            "cas": f"{rng.randint(50, 9999)}-{rng.randint(10, 99)}-{rng.randint(0, 9)}",
            "atoms/atom": list(atoms),
            "smiles": "".join(rng.choices("CNOH()=123", k=rng.randint(4, 16))),
            "structure": f"http://chem.example.org/mol/{index:05d}.mol",
        })
    return corpus


def molecule_community() -> CommunityDefinition:
    return CommunityDefinition(
        name="Chemical Molecules",
        schema_xsd=molecule_schema_xsd(),
        description="Share CML-style descriptions of chemical molecules.",
        keywords="chemistry molecule cml formula",
        category="science",
        protocol="Gnutella",
        corpus=generate_molecule_corpus,
    )
