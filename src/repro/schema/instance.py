"""Instance-document helpers: construction and synthesis.

The Create function of a community turns a flat mapping of field values
into a schema-conformant XML object; tests and workloads additionally
need a way to synthesize plausible random instances.  Both live here.
"""

from __future__ import annotations

import random
import string
from typing import Mapping, Optional, Sequence, Union

from repro.schema.datatypes import strip_prefix
from repro.schema.errors import SchemaError
from repro.schema.model import FieldInfo, Schema
from repro.xmlkit.dom import Element

FieldValues = Mapping[str, Union[str, Sequence[str]]]


def build_instance(schema: Schema, values: FieldValues, *, root: Optional[str] = None) -> Element:
    """Build an instance element from ``values`` keyed by field path.

    Values may be strings or sequences of strings (for repeated fields).
    Fields that are optional and absent from ``values`` are omitted;
    required fields missing from ``values`` are created empty so the
    validator can point at them.
    """
    declaration = schema.elements.get(root) if root else schema.root_element()
    if declaration is None:
        raise SchemaError(f"schema does not declare element {root!r}")
    fields = schema.fields(declaration)
    known_paths = {info.path for info in fields}
    unknown = [path for path in values if path not in known_paths]
    if unknown:
        raise SchemaError(f"unknown field paths: {', '.join(sorted(unknown))}")
    element = Element(declaration.name)
    for info in fields:
        raw = values.get(info.path)
        if raw is None:
            if info.optional:
                continue
            raw = [""]
        items = [raw] if isinstance(raw, str) else list(raw)
        for value in items:
            _set_field(element, info.path, str(value))
    return element


def _set_field(root: Element, path: str, value: str) -> None:
    parts = path.split("/")
    node = root
    for part in parts[:-1]:
        existing = node.find(part)
        node = existing if existing is not None else node.make_child(part)
    node.make_child(parts[-1], text=value)


# ----------------------------------------------------------------------
# Random instance synthesis (tests + workloads)
# ----------------------------------------------------------------------
_WORDS = (
    "alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo lima "
    "mike november oscar papa quebec romeo sierra tango uniform victor whiskey "
    "pattern factory observer bridge proxy singleton composite adapter strategy "
    "molecule benzene carbon oxygen helix genome exon intron sonata quartet remix"
).split()


class InstanceSynthesizer:
    """Generates random but schema-valid instance documents."""

    def __init__(self, schema: Schema, *, seed: int = 0) -> None:
        self._schema = schema
        self._random = random.Random(seed)

    def synthesize(self, *, overrides: Optional[FieldValues] = None) -> Element:
        """Create one random instance, optionally pinning some field values."""
        values: dict[str, Union[str, list[str]]] = {}
        for info in self._schema.fields():
            count = self._random.randint(1, 3) if info.repeated else 1
            values[info.path] = [self._value_for(info) for _ in range(count)]
        if overrides:
            values.update({path: value for path, value in overrides.items()})
        return build_instance(self._schema, values)

    def corpus(self, size: int) -> list[Element]:
        """Create ``size`` random instances."""
        return [self.synthesize() for _ in range(size)]

    # ------------------------------------------------------------------
    def _value_for(self, info: FieldInfo) -> str:
        if info.enumeration:
            return self._random.choice(info.enumeration)
        type_name = strip_prefix(info.type_name)
        if type_name in ("integer", "int", "long", "short", "nonNegativeInteger", "positiveInteger"):
            return str(self._random.randint(1, 5000))
        if type_name in ("decimal", "float", "double"):
            return f"{self._random.uniform(0, 1000):.3f}"
        if type_name == "boolean":
            return self._random.choice(["true", "false"])
        if type_name == "date":
            return f"{self._random.randint(1995, 2002):04d}-{self._random.randint(1, 12):02d}-{self._random.randint(1, 28):02d}"
        if type_name == "dateTime":
            return f"2002-{self._random.randint(1, 12):02d}-{self._random.randint(1, 28):02d}T12:00:00Z"
        if type_name == "gYear":
            return str(self._random.randint(1980, 2002))
        if type_name == "anyURI":
            host = self._random.choice(["files.example.org", "repo.carleton.ca", "peer.local"])
            name = "".join(self._random.choices(string.ascii_lowercase, k=8))
            return f"http://{host}/{name}.dat"
        word_count = self._random.randint(1, 5)
        return " ".join(self._random.choice(_WORDS) for _ in range(word_count))
