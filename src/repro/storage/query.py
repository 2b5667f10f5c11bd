"""The structured query model (the CMIP-query substitute).

Search requests travel between servents as small structured documents:
a community id plus a conjunction of field criteria.  The class has an
XML wire form (used by the network layer and measured in the message-
cost experiments).  Searches evaluate the query through its compiled
plan (:mod:`repro.storage.plan`); the reference semantics the plan is
tested against live with the tests, in ``tests/storage/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.storage.errors import QueryError
from repro.xmlkit.dom import Element
from repro.xmlkit.parser import parse as parse_xml
from repro.xmlkit.serializer import serialize


class Operator(Enum):
    """Comparison operators supported by search criteria."""

    EQUALS = "equals"
    CONTAINS = "contains"      # every word of the value appears in the field
    PREFIX = "prefix"          # some word of the field starts with the value
    ANY = "any"                # keyword match across all searchable fields

    @classmethod
    def from_wire(cls, text: str) -> "Operator":
        try:
            return cls(text)
        except ValueError as error:
            raise QueryError(f"unknown query operator {text!r}") from error


@dataclass(frozen=True)
class Criterion:
    """One field constraint of a query."""

    field_path: str
    value: str
    operator: Operator = Operator.CONTAINS


@dataclass
class Query:
    """A community-scoped conjunctive query."""

    community_id: str
    criteria: list[Criterion] = field(default_factory=list)
    query_id: str = ""
    origin: str = ""

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def where(self, field_path: str, value: str, operator: Operator = Operator.CONTAINS) -> "Query":
        """Add a criterion and return self (fluent construction)."""
        self.criteria.append(Criterion(field_path, value, operator))
        return self

    @classmethod
    def keyword(cls, community_id: str, text: str) -> "Query":
        """A single keyword query across all searchable fields."""
        return cls(community_id, [Criterion("*", text, Operator.ANY)])

    @property
    def is_empty(self) -> bool:
        return not self.criteria or all(not criterion.value.strip() for criterion in self.criteria)

    # ------------------------------------------------------------------
    # Wire form
    # ------------------------------------------------------------------
    def to_xml(self) -> Element:
        """Serialize to the XML wire form carried in query messages."""
        root = Element("query", {"community": self.community_id})
        if self.query_id:
            root.set("id", self.query_id)
        if self.origin:
            root.set("origin", self.origin)
        for criterion in self.criteria:
            root.make_child(
                "criterion",
                text=criterion.value,
                attributes={"field": criterion.field_path, "operator": criterion.operator.value},
            )
        return root

    def to_xml_text(self) -> str:
        return serialize(self.to_xml(), xml_declaration=False)

    @classmethod
    def from_xml(cls, node: Element) -> "Query":
        """Parse the XML wire form back into a query."""
        if node.local_name != "query":
            raise QueryError(f"expected a <query> element, found <{node.local_name}>")
        community = node.get("community", "")
        if not community:
            raise QueryError("query is missing the 'community' attribute")
        query = cls(
            community_id=community,
            query_id=node.get("id", ""),
            origin=node.get("origin", ""),
        )
        for child in node.find_all("criterion"):
            query.criteria.append(
                Criterion(
                    field_path=child.get("field", "*"),
                    value=child.text_content().strip(),
                    operator=Operator.from_wire(child.get("operator", "contains")),
                )
            )
        return query

    @classmethod
    def from_xml_text(cls, text: str) -> "Query":
        document = parse_xml(text, check_namespaces=False)
        return cls.from_xml(document.root)

    def wire_size_bytes(self) -> int:
        """Size of the serialized query (message-cost accounting)."""
        return len(self.to_xml_text().encode("utf-8"))

    def describe(self) -> str:
        """Human-readable one-line description."""
        if self.is_empty:
            return f"all objects in {self.community_id}"
        clauses = [
            f"{criterion.field_path} {criterion.operator.value} {criterion.value!r}"
            for criterion in self.criteria
            if criterion.value.strip()
        ]
        return f"{self.community_id}: " + " AND ".join(clauses)
