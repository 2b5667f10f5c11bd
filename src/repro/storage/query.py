"""The structured query model (the CMIP-query substitute).

Search requests travel between servents as small structured documents:
a community id plus a conjunction of field criteria.  The class has an
XML wire form (used by the network layer and measured in the message-
cost experiments) and an in-memory matching form against the attribute
index and against metadata dictionaries.  Searches evaluate the query
through its compiled plan (:mod:`repro.storage.plan`); the matching
form here is the reference semantics the plan is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.storage.errors import QueryError
from repro.storage.index import AttributeIndex, tokenize
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

    def matches(self, values: list[str]) -> bool:
        """Check this criterion against the values of one field."""
        if self.operator == Operator.EQUALS:
            wanted_value = self.value.strip().lower()  # hoisted: loop-invariant
            return any(value.strip().lower() == wanted_value for value in values)
        if self.operator == Operator.CONTAINS or self.operator == Operator.ANY:
            wanted = set(tokenize(self.value))
            if not wanted:
                return True
            present = set()
            for value in values:
                present.update(tokenize(value))
                if wanted.issubset(present):
                    return True
            return False
        if self.operator == Operator.PREFIX:
            stem = self.value.strip().lower()
            return any(
                token.startswith(stem) for value in values for token in tokenize(value)
            )
        raise QueryError(f"unsupported operator {self.operator}")


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
    # Evaluation
    # ------------------------------------------------------------------
    def matches_metadata(self, metadata: dict[str, list[str]]) -> bool:
        """Evaluate against a plain metadata dictionary (path → values)."""
        for criterion in self.criteria:
            if not criterion.value.strip():
                continue
            if criterion.operator == Operator.ANY or criterion.field_path == "*":
                # Tokenize the wanted value once and stream the field
                # values instead of flattening them into a copy first.
                wanted = set(tokenize(criterion.value))
                if not wanted:
                    continue
                present: set[str] = set()
                satisfied = False
                for values in metadata.values():
                    for value in values:
                        present.update(tokenize(value))
                        if wanted.issubset(present):
                            satisfied = True
                            break
                    if satisfied:
                        break
                if not satisfied:
                    return False
                continue
            values = metadata.get(criterion.field_path, [])
            if not values or not criterion.matches(values):
                return False
        return True

    def evaluate(self, index: AttributeIndex) -> set[str]:
        """Evaluate against an attribute index, returning matching ids."""
        result: Optional[set[str]] = None
        for criterion in self.criteria:
            if not criterion.value.strip():
                continue
            if criterion.operator == Operator.ANY or criterion.field_path == "*":
                matched = index.any_field_keyword(self.community_id, criterion.value)
            elif criterion.operator == Operator.EQUALS:
                matched = index.exact(self.community_id, criterion.field_path, criterion.value)
            elif criterion.operator == Operator.PREFIX:
                matched = index.prefix(self.community_id, criterion.field_path, criterion.value)
            else:
                matched = index.keyword(self.community_id, criterion.field_path, criterion.value)
            result = matched if result is None else result & matched
            if not result:
                return set()
        return result if result is not None else set()

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
