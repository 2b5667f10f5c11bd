"""The reference query semantics that ``CompiledQuery`` is tested against.

Every search the system runs goes through a compiled plan
(:func:`repro.storage.plan.compile_query`).  The two evaluators here are
the straightforward readings of a :class:`~repro.storage.query.Query`
that the plan must agree with: :func:`evaluate` intersects the attribute
index's per-criterion lookups, and :func:`matches_metadata` checks one
record's metadata dictionary.  Blank criterion values are skipped, and a
punctuation-only CONTAINS value matches no index entry.
"""

from __future__ import annotations

from typing import Optional

from repro.storage.errors import QueryError
from repro.storage.index import AttributeIndex, tokenize
from repro.storage.query import Criterion, Operator, Query


def criterion_matches(criterion: Criterion, values: list[str]) -> bool:
    """Check ``criterion`` against the values of one field."""
    if criterion.operator == Operator.EQUALS:
        wanted_value = criterion.value.strip().lower()
        return any(value.strip().lower() == wanted_value for value in values)
    if criterion.operator in (Operator.CONTAINS, Operator.ANY):
        wanted = set(tokenize(criterion.value))
        if not wanted:
            return True
        present: set[str] = set()
        for value in values:
            present.update(tokenize(value))
            if wanted.issubset(present):
                return True
        return False
    if criterion.operator == Operator.PREFIX:
        stem = criterion.value.strip().lower()
        return any(token.startswith(stem) for value in values for token in tokenize(value))
    raise QueryError(f"unsupported operator {criterion.operator}")


def matches_metadata(query: Query, metadata: dict[str, list[str]]) -> bool:
    """Evaluate ``query`` against a plain metadata dictionary (path → values)."""
    for criterion in query.criteria:
        if not criterion.value.strip():
            continue
        if criterion.operator == Operator.ANY or criterion.field_path == "*":
            # A keyword over every field, whatever the operator says.
            values = [value for field_values in metadata.values() for value in field_values]
            present = {token for value in values for token in tokenize(value)}
            if not set(tokenize(criterion.value)) <= present:
                return False
            continue
        values = metadata.get(criterion.field_path, [])
        if not values or not criterion_matches(criterion, values):
            return False
    return True


def evaluate(query: Query, index: AttributeIndex) -> set[str]:
    """Evaluate ``query`` against an attribute index, returning matching ids."""
    result: Optional[set[str]] = None
    for criterion in query.criteria:
        if not criterion.value.strip():
            continue
        if criterion.operator == Operator.ANY or criterion.field_path == "*":
            matched = index.any_field_keyword(query.community_id, criterion.value)
        elif criterion.operator == Operator.EQUALS:
            matched = index.exact(query.community_id, criterion.field_path, criterion.value)
        elif criterion.operator == Operator.PREFIX:
            matched = index.prefix(query.community_id, criterion.field_path, criterion.value)
        else:
            matched = index.keyword(query.community_id, criterion.field_path, criterion.value)
        result = matched if result is None else result & matched
        if not result:
            return set()
    return result if result is not None else set()
