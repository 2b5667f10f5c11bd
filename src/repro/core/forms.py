"""The Search form's model.

Every form's HTML is rendered by the community stylesheets
(:mod:`repro.core.stylesheets`), the one renderer; this module keeps
the *programmatic* model the servent searches through: which fields
are searchable and how submitted values become a structured query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

from repro.schema.model import Schema
from repro.storage.query import Criterion, Operator, Query

FormValues = Mapping[str, Union[str, Sequence[str]]]


@dataclass(frozen=True)
class FormField:
    """One searchable input: its field path and, for an enumerated
    field, the allowed values (which make the search an exact match)."""

    path: str
    options: tuple[str, ...] = ()


@dataclass
class SearchForm:
    """The Search function's form for one community."""

    fields: list[FormField] = field(default_factory=list)

    @classmethod
    def from_schema(cls, schema: Schema) -> "SearchForm":
        return cls(fields=[FormField(info.path, tuple(info.enumeration))
                           for info in schema.searchable_fields()])

    # ------------------------------------------------------------------
    def submit(self, community_id: str, values: FormValues, *,
               operator: Operator = Operator.CONTAINS) -> Query:
        """Turn filled-in form fields into a structured query."""
        query = Query(community_id=community_id)
        known_paths = {form_field.path for form_field in self.fields}
        for path, raw in values.items():
            if path not in known_paths:
                continue
            text = raw if isinstance(raw, str) else " ".join(raw)
            if not text.strip():
                continue
            form_field = next(f for f in self.fields if f.path == path)
            chosen = Operator.EQUALS if form_field.options else operator
            query.criteria.append(Criterion(path, text.strip(), chosen))
        return query

    def keyword_query(self, community_id: str, text: str) -> Query:
        """A free-text query across every searchable field."""
        return Query.keyword(community_id, text)
