"""Generated Create and Search forms.

The HTML rendering of forms is produced by the community stylesheets
(:mod:`repro.core.stylesheets`); this module provides the *programmatic*
form model used by the servent and the example applications: which
fields exist, what input type each gets, which are searchable, and how
submitted values become a schema-valid XML object or a structured
query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

from repro.schema.instance import build_instance
from repro.schema.model import FieldInfo, Schema
from repro.schema.validator import ValidationReport, validate
from repro.storage.query import Criterion, Operator, Query
from repro.xmlkit.dom import Element
from repro.xslt.html import render_html

FormValues = Mapping[str, Union[str, Sequence[str]]]


@dataclass(frozen=True)
class FormField:
    """One input of a generated form."""

    path: str
    label: str
    input_type: str                  # 'text' | 'number' | 'date' | 'checkbox' | 'select' | 'url'
    required: bool = False
    repeated: bool = False
    searchable: bool = False
    attachment: bool = False
    options: tuple[str, ...] = ()
    documentation: str = ""

    @classmethod
    def from_field_info(cls, info: FieldInfo) -> "FormField":
        return cls(
            path=info.path,
            label=info.label,
            input_type=_input_type_for(info),
            required=not info.optional,
            repeated=info.repeated,
            searchable=info.searchable,
            attachment=info.attachment,
            options=tuple(info.enumeration),
            documentation=info.documentation,
        )


def _input_type_for(info: FieldInfo) -> str:
    if info.enumeration:
        return "select"
    type_name = info.type_name.split(":")[-1]
    if type_name in ("integer", "int", "long", "short", "decimal", "float", "double",
                     "nonNegativeInteger", "positiveInteger"):
        return "number"
    if type_name in ("date", "dateTime", "gYear"):
        return "date"
    if type_name == "boolean":
        return "checkbox"
    if type_name == "anyURI":
        return "url"
    return "text"


@dataclass
class CreateForm:
    """The Create function's form for one community."""

    community_name: str
    root_element: str
    fields: list[FormField] = field(default_factory=list)

    @classmethod
    def from_schema(cls, community_name: str, schema: Schema) -> "CreateForm":
        return cls(
            community_name=community_name,
            root_element=schema.root_element().name,
            fields=[FormField.from_field_info(info) for info in schema.fields()],
        )

    # ------------------------------------------------------------------
    def submit(self, schema: Schema, values: FormValues) -> tuple[Element, ValidationReport]:
        """Build the shared object from submitted values and validate it."""
        document = build_instance(schema, dict(values))
        report = validate(schema, document)
        return document, report

    # ------------------------------------------------------------------
    def to_html(self) -> str:
        """Render the form as HTML (programmatic path, no stylesheet)."""
        form = Element("form", {"class": "up2p-create", "method": "post", "action": "create"})
        form.make_child("h2", text=f"Create a {self.root_element} object")
        table = form.make_child("table", attributes={"class": "fields"})
        for form_field in self.fields:
            row = table.make_child("tr")
            row.make_child("td", text=form_field.label, attributes={"class": "label"})
            cell = row.make_child("td")
            _append_input(cell, form_field)
        form.make_child("input", attributes={"type": "submit", "value": "Share"})
        return render_html([form])


@dataclass
class SearchForm:
    """The Search function's form for one community."""

    community_name: str
    root_element: str
    fields: list[FormField] = field(default_factory=list)

    @classmethod
    def from_schema(cls, community_name: str, schema: Schema) -> "SearchForm":
        searchable_paths = {info.path for info in schema.searchable_fields()}
        return cls(
            community_name=community_name,
            root_element=schema.root_element().name,
            fields=[
                FormField.from_field_info(info)
                for info in schema.fields()
                if info.path in searchable_paths
            ],
        )

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

    # ------------------------------------------------------------------
    def to_html(self) -> str:
        form = Element("form", {"class": "up2p-search", "method": "get", "action": "search"})
        form.make_child("h2", text=f"Search the {self.community_name} community")
        table = form.make_child("table", attributes={"class": "fields"})
        for form_field in self.fields:
            row = table.make_child("tr", attributes={"class": "searchable"})
            row.make_child("td", text=form_field.label, attributes={"class": "label"})
            cell = row.make_child("td")
            _append_input(cell, form_field)
        form.make_child("input", attributes={"type": "submit", "value": "Search"})
        return render_html([form])


def _append_input(cell: Element, form_field: FormField) -> None:
    if form_field.input_type == "select":
        select = cell.make_child("select", attributes={"name": form_field.path})
        for option in form_field.options:
            select.make_child("option", text=option or "(any)", attributes={"value": option})
        return
    attributes = {"type": form_field.input_type, "name": form_field.path}
    if form_field.required:
        attributes["required"] = "required"
    cell.make_child("input", attributes=attributes)
