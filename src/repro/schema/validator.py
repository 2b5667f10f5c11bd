"""Instance-document validation against a parsed schema.

The validator walks the instance tree alongside the schema's content
model and reports every problem it finds (it does not stop at the first
error) so that the Create form can show all field errors at once, the
behaviour the paper's web interface implies.  What depends on the
schema alone (a declaration's types, a particle's declarations) comes
from the schema's memos (:meth:`Schema.resolved`, :meth:`Schema.group`);
every check on the instance runs per document.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.schema.datatypes import check_builtin, is_builtin
from repro.schema.errors import ValidationError
from repro.schema.model import (
    AttributeDeclaration,
    ComplexType,
    ElementDeclaration,
    Particle,
    Resolved,
    Schema,
)
from repro.xmlkit.dom import Document, Element


@dataclass
class ValidationReport:
    """The outcome of validating one instance document."""

    errors: list[ValidationError] = field(default_factory=list)

    @property
    def is_valid(self) -> bool:
        return not self.errors

    def add(self, path: str, code: str, message: str) -> None:
        self.errors.append(ValidationError(path=path, code=code, message=message))

    def summary(self) -> str:
        if self.is_valid:
            return "valid"
        return "; ".join(str(error) for error in self.errors)

    def __bool__(self) -> bool:
        return self.is_valid

    def __len__(self) -> int:
        return len(self.errors)


def validate(schema: Schema, instance: Union[Document, Element]) -> ValidationReport:
    """Validate ``instance`` against ``schema`` and return a report."""
    root = instance.root if isinstance(instance, Document) else instance
    report = ValidationReport()
    declaration = schema.elements.get(root.local_name)
    if declaration is None:
        expected = ", ".join(schema.elements) or "(none)"
        report.add(
            root.local_name,
            "unexpected-root",
            f"root element <{root.local_name}> is not declared (expected one of: {expected})",
        )
        return report
    _validate_element(schema, declaration, root, root.local_name, report)
    return report


# ----------------------------------------------------------------------
def _validate_element(
    schema: Schema,
    declaration: ElementDeclaration,
    element: Element,
    path: str,
    report: ValidationReport,
) -> None:
    resolved = schema.resolved(declaration)
    if resolved.complex_type is not None:
        _validate_complex(schema, resolved.complex_type, element, path, report)
        return
    # Simple content: no child elements allowed.
    if element.children:
        report.add(
            path,
            "unexpected-children",
            f"element <{element.local_name}> has a simple type but contains child elements",
        )
    value = element.text_content().strip()
    _validate_simple_value(schema, resolved, value, path, report)


def _validate_simple_value(
    schema: Schema,
    resolved: Resolved,
    value: str,
    path: str,
    report: ValidationReport,
) -> None:
    simple, type_name = resolved.simple_type, resolved.type_name
    if simple is not None:
        for problem in simple.problems(value, schema):
            report.add(path, "facet-violation", problem)
        return
    if type_name and is_builtin(type_name) and not check_builtin(type_name, value):
        report.add(
            path,
            "datatype-mismatch",
            f"value {value!r} is not a valid {type_name}",
        )
    elif type_name and not is_builtin(type_name):
        report.add(
            path,
            "unknown-type",
            f"element references undefined type {type_name!r}",
        )


def _validate_complex(
    schema: Schema,
    complex_type: ComplexType,
    element: Element,
    path: str,
    report: ValidationReport,
) -> None:
    _validate_attributes(schema, complex_type, element, path, report)
    if complex_type.particle is None:
        if element.children:
            report.add(
                path,
                "unexpected-children",
                f"type {complex_type.name or '(anonymous)'} does not allow child elements",
            )
        return
    _validate_particle(schema, complex_type.particle, element, path, report)
    if not complex_type.mixed and element.text.strip():
        report.add(
            path,
            "unexpected-text",
            "character data is not allowed in a non-mixed complex type",
        )


def _validate_attributes(
    schema: Schema,
    complex_type: ComplexType,
    element: Element,
    path: str,
    report: ValidationReport,
) -> None:
    declared = {attribute.name: attribute for attribute in complex_type.attributes}
    present = {
        name: value
        for name, value in element.attributes.items()
        if not name.startswith("xmlns") and ":" not in name
    }
    for name, attribute in declared.items():
        if attribute.required and name not in present:
            report.add(path, "missing-attribute", f"required attribute {name!r} is missing")
    for name, value in present.items():
        attribute = declared.get(name)
        if attribute is None:
            report.add(path, "unexpected-attribute", f"attribute {name!r} is not declared")
            continue
        _validate_attribute_value(schema, attribute, value, f"{path}/@{name}", report)


def _validate_attribute_value(
    schema: Schema,
    attribute: AttributeDeclaration,
    value: str,
    path: str,
    report: ValidationReport,
) -> None:
    if attribute.fixed is not None and value != attribute.fixed:
        report.add(path, "fixed-mismatch", f"attribute must have the fixed value {attribute.fixed!r}")
    if attribute.simple_type is not None:
        for problem in attribute.simple_type.problems(value, schema):
            report.add(path, "facet-violation", problem)
        return
    type_name = attribute.type_name.split(":")[-1]
    if type_name in schema.simple_types:
        for problem in schema.simple_types[type_name].problems(value, schema):
            report.add(path, "facet-violation", problem)
    elif is_builtin(type_name) and not check_builtin(type_name, value):
        report.add(path, "datatype-mismatch", f"value {value!r} is not a valid {type_name}")


def _validate_particle(
    schema: Schema,
    particle: Particle,
    element: Element,
    path: str,
    report: ValidationReport,
) -> None:
    group = schema.group(particle)
    declarations, by_name = group.declarations, group.by_name
    children = element.children
    names = [child.local_name for child in children]
    counts: dict[str, int] = {}
    for name in names:
        counts[name] = counts.get(name, 0) + 1
        if name not in by_name:
            report.add(
                f"{path}/{name}",
                "unexpected-element",
                f"element <{name}> is not declared in the content model",
            )

    if particle.kind == "choice":
        _check_choice(declarations, by_name, counts, path, report)
    else:
        for declaration in declarations:
            count = counts.get(declaration.name, 0)
            if not declaration.occurrence.allows(count):
                bound = declaration.occurrence
                expected = f"between {bound.min_occurs} and " + (
                    "unbounded" if bound.max_occurs is None else str(bound.max_occurs)
                )
                report.add(
                    f"{path}/{declaration.name}",
                    "occurrence-violation",
                    f"element <{declaration.name}> occurs {count} times, expected {expected}",
                )

    if particle.kind == "sequence":
        _check_sequence_order(group.order, names, path, report)

    # Recurse into matching children.
    positions: dict[str, int] = {}
    for child, name in zip(children, names, strict=True):
        declaration = by_name.get(name)
        if declaration is None:
            continue
        index = positions.get(name, 0) + 1
        positions[name] = index
        suffix = f"[{index}]" if counts[name] > 1 else ""
        _validate_element(schema, declaration, child, f"{path}/{name}{suffix}", report)


def _check_choice(
    declarations: tuple[ElementDeclaration, ...],
    by_name: dict[str, ElementDeclaration],
    counts: dict[str, int],
    path: str,
    report: ValidationReport,
) -> None:
    present = [name for name in counts if name in by_name]
    if len(present) > 1:
        report.add(
            path,
            "choice-violation",
            f"only one of {sorted(d.name for d in declarations)} may appear, found {sorted(present)}",
        )
    if not present and all(declaration.occurrence.min_occurs > 0 for declaration in declarations):
        report.add(
            path,
            "choice-violation",
            f"one of {sorted(d.name for d in declarations)} is required",
        )


def _check_sequence_order(
    order: dict[str, int],
    names: list[str],
    path: str,
    report: ValidationReport,
) -> None:
    last_index = -1
    last_name: Optional[str] = None
    for name in names:
        index = order.get(name)
        if index is None:
            continue
        if index < last_index:
            report.add(
                f"{path}/{name}",
                "sequence-order",
                f"element <{name}> must appear before <{last_name}>",
            )
        else:
            last_index = index
            last_name = name
