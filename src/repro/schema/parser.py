"""Parse XML Schema documents into the component model.

The parser understands the XSD constructs used by U-P2P community
schemas — exactly the vocabulary of the paper's Fig. 3 plus the
constructs needed by the bundled example communities:

``schema``, ``element``, ``complexType``, ``sequence``, ``choice``,
``all``, ``simpleType``, ``restriction``, ``enumeration``, ``pattern``,
length and value facets, ``attribute``, ``annotation`` /
``documentation`` and the U-P2P extension attributes ``searchable`` and
``attachment`` (any prefix, e.g. ``up2p:searchable="true"``).
"""

from __future__ import annotations

from typing import Optional, Union

from repro.schema.errors import SchemaParseError
from repro.schema.model import (
    AttributeDeclaration,
    ComplexType,
    ElementDeclaration,
    Facets,
    Occurrence,
    Particle,
    Schema,
    SimpleType,
)
from repro.xmlkit.dom import Document, Element
from repro.xmlkit.errors import XMLParseError
from repro.xmlkit.parser import parse as parse_xml

_GROUP_KINDS = ("sequence", "choice", "all")
_TRUE_VALUES = ("true", "1", "yes")


def parse_schema_text(text: str) -> Schema:
    """Parse an XSD document given as a string."""
    try:
        document = parse_xml(text, check_namespaces=False, keep_whitespace_text=False)
    except XMLParseError as error:
        raise SchemaParseError(f"schema document is not well-formed XML: {error}") from error
    return parse_schema(document)


def parse_schema(document: Union[Document, Element]) -> Schema:
    """Parse a pre-parsed XML document into a :class:`Schema`."""
    root = document.root if isinstance(document, Document) else document
    if root.local_name != "schema":
        raise SchemaParseError(
            f"expected a <schema> document, found <{root.local_name}>"
        )
    schema = Schema(target_namespace=root.get("targetNamespace"))
    for child in root.children:
        name = child.local_name
        if name == "element":
            schema.add_element(_parse_element(child))
        elif name == "complexType":
            schema.add_complex_type(_parse_complex_type(child, require_name=True))
        elif name == "simpleType":
            schema.add_simple_type(_parse_simple_type(child, require_name=True))
        elif name == "annotation":
            schema.annotations.append(_documentation_text(child))
        elif name in ("import", "include"):
            # Cross-schema composition is out of scope; recorded but ignored.
            schema.annotations.append(f"unresolved {name}: {child.get('schemaLocation', '')}")
        else:
            raise SchemaParseError(f"unsupported top-level schema construct <{name}>")
    if not schema.elements:
        raise SchemaParseError("schema declares no global elements")
    return schema


# ----------------------------------------------------------------------
def _parse_element(node: Element) -> ElementDeclaration:
    name = node.get("name")
    if not name:
        raise SchemaParseError("element declaration is missing the 'name' attribute")
    declaration = ElementDeclaration(
        name=name,
        type_name=node.get("type"),
        occurrence=Occurrence.parse(node.get("minOccurs"), node.get("maxOccurs")),
        searchable=_flag(node, "searchable"),
        attachment=_flag(node, "attachment"),
        default=node.get("default"),
    )
    for child in node.children:
        kind = child.local_name
        if kind == "complexType":
            declaration.complex_type = _parse_complex_type(child, require_name=False)
        elif kind == "simpleType":
            declaration.simple_type = _parse_simple_type(child, require_name=False)
        elif kind == "annotation":
            declaration.documentation = _documentation_text(child)
        else:
            raise SchemaParseError(
                f"unsupported construct <{kind}> inside element {name!r}"
            )
    if declaration.type_name and (declaration.complex_type or declaration.simple_type):
        raise SchemaParseError(
            f"element {name!r} has both a 'type' reference and an inline type"
        )
    return declaration


def _parse_complex_type(node: Element, *, require_name: bool) -> ComplexType:
    name = node.get("name")
    if require_name and not name:
        raise SchemaParseError("global complexType is missing the 'name' attribute")
    definition = ComplexType(
        name=name,
        mixed=(node.get("mixed", "false") in _TRUE_VALUES),
    )
    for child in node.children:
        kind = child.local_name
        if kind in _GROUP_KINDS:
            if definition.particle is not None:
                raise SchemaParseError(
                    f"complexType {name or '(anonymous)'} has more than one content group"
                )
            definition.particle = _parse_particle(child)
        elif kind == "attribute":
            definition.attributes.append(_parse_attribute(child))
        elif kind == "annotation":
            continue
        elif kind == "simpleContent":
            base, attributes = _parse_simple_content(child)
            definition.simple_content_base = base
            definition.attributes.extend(attributes)
        else:
            raise SchemaParseError(
                f"unsupported construct <{kind}> inside complexType {name or '(anonymous)'}"
            )
    return definition


def _parse_particle(node: Element) -> Particle:
    particle = Particle(
        kind=node.local_name,
        occurrence=Occurrence.parse(node.get("minOccurs"), node.get("maxOccurs")),
    )
    for child in node.children:
        kind = child.local_name
        if kind == "element":
            particle.items.append(_parse_element(child))
        elif kind in _GROUP_KINDS:
            particle.items.append(_parse_particle(child))
        elif kind == "annotation":
            continue
        else:
            raise SchemaParseError(f"unsupported construct <{kind}> inside <{node.local_name}>")
    return particle


def _parse_simple_type(node: Element, *, require_name: bool) -> SimpleType:
    name = node.get("name")
    if require_name and not name:
        raise SchemaParseError("global simpleType is missing the 'name' attribute")
    restriction = node.find("restriction")
    if restriction is None:
        # Lists/unions are out of scope; degrade to an unrestricted string.
        return SimpleType(name=name, base="string")
    base = restriction.get("base", "string")
    facets = Facets()
    for facet in restriction.children:
        kind = facet.local_name
        value = facet.get("value", "")
        if kind == "enumeration":
            facets.enumeration.append(value)
        elif kind == "pattern":
            facets.pattern = value
        elif kind == "length":
            facets.length = int(value)
        elif kind == "minLength":
            facets.min_length = int(value)
        elif kind == "maxLength":
            facets.max_length = int(value)
        elif kind == "minInclusive":
            facets.min_inclusive = float(value)
        elif kind == "maxInclusive":
            facets.max_inclusive = float(value)
        elif kind == "minExclusive":
            facets.min_exclusive = float(value)
        elif kind == "maxExclusive":
            facets.max_exclusive = float(value)
        elif kind == "whiteSpace":
            facets.whitespace = value
        elif kind == "annotation":
            continue
        else:
            raise SchemaParseError(f"unsupported restriction facet <{kind}>")
    return SimpleType(name=name, base=base, facets=facets)


def _parse_attribute(node: Element) -> AttributeDeclaration:
    name = node.get("name")
    if not name:
        raise SchemaParseError("attribute declaration is missing the 'name' attribute")
    declaration = AttributeDeclaration(
        name=name,
        type_name=node.get("type", "string"),
        required=(node.get("use") == "required"),
        default=node.get("default"),
        fixed=node.get("fixed"),
    )
    inline = node.find("simpleType")
    if inline is not None:
        declaration.simple_type = _parse_simple_type(inline, require_name=False)
    return declaration


def _parse_simple_content(node: Element) -> tuple[Optional[str], list[AttributeDeclaration]]:
    extension = node.find("extension") or node.find("restriction")
    if extension is None:
        return None, []
    attributes = [_parse_attribute(child) for child in extension.find_all("attribute")]
    return extension.get("base"), attributes


def _documentation_text(annotation: Element) -> str:
    parts = [doc.text_content().strip() for doc in annotation.find_all("documentation")]
    return "\n".join(part for part in parts if part)


def _flag(node: Element, local_name: str) -> bool:
    value = node.get_local(local_name)
    return value is not None and value.strip().lower() in _TRUE_VALUES
