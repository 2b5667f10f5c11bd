"""The schema component model.

This is the in-memory form of an XML Schema document.  It supports the
subset of XML Schema that U-P2P community schemas use:

* global element declarations with inline or named types,
* ``complexType`` with ``sequence`` / ``choice`` / ``all`` particles,
  nested groups and attributes,
* ``simpleType`` with ``restriction`` facets (enumeration, pattern,
  length bounds, numeric bounds),
* occurrence bounds (``minOccurs`` / ``maxOccurs``),
* the U-P2P ``searchable`` annotation used to decide which fields feed
  the inverted index (the paper calls these "fields marked searchable").
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional, Union

from repro.schema.datatypes import BuiltinType, get_builtin, is_builtin, strip_prefix
from repro.schema.errors import SchemaError

UNBOUNDED: Optional[int] = None


@dataclass(frozen=True)
class Occurrence:
    """Occurrence bounds of a particle or element.

    ``max_occurs`` of ``None`` means *unbounded*.
    """

    min_occurs: int = 1
    max_occurs: Optional[int] = 1

    def allows(self, count: int) -> bool:
        """Return True if ``count`` occurrences satisfy the bounds."""
        if count < self.min_occurs:
            return False
        if self.max_occurs is not None and count > self.max_occurs:
            return False
        return True

    @property
    def is_optional(self) -> bool:
        return self.min_occurs == 0

    @property
    def is_repeated(self) -> bool:
        return self.max_occurs is None or self.max_occurs > 1

    @classmethod
    def parse(cls, min_occurs: Optional[str], max_occurs: Optional[str]) -> "Occurrence":
        minimum = int(min_occurs) if min_occurs not in (None, "") else 1
        if max_occurs in (None, ""):
            maximum: Optional[int] = 1
        elif max_occurs == "unbounded":
            maximum = UNBOUNDED
        else:
            maximum = int(max_occurs)
        if maximum is not None and maximum < minimum:
            raise SchemaError(
                f"maxOccurs ({maximum}) must not be smaller than minOccurs ({minimum})"
            )
        return cls(minimum, maximum)


@dataclass
class Facets:
    """Restriction facets of a simple type."""

    enumeration: list[str] = field(default_factory=list)
    pattern: Optional[str] = None
    length: Optional[int] = None
    min_length: Optional[int] = None
    max_length: Optional[int] = None
    min_inclusive: Optional[float] = None
    max_inclusive: Optional[float] = None
    min_exclusive: Optional[float] = None
    max_exclusive: Optional[float] = None
    whitespace: Optional[str] = None

    def problems(self, value: str) -> list[str]:
        """Return a list of facet violations for ``value`` (empty if ok)."""
        issues: list[str] = []
        if self.enumeration and value not in self.enumeration:
            allowed = ", ".join(repr(v) for v in self.enumeration[:8])
            issues.append(f"value {value!r} is not one of the enumerated values ({allowed})")
        if self.pattern is not None and re.fullmatch(self.pattern, value) is None:
            issues.append(f"value {value!r} does not match pattern {self.pattern!r}")
        if self.length is not None and len(value) != self.length:
            issues.append(f"value must be exactly {self.length} characters long")
        if self.min_length is not None and len(value) < self.min_length:
            issues.append(f"value must be at least {self.min_length} characters long")
        if self.max_length is not None and len(value) > self.max_length:
            issues.append(f"value must be at most {self.max_length} characters long")
        if self.has_numeric_bounds():
            try:
                number = float(value)
            except ValueError:
                issues.append(f"value {value!r} is not numeric but has numeric bounds")
            else:
                if self.min_inclusive is not None and number < self.min_inclusive:
                    issues.append(f"value must be >= {self.min_inclusive}")
                if self.max_inclusive is not None and number > self.max_inclusive:
                    issues.append(f"value must be <= {self.max_inclusive}")
                if self.min_exclusive is not None and number <= self.min_exclusive:
                    issues.append(f"value must be > {self.min_exclusive}")
                if self.max_exclusive is not None and number >= self.max_exclusive:
                    issues.append(f"value must be < {self.max_exclusive}")
        return issues

    def has_numeric_bounds(self) -> bool:
        return (self.min_inclusive is not None or self.max_inclusive is not None
                or self.min_exclusive is not None or self.max_exclusive is not None)

    def is_empty(self) -> bool:
        return not self.enumeration and all(
            bound is None
            for bound in (
                self.pattern,
                self.length,
                self.min_length,
                self.max_length,
                self.min_inclusive,
                self.max_inclusive,
                self.min_exclusive,
                self.max_exclusive,
            )
        )


@dataclass
class SimpleType:
    """A named or anonymous simple type: a base type plus facets."""

    name: Optional[str]
    base: str = "string"
    facets: Facets = field(default_factory=Facets)

    def problems(self, value: str, schema: Optional["Schema"] = None) -> list[str]:
        """Validate ``value``, following base-type chains through ``schema``."""
        base = self.base_of(None) if schema is None else schema.base_of(self)
        issues: list[str] = []
        if base.builtin is not None:
            if not base.builtin.is_valid(value):
                issues.append(f"value {value!r} is not a valid {base.name}")
        elif base.simple_type is not None:
            issues.extend(base.simple_type.problems(value, schema))
        issues.extend(self.facets.problems(value))
        return issues

    def base_of(self, schema: Optional["Schema"]) -> "Base":
        """This type's base, looked up in the built-ins, then in ``schema``."""
        name = strip_prefix(self.base)
        builtin = get_builtin(name)
        simple_type = None
        if builtin is None and schema is not None:
            simple_type = schema.simple_types.get(name)
        return Base(name, builtin, simple_type)


@dataclass
class AttributeDeclaration:
    """An attribute allowed (or required) on a complex type."""

    name: str
    type_name: str = "string"
    required: bool = False
    default: Optional[str] = None
    fixed: Optional[str] = None
    simple_type: Optional[SimpleType] = None


@dataclass
class ElementDeclaration:
    """An element declaration (global or local).

    ``type_name`` references a built-in, a named simple type or a named
    complex type; alternatively ``complex_type`` / ``simple_type`` hold
    an anonymous inline type.  ``searchable`` carries the U-P2P
    annotation that marks the field for indexing; ``attachment`` marks
    ``anyURI`` fields whose referenced files are downloaded alongside
    the object (paper §IV-C.1).
    """

    name: str
    type_name: Optional[str] = None
    complex_type: Optional["ComplexType"] = None
    simple_type: Optional[SimpleType] = None
    occurrence: Occurrence = field(default_factory=Occurrence)
    searchable: bool = False
    attachment: bool = False
    default: Optional[str] = None
    documentation: str = ""

    def resolved_type_name(self) -> str:
        """The referenced type name without prefix ('' for inline types)."""
        return strip_prefix(self.type_name) if self.type_name else ""


ParticleItem = Union[ElementDeclaration, "Particle"]


@dataclass
class Particle:
    """A content-model group: ``sequence``, ``choice`` or ``all``."""

    kind: str = "sequence"
    items: list[ParticleItem] = field(default_factory=list)
    occurrence: Occurrence = field(default_factory=Occurrence)

    def element_declarations(self) -> Iterator[ElementDeclaration]:
        """Yield every element declaration in this group, recursively."""
        for item in self.items:
            if isinstance(item, ElementDeclaration):
                yield item
            else:
                yield from item.element_declarations()


@dataclass
class ComplexType:
    """A complex type: a particle plus attribute declarations."""

    name: Optional[str]
    particle: Optional[Particle] = None
    attributes: list[AttributeDeclaration] = field(default_factory=list)
    mixed: bool = False
    simple_content_base: Optional[str] = None

    def element_declarations(self) -> Iterator[ElementDeclaration]:
        if self.particle is not None:
            yield from self.particle.element_declarations()

    def attribute(self, name: str) -> Optional[AttributeDeclaration]:
        for attribute in self.attributes:
            if attribute.name == name:
                return attribute
        return None


class Resolved(NamedTuple):
    """The types governing one element declaration (:meth:`Schema.resolved`)."""

    complex_type: Optional[ComplexType]
    simple_type: Optional[SimpleType]
    #: the referenced type name without prefix ('' for inline types)
    type_name: str


class Base(NamedTuple):
    """The base of a simple type (:meth:`Schema.base_of`)."""

    #: the base type's name without prefix
    name: str
    #: the built-in type of that name, if there is one
    builtin: Optional[BuiltinType]
    #: otherwise the schema's simple type of that name, if there is one
    simple_type: Optional[SimpleType]


class Group(NamedTuple):
    """A particle's element declarations in the forms a validation
    reads them (:meth:`Schema.group`)."""

    declarations: tuple[ElementDeclaration, ...]
    by_name: dict[str, ElementDeclaration]
    #: element name -> position in the declaration order
    order: dict[str, int]


@dataclass
class FieldInfo:
    """A flattened leaf field of a schema, used by forms and the index.

    ``path`` is the element path below the root element (e.g.
    ``solution/diagram``), ``type_name`` the resolved simple type and
    ``searchable`` whether the field participates in search queries.
    """

    path: str
    name: str
    type_name: str
    searchable: bool
    attachment: bool
    repeated: bool
    optional: bool
    enumeration: list[str] = field(default_factory=list)
    documentation: str = ""

    @property
    def label(self) -> str:
        """A human-friendly label derived from the element name."""
        words = re.sub(r"(?<!^)(?=[A-Z])", " ", self.name.replace("_", " ").replace("-", " "))
        return words[:1].upper() + words[1:]


class Schema:
    """A parsed schema: global elements plus named type definitions."""

    def __init__(self, target_namespace: Optional[str] = None) -> None:
        self.target_namespace = target_namespace
        self.elements: dict[str, ElementDeclaration] = {}
        self.complex_types: dict[str, ComplexType] = {}
        self.simple_types: dict[str, SimpleType] = {}
        self.annotations: list[str] = []
        # The default-root field walk and what validation resolves per
        # declaration / particle / simple type, all kept until the next
        # add_*().  The memos are keyed by id and hold the object, so its
        # id stays its own; a hit is checked by identity, as a copied or
        # unpickled schema carries the keys of the objects it was copied
        # from.
        self._root_fields: Optional[list[FieldInfo]] = None
        self._resolved: dict[int, tuple[ElementDeclaration, Resolved]] = {}
        self._groups: dict[int, tuple[Particle, Group]] = {}
        self._bases: dict[int, tuple[SimpleType, Base]] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def add_element(self, declaration: ElementDeclaration) -> ElementDeclaration:
        if declaration.name in self.elements:
            raise SchemaError(f"duplicate global element {declaration.name!r}")
        self.elements[declaration.name] = declaration
        self._forget()
        return declaration

    def add_complex_type(self, definition: ComplexType) -> ComplexType:
        if not definition.name:
            raise SchemaError("global complex types must be named")
        if definition.name in self.complex_types:
            raise SchemaError(f"duplicate complexType {definition.name!r}")
        self.complex_types[definition.name] = definition
        self._forget()
        return definition

    def add_simple_type(self, definition: SimpleType) -> SimpleType:
        if not definition.name:
            raise SchemaError("global simple types must be named")
        if definition.name in self.simple_types:
            raise SchemaError(f"duplicate simpleType {definition.name!r}")
        self.simple_types[definition.name] = definition
        self._forget()
        return definition

    def _forget(self) -> None:
        """Drop everything derived from the schema's content."""
        self._root_fields = None
        self._resolved.clear()
        self._groups.clear()
        self._bases.clear()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def root_element(self) -> ElementDeclaration:
        """The first global element declaration — the shared object's root."""
        if not self.elements:
            raise SchemaError("schema defines no global elements")
        return next(iter(self.elements.values()))

    def resolve_complex_type(self, declaration: ElementDeclaration) -> Optional[ComplexType]:
        """Return the complex type governing ``declaration``, if any."""
        if declaration.complex_type is not None:
            return declaration.complex_type
        if declaration.type_name:
            return self.complex_types.get(declaration.resolved_type_name())
        return None

    def resolve_simple_type(self, declaration: ElementDeclaration) -> Optional[SimpleType]:
        """Return the simple type governing ``declaration``, if any."""
        if declaration.simple_type is not None:
            return declaration.simple_type
        if declaration.type_name:
            name = declaration.resolved_type_name()
            if name in self.simple_types:
                return self.simple_types[name]
            if is_builtin(name):
                return SimpleType(name=None, base=name)
        return None

    def resolved(self, declaration: ElementDeclaration) -> Resolved:
        """:meth:`resolve_complex_type`, :meth:`resolve_simple_type` and
        the type name of ``declaration``, worked out on its first
        validation only (the publish path validates every object)."""
        memo = self._resolved.get(id(declaration))
        if memo is None or memo[0] is not declaration:
            memo = self._resolved[id(declaration)] = (declaration, Resolved(
                self.resolve_complex_type(declaration),
                self.resolve_simple_type(declaration),
                declaration.resolved_type_name(),
            ))
        return memo[1]

    def base_of(self, simple_type: SimpleType) -> Base:
        """:meth:`SimpleType.base_of` in this schema, looked up on the
        type's first validated value only."""
        memo = self._bases.get(id(simple_type))
        if memo is None or memo[0] is not simple_type:
            memo = self._bases[id(simple_type)] = (simple_type, simple_type.base_of(self))
        return memo[1]

    def group(self, particle: Particle) -> Group:
        """``particle``'s element declarations with their by-name map and
        order, collected on its first validation only."""
        memo = self._groups.get(id(particle))
        if memo is None or memo[0] is not particle:
            declarations = tuple(particle.element_declarations())
            memo = self._groups[id(particle)] = (particle, Group(
                declarations,
                {declaration.name: declaration for declaration in declarations},
                {declaration.name: index for index, declaration in enumerate(declarations)},
            ))
        return memo[1]

    # ------------------------------------------------------------------
    # Flattened field view (drives forms, search and indexing)
    # ------------------------------------------------------------------
    def fields(self, root: Optional[ElementDeclaration] = None) -> list[FieldInfo]:
        """Return the leaf fields of the (default: root) element, in order.

        The root walk — asked for by default or by passing the root
        declaration itself — is done once per schema content (the
        publish path asks for it several times per object); every call
        returns a fresh list of the shared :class:`FieldInfo` records.
        """
        if root is None or root is next(iter(self.elements.values()), None):
            if self._root_fields is None:
                walked: list[FieldInfo] = []
                self._collect_fields(self.root_element(), prefix="", out=walked, seen=set())
                self._root_fields = walked
            return list(self._root_fields)
        collected: list[FieldInfo] = []
        self._collect_fields(root, prefix="", out=collected, seen=set())
        return collected

    def searchable_fields(self, root: Optional[ElementDeclaration] = None) -> list[FieldInfo]:
        """Return only fields marked searchable.

        If the schema author marked *no* field as searchable every leaf
        field is considered searchable — matching the prototype's
        behaviour where unannotated schemas remained usable.
        """
        all_fields = self.fields(root)
        marked = [info for info in all_fields if info.searchable]
        return marked if marked else all_fields

    def attachment_fields(self, root: Optional[ElementDeclaration] = None) -> list[FieldInfo]:
        """Return fields flagged as file attachments."""
        return [info for info in self.fields(root) if info.attachment]

    def field_by_path(self, path: str) -> Optional[FieldInfo]:
        for info in self.fields():
            if info.path == path:
                return info
        return None

    def _collect_fields(
        self,
        declaration: ElementDeclaration,
        prefix: str,
        out: list[FieldInfo],
        seen: set[str],
        *,
        depth: int = 0,
    ) -> None:
        if depth > 12:
            return
        complex_type = self.resolve_complex_type(declaration)
        if complex_type is None or complex_type.particle is None:
            path = f"{prefix}{declaration.name}" if prefix else declaration.name
            simple = self.resolve_simple_type(declaration)
            enumeration = list(simple.facets.enumeration) if simple is not None else []
            type_name = declaration.resolved_type_name() or (
                simple.base if simple is not None else "string"
            )
            out.append(
                FieldInfo(
                    path=path,
                    name=declaration.name,
                    type_name=type_name or "string",
                    searchable=declaration.searchable,
                    attachment=declaration.attachment,
                    repeated=declaration.occurrence.is_repeated,
                    optional=declaration.occurrence.is_optional,
                    enumeration=enumeration,
                    documentation=declaration.documentation,
                )
            )
            return
        type_key = complex_type.name or id(complex_type)
        marker = f"{declaration.name}:{type_key}"
        if marker in seen:
            return
        seen.add(marker)
        child_prefix = f"{prefix}{declaration.name}/" if depth > 0 else ""
        for child in complex_type.element_declarations():
            self._collect_fields(child, child_prefix, out, seen, depth=depth + 1)
        seen.discard(marker)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """A short human-readable inventory of the schema."""
        root = self.root_element()
        lines = [f"root element: {root.name}"]
        for info in self.fields():
            flags = []
            if info.searchable:
                flags.append("searchable")
            if info.attachment:
                flags.append("attachment")
            if info.repeated:
                flags.append("repeated")
            if info.optional:
                flags.append("optional")
            suffix = f" ({', '.join(flags)})" if flags else ""
            lines.append(f"  {info.path}: {info.type_name}{suffix}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Schema elements={list(self.elements)} "
            f"complexTypes={list(self.complex_types)} simpleTypes={list(self.simple_types)}>"
        )
