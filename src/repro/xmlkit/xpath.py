"""A small XPath subset sufficient for U-P2P's needs.

Supported syntax
----------------
* relative and absolute location paths: ``a/b/c``, ``/community/name``
* the descendant shortcut: ``//pattern`` and ``a//b``
* wildcards: ``*``
* the self and parent steps: ``.`` and ``..``
* attribute steps: ``@name`` and ``@*``
* text nodes: ``text()``
* predicates: positional ``[2]``, ``[last()]``, attribute equality
  ``[@a='v']``, child-value equality ``[name='v']`` and existence
  ``[@a]`` / ``[name]``.  As in XPath 1.0, a position counts among the
  candidates one parent contributes: ``a/b[1]`` and ``//b[1]`` select
  the first ``b`` of every parent.
* union expressions: ``a | b``

Only abbreviated steps (and the ``child::`` spelling) are accepted; any
other ``axis::`` is refused.

This covers every path used by the default stylesheets, the searchable-
field annotations (``upsearch`` in the original prototype) and the index
filter stylesheets of the case study.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

from repro.xmlkit.dom import Document, Element
from repro.xmlkit.errors import XPathError

_PREDICATE_RE = re.compile(r"\[([^\]]*)\]")


@dataclass(frozen=True)
class Predicate:
    """A single ``[...]`` filter applied to a step's node set."""

    kind: str                      # 'index' | 'last' | 'attr-eq' | 'attr-exists' | 'child-eq' | 'child-exists'
    name: str = ""
    value: str = ""
    index: int = 0

    def matches(self, element: Element, position: int, size: int) -> bool:
        if self.kind == "index":
            return position == self.index
        if self.kind == "last":
            return position == size
        if self.kind == "attr-eq":
            if self.name == "*":
                return self.value in element.attributes.values()
            return element.get_local(self.name) == self.value
        if self.kind == "attr-exists":
            if self.name == "*":
                return bool(element.attributes)
            return element.get_local(self.name) is not None
        if self.kind == "child-eq":
            child = element.find(self.name)
            return child is not None and child.text_content().strip() == self.value
        if self.kind == "child-exists":
            return element.find(self.name) is not None
        raise XPathError(f"unknown predicate kind {self.kind!r}")


@dataclass(frozen=True)
class Step:
    """One step of a location path."""

    axis: str                      # 'child' | 'descendant' | 'self' | 'parent' | 'attribute' | 'text'
    name: str = "*"
    predicates: tuple[Predicate, ...] = field(default_factory=tuple)


class XPath:
    """A compiled XPath expression (a union of location paths)."""

    def __init__(self, expression: str) -> None:
        expression = expression.strip()
        if not expression:
            raise XPathError("empty XPath expression")
        self.expression = expression
        self._paths = [_compile_path(part.strip()) for part in expression.split("|")]

    # ------------------------------------------------------------------
    def select(self, context: Union[Document, Element]) -> list[Union[Element, str]]:
        """Evaluate against ``context`` and return matching nodes.

        Element steps yield :class:`Element` objects; attribute and
        ``text()`` steps yield strings.
        """
        root = context.root if isinstance(context, Document) else context
        results: list[Union[Element, str]] = []
        seen: set[int] = set()
        for absolute, steps in self._paths:
            start: list[Element] = [_document_start(root)] if absolute else [root]
            for node in _evaluate_steps(start, steps):
                # Identity-only dedup: every yielded node is kept alive by
                # ``results``, so id() is injective here, and two live
                # objects can never collide.  (The historical
                # ``id ^ hash`` variant mixed in the per-process str-hash
                # salt for no discriminating power — equal-but-distinct
                # strings already differ by id.)
                marker = id(node)
                if marker not in seen:
                    seen.add(marker)
                    results.append(node)
        return results

    def select_elements(self, context: Union[Document, Element]) -> list[Element]:
        """Like :meth:`select` but keeps only element nodes."""
        return [node for node in self.select(context) if isinstance(node, Element)]

    def first(self, context: Union[Document, Element]) -> Optional[Union[Element, str]]:
        """Return the first match or None."""
        matches = self.select(context)
        return matches[0] if matches else None

    def string_value(self, context: Union[Document, Element]) -> str:
        """Return the string value of the first match ('' when empty)."""
        match = self.first(context)
        if match is None:
            return ""
        if isinstance(match, Element):
            return match.text_content().strip()
        return match

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"XPath({self.expression!r})"


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
def _compile_path(path: str) -> tuple[bool, list[Step]]:
    if not path:
        raise XPathError("empty location path in expression")
    absolute = path.startswith("/")
    descendant_next = False
    steps: list[Step] = []
    # Normalise '//' into a marker between steps.
    raw = path
    if absolute:
        raw = raw[1:]
        if raw.startswith("/"):          # expression began with '//'
            descendant_next = True
            raw = raw[1:]
    pieces: list[str] = []
    buffer = ""
    index = 0
    while index < len(raw):
        char = raw[index]
        if char == "/":
            pieces.append(buffer)
            buffer = ""
            if index + 1 < len(raw) and raw[index + 1] == "/":
                pieces.append("//")
                index += 1
            index += 1
            continue
        buffer += char
        index += 1
    pieces.append(buffer)

    for piece in pieces:
        if piece == "//":
            descendant_next = True
            continue
        if piece == "":
            continue
        axis = "descendant" if descendant_next else "child"
        descendant_next = False
        steps.append(_compile_step(piece, axis))
    if not steps:
        steps.append(Step(axis="self", name="*"))
    return absolute, steps


def _compile_step(piece: str, axis: str) -> Step:
    predicates: list[Predicate] = []
    for body in _PREDICATE_RE.findall(piece):
        predicates.append(_compile_predicate(body.strip()))
    name_part = _PREDICATE_RE.sub("", piece).strip()
    if name_part == ".":
        return Step(axis="self", name="*", predicates=tuple(predicates))
    if name_part == "..":
        return Step(axis="parent", name="*", predicates=tuple(predicates))
    if name_part == "text()":
        return Step(axis="text", predicates=tuple(predicates))
    if name_part.startswith("@"):
        return Step(axis="attribute", name=name_part[1:] or "*", predicates=tuple(predicates))
    if name_part.startswith("child::"):
        name_part = name_part[len("child::"):]
    if not name_part or "[" in name_part or "]" in name_part or "::" in name_part:
        raise XPathError(f"cannot parse location step {piece!r}")
    return Step(axis=axis, name=name_part, predicates=tuple(predicates))


def _compile_predicate(body: str) -> Predicate:
    if not body:
        raise XPathError("empty predicate []")
    if body == "last()":
        return Predicate(kind="last")
    if body.isdigit():
        return Predicate(kind="index", index=int(body))
    if "=" in body:
        left, right = body.split("=", 1)
        left = left.strip()
        value = right.strip().strip("'\"")
        if left.startswith("@"):
            return Predicate(kind="attr-eq", name=left[1:], value=value)
        if left == "text()" or left == ".":
            return Predicate(kind="child-eq", name=".", value=value)
        return Predicate(kind="child-eq", name=left, value=value)
    if body.startswith("@"):
        return Predicate(kind="attr-exists", name=body[1:])
    return Predicate(kind="child-exists", name=body)


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------
def _document_root(element: Element) -> Element:
    node = element
    while node.parent is not None:
        node = node.parent
    return node


def _document_start(element: Element) -> Element:
    """The starting node for absolute paths.

    Absolute paths are evaluated from the *document node*, whose only
    child is the outermost element.  When the tree already carries a
    synthetic ``#document`` wrapper (the XSLT engine adds one) it is
    used directly; otherwise a detached wrapper is built on the fly so
    that ``/library/book`` can match the document element by name
    without mutating the tree.
    """
    top = _document_root(element)
    if top.tag == "#document":
        return top
    wrapper = Element("#document")
    wrapper.children = [top]  # deliberately not re-parenting `top`
    return wrapper


def _name_matches(step_name: str, element: Element) -> bool:
    return step_name == "*" or element.local_name == step_name or element.tag == step_name


def _evaluate_steps(start: Sequence[Element], steps: Sequence[Step]) -> Iterable[Union[Element, str]]:
    current: list[Union[Element, str]] = list(start)
    for step in steps:
        elements = [node for node in current if isinstance(node, Element)]
        # (origin, candidate) pairs; a predicate position counts per origin:
        # the context node, or for '//' (descendant-or-self::node()/child::)
        # the candidate's parent.
        candidates: list[tuple[Optional[Element], Element]]
        if step.axis == "self":
            candidates = [(node, node) for node in elements]
        elif step.axis == "parent":
            candidates = [(node, node.parent) for node in elements if node.parent is not None]
        elif step.axis == "child":
            candidates = [
                (node, child)
                for node in elements
                for child in node.children
                if _name_matches(step.name, child)
            ]
        elif step.axis == "descendant":
            candidates = [
                (descendant.parent, descendant)
                for node in elements
                for descendant in node.iter()
                if descendant is not node and _name_matches(step.name, descendant)
            ]
        elif step.axis == "attribute":
            values: list[Union[Element, str]] = []
            for node in elements:
                if step.name == "*":
                    values.extend(node.attributes.values())
                else:
                    value = node.get_local(step.name)
                    if value is not None:
                        values.append(value)
            current = values
            continue
        elif step.axis == "text":
            current = [node.text_content() for node in elements]
            continue
        else:  # pragma: no cover - defensive
            raise XPathError(f"unsupported axis {step.axis!r}")
        current = list(_apply_predicates(candidates, step.predicates))
    return current


def _apply_predicates(
    candidates: list[tuple[Optional[Element], Element]], predicates: Sequence[Predicate]
) -> list[Element]:
    for predicate in predicates:
        sizes = Counter(origin for origin, _ in candidates)
        positions: Counter[Optional[Element]] = Counter()
        kept = []
        for origin, node in candidates:
            positions[origin] += 1
            if predicate.matches(node, positions[origin], sizes[origin]):
                kept.append((origin, node))
        candidates = kept
    return [node for _, node in candidates]


# ----------------------------------------------------------------------
# Convenience functions
# ----------------------------------------------------------------------
def xpath_find(context: Union[Document, Element], expression: str) -> Optional[Union[Element, str]]:
    """Return the first node matching ``expression`` under ``context``."""
    return XPath(expression).first(context)


def xpath_find_all(context: Union[Document, Element], expression: str) -> list[Union[Element, str]]:
    """Return every node matching ``expression`` under ``context``."""
    return XPath(expression).select(context)
