"""Serialization of the element tree back to XML (and canonical forms)."""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from repro.xmlkit.dom import Document, Element
from repro.xmlkit.escape import escape_attribute, escape_text

Node = Union[Document, Element]

_new_element = Element.__new__


class CanonicalForm(NamedTuple):
    """What one walk of a tree gives (:func:`canonical_form`)."""

    #: the tree's :func:`canonical` text
    text: str
    #: ``len(serialize(node, xml_declaration=False).encode("utf-8"))``
    size_bytes: int
    #: a deep copy of the tree, parent link cleared, as :meth:`Element.copy` makes
    copy: Element


def serialize(node: Node, *, xml_declaration: bool = True) -> str:
    """Serialize a document or element to a compact XML string."""
    element, declaration = _unwrap(node, xml_declaration)
    parts: list[str] = []
    if declaration:
        parts.append(declaration)
    _write_element(element, parts, indent=None, level=0)
    return "".join(parts)


def pretty(node: Node, *, indent: str = "  ", xml_declaration: bool = True) -> str:
    """Serialize with indentation, suitable for humans and docs.

    Elements that contain non-whitespace text keep their text inline so
    mixed content is not corrupted by added whitespace.
    """
    element, declaration = _unwrap(node, xml_declaration)
    parts: list[str] = []
    if declaration:
        parts.append(declaration + "\n")
    _write_element(element, parts, indent=indent, level=0)
    parts.append("\n")
    return "".join(parts)


def canonical(node: Node) -> str:
    """A canonical-ish form used for hashing and structural comparison.

    Attributes are emitted in sorted order, whitespace-only text is
    dropped and no XML declaration is included.  Two structurally equal
    trees produce identical canonical strings.
    """
    parts: list[str] = []
    _walk(_root(node), parts, None, None)
    return "".join(parts)


def canonical_form(node: Node) -> CanonicalForm:
    """The canonical text, the compact serialisation's UTF-8 size and a
    deep copy of ``node``'s tree, from one walk of it.

    Every text, tail and attribute is escaped once and serves both
    forms, so a character illegal in XML output raises
    :class:`~repro.xmlkit.errors.XMLSerializeError` exactly where
    :func:`serialize` or :func:`canonical` would.  The compact string
    itself is never built: its length is added up piece by piece.
    """
    parts: list[str] = []
    copies: list[Element] = []
    size = _walk(_root(node), parts, copies, None)
    return CanonicalForm("".join(parts), size, copies[0])


# ----------------------------------------------------------------------
def _unwrap(node: Node, xml_declaration: bool) -> tuple[Element, str]:
    if isinstance(node, Document):
        declaration = ""
        if xml_declaration:
            declaration = f'<?xml version="{node.version}" encoding="{node.encoding}"?>'
        return node.root, declaration
    declaration = '<?xml version="1.0" encoding="UTF-8"?>' if xml_declaration else ""
    return node, declaration


def _open_tag(element: Element) -> str:
    chunks = [f"<{element.tag}"]
    for name, value in element.attributes.items():
        chunks.append(f' {name}="{escape_attribute(value)}"')
    return "".join(chunks)


def _write_element(element: Element, parts: list[str], *, indent: Union[str, None], level: int) -> None:
    pad = "" if indent is None else "\n" + indent * level if parts else indent * level
    if indent is not None:
        if parts and not parts[-1].endswith("\n"):
            parts.append("\n")
        parts.append(indent * level)
    parts.append(_open_tag(element))
    has_text = bool(element.text.strip())
    if not element.children and not has_text:
        parts.append("/>")
        return
    parts.append(">")
    if has_text or indent is None:
        parts.append(escape_text(element.text))
    for child in element.children:
        _write_element(child, parts, indent=indent, level=level + 1)
        if indent is None or child.tail.strip():
            parts.append(escape_text(child.tail))
    if element.children and indent is not None and not has_text:
        parts.append("\n")
        parts.append(indent * level)
    parts.append(f"</{element.tag}>")
    del pad  # kept for readability of the indenting logic above


def _root(node: Node) -> Element:
    return node.root if isinstance(node, Document) else node


def _walk(element: Element, parts: list[str], copies: Optional[list[Element]],
          parent: Optional[Element]) -> int:
    """Append ``element``'s canonical form to ``parts`` and, unless
    ``copies`` is None, its copy (whose parent is ``parent``) to
    ``copies``; return the UTF-8 length of its compact serialisation."""
    tag = element.tag
    local = tag.split(":", 1)[1] if ":" in tag else tag
    attributes = element.attributes
    tag_size = len(tag) if tag.isascii() else len(tag.encode("utf-8"))
    size = 1 + tag_size  # "<tag"
    parts.append("<" + local)
    if attributes:
        named: list[tuple[str, str]] = []
        for name, value in attributes.items():
            escaped = escape_attribute(value)
            # ' name="value"'
            size += 4 + len(name) + len(escaped)
            if not (name.isascii() and escaped.isascii()):
                size += (len(name.encode("utf-8")) - len(name)
                         + len(escaped.encode("utf-8")) - len(escaped))
            if not name.startswith("xmlns"):
                named.append((name, escaped))
        named.sort()
        for name, escaped in named:
            parts.append(f' {name.split(":", 1)[-1]}="{escaped}"')
    parts.append(">")
    text = element.text
    children = element.children
    has_text = False
    if text:
        stripped = text.strip()
        has_text = bool(stripped)
        if has_text or children:
            size += _escaped_size(text, stripped, parts)
    # "/>", or ">" ... "</tag>"
    size += 2 if not children and not has_text else 4 + tag_size
    kids: Optional[list[Element]] = None
    clone: Optional[Element] = None
    if copies is not None:
        # Slot by slot: Element.__init__ would rescan the attributes
        # for namespace declarations that ``nsmap`` already holds.
        clone = _new_element(Element)
        clone.tag = tag
        clone.attributes = attributes.copy() if attributes else {}
        clone.children = kids = []
        clone.text = text
        clone.tail = element.tail
        clone.parent = parent
        nsmap = element.nsmap
        clone.nsmap = nsmap.copy() if nsmap else {}
        copies.append(clone)
    for child in children:
        size += _walk(child, parts, kids, clone)
        tail = child.tail
        if tail:
            size += _escaped_size(tail, tail.strip(), parts)
    parts.append(f"</{local}>")
    return size


def _escaped_size(text: str, stripped: str, parts: list[str]) -> int:
    """Escape ``text`` once: append the escaped ``stripped`` to
    ``parts`` unless it is empty, and return the UTF-8 length of the
    escaped ``text``."""
    escaped = escape_text(text)
    if stripped:
        if len(stripped) == len(text):
            parts.append(escaped)
        elif "\r" in text:
            # stripping may have taken a CR that escaping turned into "&#13;"
            parts.append(escape_text(stripped))
        else:
            parts.append(escaped.strip())
    return len(escaped) if escaped.isascii() else len(escaped.encode("utf-8"))
