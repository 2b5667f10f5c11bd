"""HTML serialization of XSLT result trees.

The original U-P2P rendered its Create / Search / View screens as HTML
in a web browser.  The ``html`` output method differs from XML in a few
ways that matter for forms: void elements (``<input>``, ``<br>`` …) are
never closed, non-void empty elements get explicit end tags, and
boolean attributes may be minimized.
"""

from __future__ import annotations

from typing import Sequence, Union

from repro.xmlkit.dom import Element
from repro.xmlkit.escape import escape_attribute, escape_text

VOID_ELEMENTS = {
    "area", "base", "br", "col", "embed", "hr", "img", "input",
    "link", "meta", "param", "source", "track", "wbr",
}

_BOOLEAN_ATTRIBUTES = {"checked", "selected", "disabled", "readonly", "multiple", "required"}


def render_html(nodes: Sequence[Union[Element, str]]) -> str:
    """Serialize result-tree nodes as an HTML fragment."""
    parts: list[str] = []
    for node in nodes:
        if isinstance(node, Element):
            _write_html(node, parts)
        else:
            parts.append(escape_text(node))
    return "".join(parts)


def _write_html(element: Element, parts: list[str]) -> None:
    tag = element.local_name.lower() if element.prefix in ("", "html") else element.tag
    parts.append(f"<{tag}")
    for name, value in element.attributes.items():
        if name.startswith("xmlns"):
            continue
        if name.lower() in _BOOLEAN_ATTRIBUTES and value in ("", name, "true"):
            parts.append(f" {name.lower()}")
        else:
            parts.append(f' {name}="{escape_attribute(value)}"')
    parts.append(">")
    if tag in VOID_ELEMENTS:
        return
    if element.text:
        parts.append(escape_text(element.text))
    for child in element.children:
        _write_html(child, parts)
        if child.tail:
            parts.append(escape_text(child.tail))
    parts.append(f"</{tag}>")
