"""Parse XSLT stylesheet documents into the stylesheet model."""

from __future__ import annotations

from typing import Union

from repro.xmlkit.dom import Document, Element, XSLT_NAMESPACE
from repro.xmlkit.errors import XMLParseError
from repro.xmlkit.parser import parse as parse_xml
from repro.xslt.errors import XSLTParseError
from repro.xslt.model import Stylesheet, TemplateRule

_TRUE_VALUES = ("yes", "true", "1")


def parse_stylesheet_text(text: str) -> Stylesheet:
    """Parse an XSLT stylesheet from its textual form."""
    try:
        document = parse_xml(text, check_namespaces=False, keep_whitespace_text=True)
    except XMLParseError as error:
        raise XSLTParseError(f"stylesheet is not well-formed XML: {error}") from error
    return parse_stylesheet(document)


def parse_stylesheet(document: Union[Document, Element]) -> Stylesheet:
    """Parse a pre-parsed XML document into a :class:`Stylesheet`."""
    root = document.root if isinstance(document, Document) else document
    if root.local_name not in ("stylesheet", "transform"):
        raise XSLTParseError(
            f"expected an <xsl:stylesheet> document, found <{root.local_name}>"
        )
    if root.namespace not in (None, XSLT_NAMESPACE):
        raise XSLTParseError(f"unexpected stylesheet namespace {root.namespace!r}")
    stylesheet = Stylesheet()
    for child in root.children:
        name = child.local_name
        if name == "template":
            stylesheet.add_template(_parse_template(child))
        elif name == "output":
            stylesheet.output_method = child.get("method", "xml")
            stylesheet.output_indent = child.get("indent", "no") in _TRUE_VALUES
        elif name == "strip-space":
            stylesheet.strip_space = True
        elif name == "preserve-space":
            stylesheet.strip_space = False
        elif name in ("variable", "param"):
            variable_name = child.get("name", "")
            if not variable_name:
                raise XSLTParseError("top-level xsl:variable is missing a name")
            stylesheet.global_variables[variable_name] = child.get(
                "select", ""
            ).strip("'\"") or child.text_content().strip()
        elif name in ("import", "include"):
            raise XSLTParseError("xsl:import / xsl:include are not supported")
        else:
            # Comments, attribute-sets etc. are ignored; unknown top-level
            # literal elements are an authoring error worth reporting.
            if _is_xsl(child):
                raise XSLTParseError(f"unsupported top-level instruction <xsl:{name}>")
    if not stylesheet.templates and not stylesheet.named_templates:
        raise XSLTParseError("stylesheet defines no templates")
    return stylesheet


def _parse_template(node: Element) -> TemplateRule:
    match = node.get("match", "")
    name = node.get("name", "")
    if not match and not name:
        raise XSLTParseError("xsl:template needs a 'match' pattern or a 'name'")
    priority_text = node.get("priority")
    params = [child.get("name", "") for child in node.children
              if _is_xsl(child) and child.local_name == "param"]
    rule = TemplateRule(
        match=match,
        name=name,
        priority=float(priority_text) if priority_text else None,
        mode=node.get("mode", ""),
        params=[param for param in params if param],
        body=[child for child in node.children
              if not (_is_xsl(child) and child.local_name == "param")],
        body_text=node.text,
    )
    return rule


def _is_xsl(node: Element) -> bool:
    """True if the element is an XSLT instruction (by namespace or prefix)."""
    if node.namespace == XSLT_NAMESPACE:
        return True
    return node.prefix == "xsl"
