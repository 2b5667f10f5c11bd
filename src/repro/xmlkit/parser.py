"""XML parsing: a thin layer over the standard library's expat.

The original U-P2P parsed its schemas, stylesheets and objects with
Xerces; :mod:`xml.parsers.expat` is CPython's counterpart.  Expat checks
XML 1.0 well-formedness (names, balanced tags, a single root, entity and
character references, legal characters) and applies the end-of-line
(§2.11) and attribute-value (§3.3.3) normalisations.  This module turns
its events into a :class:`~repro.xmlkit.dom.Document` and adds the one
check U-P2P documents need on top: namespace prefixes must resolve.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Optional, Union
from xml.parsers import expat

from repro.xmlkit.dom import Document, Element
from repro.xmlkit.errors import XMLParseError

# Under an external DTD (never read) expat drops an undeclared entity from an
# attribute value without any callback; these find one in the raw start tag.
_START_TAG = re.compile(rb"<(?:[^>\"']|\"[^\"]*\"|'[^']*')*>")
_UNDECLARED_REFERENCE = re.compile(rb"&(?!(?:lt|gt|amp|apos|quot);|#)")


def parse(text: str, *, check_namespaces: bool = True, keep_whitespace_text: bool = True) -> Document:
    """Parse an XML string into a :class:`Document`.

    ``check_namespaces`` (on by default) requires every prefixed element
    or attribute name to resolve to a declared namespace, as Xerces did
    for the original.  ``keep_whitespace_text=False`` drops character
    data runs that are whitespace only; a run ends at every tag, comment,
    processing instruction and CDATA section, and CDATA is always kept.
    Schema and stylesheet parsing use it to ignore indentation.

    Intentional restrictions, each refused with :class:`XMLParseError`
    where it applies:

    * a DOCTYPE with an internal subset is refused, so no entity is ever
      declared or expanded; an external DTD is never read, so a
      reference to any entity but the five predefined ones is refused;
    * names are not namespace-expanded: prefixes are checked, but tags
      and attribute names keep the prefixed spelling of the document;
    * the input is a ``str``, so a declared encoding is recorded on the
      :class:`Document`, not applied.
    """
    parser = expat.ParserCreate()
    parser.buffer_text = True
    version, encoding = "1.0", "UTF-8"
    standalone: Optional[bool] = None
    root: Optional[Element] = None
    stack: list[Element] = []
    run: list[str] = []
    raw: Optional[bytes] = None  # the encoded text, once an external DTD is named

    def error(message: str) -> XMLParseError:
        return XMLParseError(message, parser.CurrentLineNumber, parser.CurrentColumnNumber + 1)

    def end_run(cdata: bool = False) -> None:
        if not run:
            return
        value = "".join(run)
        run.clear()
        if keep_whitespace_text or cdata or value.strip():
            parent = stack[-1]
            if parent.children:
                parent.children[-1].tail += value
            else:
                parent.text += value

    def boundary(*_: str) -> None:
        end_run()

    def declaration(
        declared_version: str, declared_encoding: Optional[str], declared_standalone: int
    ) -> None:
        nonlocal version, encoding, standalone
        version, encoding = declared_version, declared_encoding or "UTF-8"
        standalone = None if declared_standalone < 0 else declared_standalone == 1

    def doctype(
        _name: str, system_id: Optional[str], _public_id: Optional[str], internal: bool
    ) -> None:
        nonlocal raw
        if internal:
            raise error("internal DTD subsets are not supported")
        if system_id is not None:
            raw = text.encode()

    def skipped_entity(name: str, _parameter: bool) -> None:
        raise error(f"undefined entity &{name};")

    def start_element(tag: str, attributes: dict[str, str]) -> None:
        nonlocal root
        end_run()
        if raw is not None:
            start_tag = _START_TAG.match(raw, parser.CurrentByteIndex)
            if start_tag and _UNDECLARED_REFERENCE.search(start_tag.group()):
                raise error("undefined entity in an attribute value")
        element = Element(tag, attributes)
        if stack:
            stack[-1].append(element)
        else:
            root = element
        stack.append(element)

    def end_element(_tag: str) -> None:
        end_run()
        element = stack.pop()
        if check_namespaces:
            _verify_namespaces(element, parser.CurrentLineNumber, parser.CurrentColumnNumber + 1)

    parser.XmlDeclHandler = declaration
    parser.StartDoctypeDeclHandler = doctype
    parser.SkippedEntityHandler = skipped_entity
    parser.StartElementHandler = start_element
    parser.EndElementHandler = end_element
    parser.CharacterDataHandler = run.append
    parser.CommentHandler = parser.ProcessingInstructionHandler = boundary
    parser.StartCdataSectionHandler = boundary
    parser.EndCdataSectionHandler = lambda: end_run(cdata=True)
    try:
        parser.Parse(text, True)
    except expat.ExpatError as failure:
        message = expat.ErrorString(failure.code)
        raise XMLParseError(message, failure.lineno, failure.offset + 1) from failure
    except UnicodeEncodeError as failure:  # a lone surrogate
        code = ord(text[failure.start])
        raise XMLParseError(f"character U+{code:04X} is not allowed in XML") from failure
    assert root is not None  # expat reports "no element found" otherwise
    return Document(root, version=version, encoding=encoding, standalone=standalone)


def _verify_namespaces(element: Element, line: int, column: int) -> None:
    if ":" in element.tag and element.namespace is None:
        raise XMLParseError(f"undeclared namespace prefix {element.prefix!r}", line, column)
    for name in element.attributes:
        prefix = name.split(":", 1)[0]
        if ":" in name and prefix not in ("xml", "xmlns") and element.resolve_prefix(prefix) is None:
            raise XMLParseError(
                f"undeclared namespace prefix {prefix!r} on attribute {name!r}", line, column
            )


def parse_file(path: Union[str, Path], **options: bool) -> Document:
    """Parse the XML file at ``path``."""
    data = Path(path).read_text(encoding="utf-8")
    return parse(data, **options)
