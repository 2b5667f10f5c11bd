"""Character escaping for serialization (parsing is expat's job)."""

from __future__ import annotations

import re

from repro.xmlkit.errors import XMLSerializeError

# Characters legal in XML 1.0 documents.
_ILLEGAL_TEXT_RE = re.compile(
    "[^\x09\x0a\x0d\x20-퟿-�\U00010000-\U0010ffff]"
)


def escape_text(text: str) -> str:
    """Escape character data for serialization.

    A carriage return is written as ``&#13;``: a raw one would be read
    back as a line feed (XML 1.0 §2.11).
    """
    _check_serializable(text)
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace("\r", "&#13;")
    )


def escape_attribute(value: str) -> str:
    """Escape an attribute value for serialization in double quotes.

    Line feeds, tabs and carriage returns become character references,
    since a parser normalises raw ones to spaces (XML 1.0 §3.3.3).
    """
    _check_serializable(value)
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace('"', "&quot;")
        .replace("\n", "&#10;")
        .replace("\t", "&#9;")
        .replace("\r", "&#13;")
    )


def _check_serializable(text: str) -> None:
    match = _ILLEGAL_TEXT_RE.search(text)
    if match is not None:
        raise XMLSerializeError(
            f"character U+{ord(match.group(0)):04X} cannot appear in XML output"
        )
