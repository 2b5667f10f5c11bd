"""Error and report types for the schema substrate."""

from __future__ import annotations

from dataclasses import dataclass


class SchemaError(Exception):
    """Base class for schema-layer errors."""


class SchemaParseError(SchemaError):
    """Raised when an XSD document cannot be interpreted."""


@dataclass(frozen=True)
class ValidationError:
    """One validation problem found in an instance document.

    ``path`` is the slash-separated element path from the document root
    to the offending node, ``code`` is a stable machine-readable
    identifier and ``message`` is the human-readable explanation.
    """

    path: str
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: [{self.code}] {self.message}"
