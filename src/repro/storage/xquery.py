"""A richer query language over stored XML objects (paper §VI future work).

The paper's future-work section proposes "replacing CMIP-based queries
with richer languages such as the XML Query language".  This module adds
that richer language: a small FLWOR-style query (``for … where …
return``) evaluated over the XML documents of a repository rather than
over the flattened attribute index.

Example
-------
>>> from repro.storage.xquery import XQueryLite
>>> query = XQueryLite.parse(
...     'for $p in pattern where $p/category = "behavioral" '
...     'and contains($p/intent, "state") return $p/name'
... )

The language supports:

* one ``for`` variable bound to every stored object whose root element
  matches the given name (or ``*``),
* a ``where`` clause built from the XPath-expression subset of
  :mod:`repro.xslt.expressions` (comparisons, and/or, contains(),
  starts-with(), count(), not() …) with ``$var/path`` references,
* a ``return`` clause projecting either the whole object or a path
  inside it.

It deliberately is not full XQuery; it is the structured counterpart of
what the paper sketches, and the tests treat the attribute-index search
as the baseline it must agree with.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

from repro.storage.document_store import StoredObject
from repro.storage.errors import QueryError
from repro.storage.repository import LocalRepository
from repro.xmlkit.dom import Element
from repro.xslt.expressions import EvalContext, evaluate_boolean, evaluate_string

_QUERY_RE = re.compile(
    r"^\s*for\s+\$(?P<var>[A-Za-z_][\w]*)\s+in\s+(?P<source>[\w*:-]+)"
    r"(?:\s+where\s+(?P<where>.+?))?"
    r"\s+return\s+(?P<return>.+?)\s*$",
    re.IGNORECASE | re.DOTALL,
)


@dataclass(frozen=True)
class XQueryResult:
    """One item produced by a query's return clause."""

    resource_id: str
    value: Union[str, Element]

    def as_text(self) -> str:
        if isinstance(self.value, Element):
            return self.value.text_content().strip()
        return self.value


@dataclass(frozen=True)
class XQueryLite:
    """A parsed ``for … where … return`` query."""

    variable: str
    source: str
    where: Optional[str]
    returns: str

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "XQueryLite":
        """Parse the textual form of a query."""
        match = _QUERY_RE.match(text)
        if match is None:
            raise QueryError(
                "cannot parse query; expected 'for $x in <element> [where <expr>] return <expr>'"
            )
        return cls(
            variable=match.group("var"),
            source=match.group("source"),
            where=(match.group("where") or "").strip() or None,
            returns=match.group("return").strip(),
        )

    # ------------------------------------------------------------------
    def evaluate(self, repository: LocalRepository, community_id: str) -> list[XQueryResult]:
        """Run the query over one community of a repository."""
        results: list[XQueryResult] = []
        for stored in repository.documents.objects_in(community_id):
            results.extend(self.evaluate_object(stored))
        return results

    def evaluate_object(self, stored: StoredObject) -> list[XQueryResult]:
        """Run the query against a single stored object."""
        document = stored.document
        if self.source != "*" and document.local_name != self.source:
            return []
        context = EvalContext(node=document)
        if self.where and not evaluate_boolean(self._rewrite(self.where), context):
            return []
        return_expr = self._rewrite(self.returns)
        if return_expr in (".", f"${self.variable}"):
            return [XQueryResult(stored.resource_id, document)]
        value = evaluate_string(return_expr, context)
        return [XQueryResult(stored.resource_id, value)]

    # ------------------------------------------------------------------
    def _rewrite(self, expression: str) -> str:
        """Rewrite ``$var/path`` references to context-relative paths."""
        variable = re.escape(self.variable)
        rewritten = re.sub(rf"\${variable}\s*/", "", expression)
        rewritten = re.sub(rf"\${variable}\b", ".", rewritten)
        if "$" in rewritten:
            raise QueryError(f"unknown variable reference in {expression!r}")
        return rewritten


def xquery(repository: LocalRepository, community_id: str, text: str) -> list[XQueryResult]:
    """Parse and evaluate ``text`` against a repository community."""
    return XQueryLite.parse(text).evaluate(repository, community_id)
