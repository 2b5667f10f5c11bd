"""Shared-structure interning for metadata carried by many copies.

At population scale the same searchable metadata travels everywhere: a
corpus object published by one peer is advertised to super-peers,
catalogued by the index server, leased to rendezvous points and carried
inside every :class:`~repro.network.base.SearchResult` it produces.
Each copy used to materialize its own ``{path: (values...)}`` mapping
with its own value tuples — at 10k peers that is tens of thousands of
identical tuples holding identical strings.

This module provides one canonical copy per distinct content:

* :func:`intern_values` returns a canonical tuple of interned strings
  for a value sequence — two objects sharing a field value share one
  tuple object and one string object;
* :func:`intern_view` builds a metadata view whose paths, tuples and
  strings are all canonical;
* :func:`value_forms` returns one indexed value's canonical
  ``(value, value_lower, tokens)``, tokenised once per process however
  many indexes (a peer's own, every index point it announces to) hold it;
* :func:`tokens_of` reads a value's tokens from that table without
  adding to it (``build_query_workload`` re-reads the corpus publish
  just indexed).

The tables are keyed by content, so growth is bounded by the number of
*distinct* field values in play (the corpus vocabulary), not by the
number of peers or copies, and their entries reference the strings and
tuples the indexes keep alive anyway.  Interning never changes
equality — only identity — so indexes, caches and wire-size accounting
behave bit-identically with or without it (pinned by the contract
suite).
"""

from __future__ import annotations

import re
import sys
from typing import Iterable, Mapping, Sequence

_TOKEN_RE = re.compile(r"[A-Za-z0-9]+")

_TUPLES: dict[tuple[str, ...], tuple[str, ...]] = {}
_FORMS: dict[str, tuple[str, str, tuple[str, ...]]] = {}


def tokenize(text: str) -> list[str]:
    """Lower-case word tokens of ``text``.

    Tokens are found first and lowered each.  Lowering first would
    admit letters whose lower case is ASCII: ``'İstanbul'`` would give
    ``['i', 'stanbul']``, not ``['stanbul']``, and ``'Kelvin'`` spelt
    with the Kelvin sign (U+212A) ``['kelvin']``, not ``['elvin']``.
    """
    return [token.lower() for token in _TOKEN_RE.findall(text)]


def intern_values(values: Iterable[str]) -> tuple[str, ...]:
    """Canonical tuple of interned strings equal to ``tuple(values)``."""
    key = tuple(values)
    cached = _TUPLES.get(key)
    if cached is None:
        cached = tuple(sys.intern(value) for value in key)
        _TUPLES[cached] = cached
    return cached


def intern_view(metadata: Mapping[str, Iterable[str]]) -> dict[str, tuple[str, ...]]:
    """A metadata view (path → value tuple) built from canonical parts."""
    return {sys.intern(path): intern_values(values)
            for path, values in metadata.items()}


def value_forms(value: str) -> tuple[str, str, tuple[str, ...]]:
    """``(value, value.lower(), tokens)`` of a stripped, non-blank value,
    every part canonical, computed on the value's first use only."""
    forms = _FORMS.get(value)
    if forms is None:
        value = sys.intern(value)
        forms = _FORMS[value] = (value, sys.intern(value.lower()),
                                 intern_values(tokenize(value)))
    return forms


def tokens_of(value: str) -> Sequence[str]:
    """``tokenize(value)``, read from :func:`value_forms`' table when the
    value is already there; a value that is not is tokenised afresh and
    left out of it, so no table grows."""
    forms = _FORMS.get(value)
    return forms[2] if forms is not None else tokenize(value)


def clear() -> None:
    """Drop the tables (test isolation; canonical copies re-form lazily)."""
    _TUPLES.clear()
    _FORMS.clear()
