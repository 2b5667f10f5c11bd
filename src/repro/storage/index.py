"""Inverted index over searchable attribute values.

The paper requires that "fields defined in a community schema must be
marked searchable for them to form part of a search query.  This allows
only fields with small portions of content to be present in the search
engine instead of the entire XML object."  The :class:`AttributeIndex`
is that search engine: it stores, per community and field path, both
the exact value and its word tokens, so queries can do exact matching
(enumerations, identifiers) and keyword matching (descriptions).

Postings are sorted ``array('I')`` lists of small numeric ids (one
number per indexed object, mapped through a per-index id table),
intersected by galloping binary search.  A posting entry costs 4 bytes
instead of a hashed set slot holding a 40-character resource-id string,
which is what lets 10k–100k peer populations hold their indexes in RAM.
Numeric ids are resolved back to resource-id strings at the boundary,
and every consumer sorts result ids before use, so the id mapping is
never observable in results, counts or bytes.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from typing import Iterable, NamedTuple, Optional, Sequence

from repro.storage.interning import tokenize, value_forms

#: shared empty posting returned by the non-copying lookups, so a miss
#: costs no allocation (callers must treat postings as read-only)
EMPTY_IDS = array("I")


class IndexEntry(NamedTuple):
    """One indexed (field, value) pair of one object.

    The entry carries its normalized form (``value_lower``) and word
    tokens, taken at ``add`` time from :func:`value_forms`, so
    :meth:`AttributeIndex.remove` never re-tokenizes stored values.  All
    three are canonical: every index holding the same corpus value
    references one string/tuple instead of its own copy.
    """

    community_id: str
    resource_id: str
    field_path: str
    value: str
    value_lower: str
    tokens: tuple[str, ...]


def _post(postings: dict[str, array], key: str, numeric_id: int) -> None:
    """Add ``numeric_id`` to the sorted posting of ``key`` (set semantics).

    An id past the posting's last one is appended; only a reused id (the
    free list hands out low ones) or a repeat pays the binary search.
    """
    bucket = postings.get(key)
    if bucket is None:
        postings[key] = array("I", (numeric_id,))
    elif bucket[-1] < numeric_id:
        bucket.append(numeric_id)
    else:
        position = bisect_left(bucket, numeric_id)
        if bucket[position] != numeric_id:
            bucket.insert(position, numeric_id)


def _discard_id(bucket: array, numeric_id: int) -> None:
    """Remove ``numeric_id`` from a sorted posting array if present."""
    position = bisect_left(bucket, numeric_id)
    if position < len(bucket) and bucket[position] == numeric_id:
        del bucket[position]


def _gallop_intersect(small: array, large: array) -> array:
    """Members of sorted ``small`` also in sorted ``large``.

    Walks the smaller posting and locates each id in the larger one by
    binary search from a moving lower bound — the classic galloping
    strategy, O(|small| · log |large|) instead of a linear merge, which
    is the right trade when selective criteria meet broad ones.
    """
    out = array("I")
    append = out.append
    low, high = 0, len(large)
    for numeric_id in small:
        low = bisect_left(large, numeric_id, low, high)
        if low == high:
            break
        if large[low] == numeric_id:
            append(numeric_id)
            low += 1
    return out


def intersect_postings(arrays: list[array], id_sets: list[set[int]]) -> array | set[int]:
    """Ids present in every posting; postings may be sorted arrays
    (exact/keyword buckets, treated read-only) or ``set[int]`` objects
    (prefix/any-field matches, freshly computed so mutable in place).
    Returns an iterable of numeric ids (a sorted array or a set)."""
    if arrays:
        arrays = sorted(arrays, key=len)
        accumulated = arrays[0]
        for other in arrays[1:]:
            if len(accumulated) <= len(other):
                accumulated = _gallop_intersect(accumulated, other)
            else:
                accumulated = _gallop_intersect(other, accumulated)
            if not accumulated:
                return accumulated
        if not id_sets:
            return accumulated
        result = set(accumulated)
        for id_set in sorted(id_sets, key=len):
            result &= id_set
            if not result:
                break
        return result
    id_sets = sorted(id_sets, key=len)
    result = id_sets[0]
    for id_set in id_sets[1:]:
        result &= id_set
        if not result:
            break
    return result


class AttributeIndex:
    """Inverted index: (community, field, token/value) → resource ids."""

    def __init__(self) -> None:
        # community -> field path -> token -> sorted numeric-id posting
        self._tokens: dict[str, dict[str, dict[str, array]]] = {}
        # community -> field path -> exact value (lowered) -> posting
        self._values: dict[str, dict[str, dict[str, array]]] = {}
        # resource id -> its entries (for removal and size accounting)
        self._entries: dict[str, list[IndexEntry]] = {}
        # resource id <-> dense numeric id
        self._ids: dict[str, int] = {}
        self._rids: list[str] = []
        self._free: list[int] = []

    # ------------------------------------------------------------------
    # Numeric-id table
    # ------------------------------------------------------------------
    def _assign_id(self, resource_id: str) -> int:
        numeric_id = self._ids.get(resource_id)
        if numeric_id is None:
            if self._free:
                numeric_id = self._free.pop()
                self._rids[numeric_id] = resource_id
            else:
                numeric_id = len(self._rids)
                self._rids.append(resource_id)
            self._ids[resource_id] = numeric_id
        return numeric_id

    def resolve_ids(self, numeric_ids: Iterable[int]) -> set[str]:
        """Resource-id strings of ``numeric_ids`` (the id→public boundary)."""
        rids = self._rids
        return {rids[numeric_id] for numeric_id in numeric_ids}

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def add(self, community_id: str, resource_id: str, fields: dict[str, list[str]]) -> int:
        """Index ``fields`` (path → values) for one object.

        Returns the number of (field, value) pairs indexed.  Re-adding an
        already indexed object replaces its previous entries.
        """
        if resource_id in self._entries:
            self.remove(resource_id)
        community_id = sys.intern(community_id)
        resource_id = sys.intern(resource_id)
        numeric_id = self._assign_id(resource_id)
        entries: list[IndexEntry] = []
        for field_path, values in fields.items():
            present = [value for value in map(str.strip, values) if value]
            if not present:
                continue
            # A field's index levels appear with its first non-blank value.
            field_path = sys.intern(field_path)
            field_values = self._values.setdefault(community_id, {}).setdefault(field_path, {})
            field_tokens = self._tokens.setdefault(community_id, {}).setdefault(field_path, {})
            for value in present:
                value, value_lower, tokens = value_forms(value)
                entries.append(IndexEntry(community_id, resource_id, field_path,
                                          value, value_lower, tokens))
                _post(field_values, value_lower, numeric_id)
                for token in tokens:
                    _post(field_tokens, token, numeric_id)
        self._entries[resource_id] = entries
        if not entries:
            self._release_id(resource_id, numeric_id)
        return len(entries)

    def _release_id(self, resource_id: str, numeric_id: int) -> None:
        del self._ids[resource_id]
        self._rids[numeric_id] = ""
        self._free.append(numeric_id)

    def remove(self, resource_id: str) -> None:
        """Remove every entry of ``resource_id`` (a re-add replacing
        them, or a hub catalog dropping a record)."""
        entries = self._entries.pop(resource_id, None)
        if not entries:
            return
        numeric_id = self._ids[resource_id]
        for community_id, _, field_path, _, value_lower, tokens in entries:
            values = self._values.get(community_id, {}).get(field_path, {})
            bucket = values.get(value_lower)
            if bucket is not None:
                _discard_id(bucket, numeric_id)
                if not bucket:
                    values.pop(value_lower, None)
            field_tokens = self._tokens.get(community_id, {}).get(field_path, {})
            for token in tokens:
                token_bucket = field_tokens.get(token)
                if token_bucket is not None:
                    _discard_id(token_bucket, numeric_id)
                    if not token_bucket:
                        field_tokens.pop(token, None)
            # Prune a field once both its levels are empty, and not before:
            # a token-less value ('!!') leaves the token level empty while
            # the field is still indexed.  An add/remove round-trip thus
            # leaves the index structurally identical to the state before.
            if not values and not field_tokens:
                for table in (self._values, self._tokens):
                    community = table.get(community_id, {})
                    community.pop(field_path, None)
                    if not community:
                        table.pop(community_id, None)
        self._release_id(resource_id, numeric_id)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def exact(self, community_id: str, field_path: str, value: str) -> set[str]:
        """Resource ids whose field equals ``value`` (case-insensitive)."""
        return self.resolve_ids(
            self.exact_ref(community_id, field_path, value.strip().lower()))

    def exact_ref(self, community_id: str, field_path: str,
                  normalized_value: str) -> array:
        """Non-copying variant of :meth:`exact`: the *live* posting.

        ``normalized_value`` must already be stripped and lowered (a
        compiled plan does this once).  The returned sorted
        ``array('I')`` of numeric ids is internal state; callers must
        not mutate it.
        """
        return self._values.get(community_id, {}).get(field_path, {}).get(
            normalized_value, EMPTY_IDS)

    def keyword(self, community_id: str, field_path: str, text: str) -> set[str]:
        """Resource ids whose field contains every word of ``text``."""
        postings = self.keyword_postings(community_id, field_path, tokenize(text))
        if postings is None:
            return set()
        return self.resolve_ids(intersect_postings(postings, []))

    def keyword_postings(self, community_id: str, field_path: str,
                         tokens: Sequence[str]) -> Optional[list[array]]:
        """Non-copying variant of :meth:`keyword`: one live sorted
        ``array('I')`` posting per token, or ``None`` when no match is
        possible (no tokens, or a token with no postings).  Callers must
        not mutate the postings.
        """
        if not tokens:
            return None
        field_tokens = self._tokens.get(community_id, {}).get(field_path)
        if field_tokens is None:
            return None
        postings = []
        for token in tokens:
            bucket = field_tokens.get(token)
            if not bucket:
                return None
            postings.append(bucket)
        return postings

    def prefix(self, community_id: str, field_path: str, stem: str) -> set[str]:
        """Resource ids whose field has a token starting with ``stem``."""
        return self.resolve_ids(self.prefix_ids(community_id, field_path, stem))

    def prefix_ids(self, community_id: str, field_path: str, stem: str) -> set[int]:
        """:meth:`prefix` as matching *numeric* ids, in a fresh set the
        caller may mutate (plans intersect in place)."""
        stem = stem.strip().lower()
        matches: set[int] = set()
        if not stem:
            return matches
        for token, bucket in self._tokens.get(community_id, {}).get(field_path, {}).items():
            if token.startswith(stem):
                matches.update(bucket)
        return matches

    def any_field_keyword(self, community_id: str, text: str) -> set[str]:
        """Keyword match across every indexed field of a community."""
        return self.resolve_ids(self.any_field_ids(community_id, tokenize(text)))

    def any_field_ids(self, community_id: str, tokens: Sequence[str]) -> set[int]:
        """:meth:`any_field_keyword` over pre-tokenized text: per-field
        galloping intersections, unioned as a fresh set of numeric ids
        the caller may mutate."""
        matches: set[int] = set()
        if not tokens:
            return matches
        for field_tokens in self._tokens.get(community_id, {}).values():
            postings: Optional[list[array]] = []
            for token in tokens:
                bucket = field_tokens.get(token)
                if not bucket:
                    postings = None
                    break
                postings.append(bucket)
            if postings:
                matches.update(intersect_postings(postings, []))
        return matches

    def fields_for(self, community_id: str) -> list[str]:
        """Field paths that have at least one indexed value."""
        return sorted(self._tokens.get(community_id, {}).keys())

    # ------------------------------------------------------------------
    # Size accounting (experiment E5: index filtering)
    # ------------------------------------------------------------------
    def entry_count(self) -> int:
        """Total number of indexed (field, value) pairs."""
        return sum(len(entries) for entries in self._entries.values())

    def indexed_objects(self) -> int:
        return len(self._entries)

    def size_bytes(self) -> int:
        """Approximate memory footprint of the indexed strings."""
        total = 0
        for entries in self._entries.values():
            for entry in entries:
                total += len(entry.field_path) + len(entry.value)
        return total

    def posting_bytes(self) -> int:
        """Actual memory held by the posting containers themselves.

        A numeric-id slot costs ``itemsize`` (4) bytes past the array's
        fixed overhead.  Buckets are costed by *content* (base +
        itemsize × length) rather than ``getsizeof``'s live buffer, which
        reflects growth history — two indexes holding identical postings
        (one built incrementally, one unpickled in a worker process) must
        account identically.  Resource-id strings and the dictionary
        levels above the postings are excluded.
        """
        array_base = sys.getsizeof(array("I"))
        total = 0
        for table in (self._values, self._tokens):
            for community in table.values():
                for field_postings in community.values():
                    for bucket in field_postings.values():
                        total += array_base + bucket.itemsize * len(bucket)
        return total

    def iter_entries(self) -> Iterable[IndexEntry]:
        """Every indexed entry in deterministic (resource-id) order —
        the routing layer derives per-peer Bloom filters from these."""
        for resource_id in sorted(self._entries):
            yield from self._entries[resource_id]
