"""Compiled query plans: normalize once, evaluate everywhere.

A Gnutella flood delivers the *same* query to every visited peer, and a
mixed workload keeps many such floods in flight at once — so evaluating
the :class:`Query` itself would re-strip, re-lower and re-tokenize every
criterion value at every peer visit, and re-serialize the query wire
form per hop.  The paper's cost argument (searchable-field indices keep
evaluation cheap enough to run at every servent) only holds if that
per-visit work is constant-time dictionary probing, which is what
compilation buys — and every search the system runs is compiled:

* every criterion value is stripped/lowered/tokenized exactly once, at
  :func:`compile_query` time;
* criteria are reordered cheapest-first (EQUALS → CONTAINS → PREFIX →
  ANY), so evaluation probes hash tables before it scans token tables;
* evaluation intersects live numeric-id postings smallest-first and
  resolves only the final result to resource ids, never copying the
  candidate sets (:meth:`AttributeIndex.exact_ref` /
  :meth:`AttributeIndex.keyword_postings`);
* the XML wire form and its byte length are computed once and shared by
  every hop's QUERY message.

The contract the equivalence suite pins: :meth:`CompiledQuery.evaluate`
returns exactly the ids the reference semantics would
(``tests/storage/reference.py``), for every operator, including the edge
semantics (blank values are skipped; a punctuation-only CONTAINS value
matches no index entry).
"""

from __future__ import annotations

from array import array
from typing import Optional

from repro.storage.index import AttributeIndex, intersect_postings, tokenize
from repro.storage.query import Criterion, Operator, Query

#: evaluation order: cheap hash probes first, token-table scans last
_OPERATOR_COST = {
    Operator.EQUALS: 0,
    Operator.CONTAINS: 1,
    Operator.PREFIX: 2,
    Operator.ANY: 3,
}


class CompiledCriterion:
    """One criterion with its normalization done ahead of time."""

    __slots__ = ("field_path", "operator", "any_field", "norm_value",
                 "tokens", "token_set", "cost")

    def __init__(self, criterion: Criterion) -> None:
        self.field_path = criterion.field_path
        self.operator = criterion.operator
        # The reference semantics treat a "*" field path as an any-field
        # keyword criterion regardless of the declared operator.
        self.any_field = (criterion.operator is Operator.ANY
                          or criterion.field_path == "*")
        self.norm_value = criterion.value.strip().lower()
        self.tokens: tuple[str, ...] = tuple(tokenize(criterion.value))
        self.token_set = frozenset(self.tokens)
        self.cost = (_OPERATOR_COST[Operator.ANY] if self.any_field
                     else _OPERATOR_COST[self.operator])


class CompiledQuery:
    """A :class:`Query` with all per-evaluation work hoisted out.

    Compile once at search start (the kernel's :class:`QueryContext`
    carries the plan), then evaluate at every peer visit for the cost of
    a few dictionary probes and one smallest-first intersection.
    """

    __slots__ = ("source", "community_id", "criteria", "is_empty",
                 "_wire_xml", "_wire_bytes", "_cache_key",
                 "_routing_keys", "_routing_keys_ready")

    def __init__(self, query: Query) -> None:
        self.source = query
        self.community_id = query.community_id
        compiled = [CompiledCriterion(criterion) for criterion in query.criteria
                    if criterion.value.strip()]
        compiled.sort(key=lambda criterion: criterion.cost)
        self.criteria: tuple[CompiledCriterion, ...] = tuple(compiled)
        self.is_empty = not self.criteria
        self._wire_xml: Optional[str] = None
        self._wire_bytes: int = -1
        self._cache_key: Optional[tuple] = None
        self._routing_keys: Optional[tuple[tuple[str, ...], ...]] = None
        self._routing_keys_ready = False

    # ------------------------------------------------------------------
    # Wire form (computed once, shared by every hop's QUERY message)
    # ------------------------------------------------------------------
    @property
    def wire_xml(self) -> str:
        """The serialized query, rendered once and reused per hop."""
        if self._wire_xml is None:
            self._wire_xml = self.source.to_xml_text()
        return self._wire_xml

    @property
    def wire_bytes(self) -> int:
        """Byte length of :attr:`wire_xml`, measured once."""
        if self._wire_bytes < 0:
            self._wire_bytes = len(self.wire_xml.encode("utf-8"))
        return self._wire_bytes

    # ------------------------------------------------------------------
    # Canonical form (the query-result cache key)
    # ------------------------------------------------------------------
    @property
    def cache_key(self) -> tuple:
        """A hashable canonical form: two spellings of the same
        conjunction — criteria reordered, values differing only in case
        or surrounding whitespace — share one key.  Token-set criteria
        (CONTAINS / ANY) are order-insensitive by construction."""
        if self._cache_key is None:
            parts = []
            for criterion in self.criteria:
                if criterion.any_field:
                    parts.append(("*", "", tuple(sorted(criterion.token_set))))
                elif criterion.operator is Operator.EQUALS:
                    parts.append(("=", criterion.field_path, criterion.norm_value))
                elif criterion.operator is Operator.PREFIX:
                    parts.append(("^", criterion.field_path, criterion.norm_value))
                else:  # CONTAINS
                    parts.append(("~", criterion.field_path, tuple(sorted(criterion.token_set))))
            parts.sort()
            self._cache_key = (self.community_id, tuple(parts))
        return self._cache_key

    # ------------------------------------------------------------------
    # Routing-filter probe keys (the informed_routing knob)
    # ------------------------------------------------------------------
    @property
    def routing_keys(self) -> Optional[tuple[tuple[str, ...], ...]]:
        """Per-criterion Bloom-filter probe keys, or ``None`` when the
        query cannot be probed (no criterion constrains the filter).

        Each group is one criterion's keys in the exact normalization
        the attribute index stores — a matching peer's self-filter
        contains *every* key of *every* group, so a routing filter may
        prune a neighbour only when no level holds the complete
        conjunction.  EQUALS probes the normalized value, CONTAINS the
        field-scoped tokens, any-field criteria the unscoped tokens.
        PREFIX criteria (and blank token sets, which match trivially)
        contribute no keys: skipping a criterion only weakens the probe
        toward the blind flood, never past it.
        """
        if not self._routing_keys_ready:
            self._routing_keys_ready = True
            community = self.community_id
            groups: list[tuple[str, ...]] = []
            for criterion in self.criteria:
                if criterion.any_field:
                    if criterion.token_set:
                        groups.append(tuple(
                            f"a\x1f{community}\x1f{token}"
                            for token in sorted(criterion.token_set)))
                elif criterion.operator is Operator.EQUALS:
                    groups.append((
                        f"e\x1f{community}\x1f{criterion.field_path}"
                        f"\x1f{criterion.norm_value}",))
                elif criterion.operator is Operator.CONTAINS and criterion.token_set:
                    groups.append(tuple(
                        f"t\x1f{community}\x1f{criterion.field_path}\x1f{token}"
                        for token in sorted(criterion.token_set)))
                # PREFIX: the index stores whole tokens, so no key form
                # is a necessary condition for a prefix match.
            self._routing_keys = tuple(groups) if groups else None
        return self._routing_keys

    # ------------------------------------------------------------------
    # Evaluation against an attribute index
    # ------------------------------------------------------------------
    def evaluate(self, index: AttributeIndex) -> set[str]:
        """Matching resource ids, exactly as the reference semantics define them.

        Exact and keyword criteria contribute live sorted ``array('I')``
        postings (no copies), prefix and any-field criteria contribute
        fresh ``set[int]`` matches; the postings intersect smallest-first
        by galloping binary search with early exit, and only the
        surviving ids are resolved back to a fresh set of resource ids.
        """
        if self.is_empty:
            return set()
        community_id = self.community_id
        arrays: list[array] = []
        id_sets: list[set[int]] = []
        for criterion in self.criteria:
            if criterion.any_field:
                matched = index.any_field_ids(community_id, criterion.tokens)
                if not matched:
                    return set()
                id_sets.append(matched)
            elif criterion.operator is Operator.EQUALS:
                bucket = index.exact_ref(community_id, criterion.field_path,
                                         criterion.norm_value)
                if not bucket:
                    return set()
                arrays.append(bucket)
            elif criterion.operator is Operator.PREFIX:
                matched = index.prefix_ids(community_id, criterion.field_path,
                                           criterion.norm_value)
                if not matched:
                    return set()
                id_sets.append(matched)
            else:  # CONTAINS
                buckets = index.keyword_postings(community_id, criterion.field_path,
                                                 criterion.tokens)
                if buckets is None:
                    return set()
                arrays.extend(buckets)
        return index.resolve_ids(intersect_postings(arrays, id_sets))

    def describe(self) -> str:
        return f"compiled[{self.source.describe()}]"


def compile_query(query: Query) -> CompiledQuery:
    """Compile ``query`` for repeated evaluation (one call per search)."""
    return CompiledQuery(query)
