"""Property-based tests for the storage substrate."""

import re
import string
from array import array
from bisect import bisect_left

from hypothesis import example, given, settings, strategies as st

from repro.storage.index import AttributeIndex, tokenize
from repro.storage.interning import intern_values, value_forms
from repro.storage.plan import compile_query
from repro.storage.query import Criterion, Operator, Query
from tests.storage.reference import matches_metadata

words = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)
values = st.lists(words, min_size=1, max_size=4).map(" ".join)
field_names = st.sampled_from(["name", "intent", "keywords", "category", "author"])
metadata_dicts = st.dictionaries(field_names, st.lists(values, min_size=1, max_size=2),
                                 min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(st.lists(metadata_dicts, min_size=1, max_size=12))
def test_index_and_metadata_matching_agree(records):
    """The compiled plan over the index matches exactly the records whose
    metadata dictionaries satisfy the reference ``matches_metadata``."""
    index = AttributeIndex()
    for number, record in enumerate(records):
        index.add("c", f"r{number}", record)
    # Probe with tokens drawn from the corpus itself.
    probes = set()
    for record in records[:4]:
        for field_path, record_values in record.items():
            for value in record_values[:1]:
                tokens = tokenize(value)
                if tokens:
                    probes.add((field_path, tokens[0]))
    for field_path, token in probes:
        query = Query("c", [Criterion(field_path, token, Operator.CONTAINS)])
        from_index = compile_query(query).evaluate(index)
        from_metadata = {
            f"r{number}" for number, record in enumerate(records)
            if matches_metadata(query, record)
        }
        assert from_index == from_metadata


@settings(max_examples=60, deadline=None)
@given(st.lists(metadata_dicts, min_size=1, max_size=10), st.integers(0, 9))
def test_remove_restores_previous_state(records, victim):
    """Adding then removing an object leaves no trace in the index."""
    index = AttributeIndex()
    for number, record in enumerate(records):
        index.add("c", f"r{number}", record)
    before_count = index.entry_count()
    index.add("c", "victim", {"name": ["unique sentinel value"], "intent": ["to be removed"]})
    index.remove("victim")
    assert index.entry_count() == before_count
    assert index.exact("c", "name", "unique sentinel value") == set()
    del victim


@settings(max_examples=60, deadline=None)
@given(metadata_dicts, words)
def test_exact_match_implies_keyword_match(record, probe):
    """Any exact hit is also a keyword hit for the same value."""
    index = AttributeIndex()
    index.add("c", "r0", record)
    for field_path, record_values in record.items():
        for value in record_values:
            exact = index.exact("c", field_path, value)
            keyword = index.keyword("c", field_path, value)
            assert exact <= keyword
    del probe


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(field_names, values), min_size=1, max_size=5))
def test_query_wire_roundtrip(criteria):
    """Queries survive XML wire serialization unchanged."""
    query = Query("community-x", [Criterion(path, value) for path, value in criteria])
    again = Query.from_xml_text(query.to_xml_text())
    assert again.community_id == query.community_id
    assert [(c.field_path, c.value, c.operator) for c in again.criteria] == [
        (c.field_path, c.value, c.operator) for c in query.criteria
    ]


class ReferenceIndex:
    """The write side of :class:`AttributeIndex` as it was built before
    value forms were shared: each entry tokenised for itself, each id
    placed by a binary-search insert, each level made at the value that
    needs it."""

    def __init__(self):
        self._tokens, self._values, self._entries = {}, {}, {}
        self._ids, self._rids, self._free = {}, [], []

    def add(self, community_id, resource_id, fields):
        if resource_id in self._entries:
            self.remove(resource_id)
        numeric_id = self._ids.get(resource_id)
        if numeric_id is None:
            if self._free:
                numeric_id = self._free.pop()
                self._rids[numeric_id] = resource_id
            else:
                numeric_id = len(self._rids)
                self._rids.append(resource_id)
            self._ids[resource_id] = numeric_id
        entries = []
        for field_path, values in fields.items():
            for value in values:
                value = value.strip()
                if not value:
                    continue
                tokens = tuple(token.lower() for token in re.findall("[A-Za-z0-9]+", value))
                entries.append((community_id, resource_id, field_path, value, value.lower(),
                                tokens))
                field_values = self._values.setdefault(community_id, {}).setdefault(field_path, {})
                field_tokens = self._tokens.setdefault(community_id, {}).setdefault(field_path, {})
                keys = [(field_values, value.lower())] + [(field_tokens, token) for token in tokens]
                for postings, key in keys:
                    bucket = postings.setdefault(key, array("I"))
                    position = bisect_left(bucket, numeric_id)
                    if position == len(bucket) or bucket[position] != numeric_id:
                        bucket.insert(position, numeric_id)
        self._entries[resource_id] = entries
        if not entries:
            self._release(resource_id)

    def remove(self, resource_id):
        entries = self._entries.pop(resource_id, None)
        if not entries:
            return
        numeric_id = self._ids[resource_id]
        for community_id, _, field_path, _, value_lower, tokens in entries:
            keys = [(self._values, value_lower)] + [(self._tokens, token) for token in tokens]
            for table, key in keys:
                postings = table.get(community_id, {}).get(field_path, {})
                if numeric_id in postings.get(key, ()):
                    postings[key].remove(numeric_id)
                    if not postings[key]:
                        del postings[key]
            if not self._values.get(community_id, {}).get(field_path, True):
                for table in (self._values, self._tokens):
                    community = table.get(community_id)
                    if community is not None and not community.get(field_path, True):
                        del community[field_path]
                        if not community:
                            del table[community_id]
        self._release(resource_id)

    def _release(self, resource_id):
        numeric_id = self._ids.pop(resource_id)
        self._rids[numeric_id] = ""
        self._free.append(numeric_id)


STATE = ("_values", "_tokens", "_entries", "_ids", "_rids", "_free")
#: repeated words, punctuation only, blank, and letters outside ASCII
#: ('İ' lowers to two code points; the Kelvin sign lowers to ASCII 'k')
ODD_VALUES = ["", "   ", "!!", ", ;", "a a", "A b", "b", "İstanbul", "\u212aelvin",
              "caf\u00e9 au lait", " Observer ", "observer"]
index_values = st.one_of(st.sampled_from(ODD_VALUES),
                         st.text(alphabet="aB \u0130\u212a,9", max_size=6))
index_fields = st.dictionaries(st.sampled_from(["name", "intent", "tags"]),
                               st.lists(index_values, max_size=3), max_size=3)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sampled_from(["c", "d"]), st.integers(0, 4), index_fields),
        st.tuples(st.just("remove"), st.integers(0, 4)),
    ),
    max_size=14,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(operations)
# Two objects share a field whose only value has no token; removing one
# must keep the field in both levels while the other still holds it.
@example([("add", "c", 1, {"name": ["!!"]}), ("add", "c", 2, {"name": ["!!"]}),
          ("remove", 1), ("add", "c", 3, {"name": ["??"]}), ("remove", 2), ("remove", 3)])
def test_index_state_matches_the_per_entry_reference(ops):
    """Adds, re-adds and removes, ids reused from the free list, values
    repeated within and across objects, blank and all-blank fields:
    every table of the index equals the reference's after each step, and
    a field is listed exactly while it holds a value."""
    index, reference = AttributeIndex(), ReferenceIndex()
    for op in ops:
        if op[0] == "add":
            _, community_id, number, fields = op
            index.add(community_id, f"r{number}", fields)
            reference.add(community_id, f"r{number}", fields)
        else:
            index.remove(f"r{op[1]}")
            reference.remove(f"r{op[1]}")
        for name in STATE:
            assert getattr(index, name) == getattr(reference, name), name
        for community_id in ("c", "d"):
            assert index.fields_for(community_id) == sorted(
                field for field in ("name", "intent", "tags")
                if any((entry.community_id, entry.field_path) == (community_id, field)
                       for entry in index.iter_entries()))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(st.sampled_from(["\u0130", "\u0130stanbul", "\u212a", "\u212aelvin"]),
                 st.text(alphabet="aZ9 ,.\u0130\u212a\u00e9", min_size=1, max_size=8)))
def test_value_forms_are_lowered_value_and_tokens(value):
    """Tokens are found first and lowered each, as :func:`tokenize` does."""
    assert value_forms(value) == (value, value.lower(), intern_values(tokenize(value)))
