"""Property-based tests for the storage substrate."""

import string

from hypothesis import given, settings, strategies as st

from repro.storage.index import AttributeIndex, tokenize
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
