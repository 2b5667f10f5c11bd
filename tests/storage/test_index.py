"""Tests for the inverted attribute index."""

import sys
from array import array

from repro.storage.index import AttributeIndex, tokenize


class TestTokenize:
    def test_basic(self):
        assert tokenize("Design Patterns, 2nd Edition!") == ["design", "patterns", "2nd", "edition"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("  ,;  ") == []


class TestIndexing:
    def build(self):
        index = AttributeIndex()
        index.add("patterns", "r1", {"name": ["Observer"], "intent": ["decouple subject from observers"]})
        index.add("patterns", "r2", {"name": ["Abstract Factory"], "intent": ["create families of objects"]})
        index.add("patterns", "r3", {"name": ["Factory Method"], "intent": ["defer creation to subclasses"]})
        index.add("mp3s", "m1", {"title": ["Blue Train"], "artist": ["John Coltrane"]})
        return index

    def test_exact_match_case_insensitive(self):
        index = self.build()
        assert index.exact("patterns", "name", "observer") == {"r1"}
        assert index.exact("patterns", "name", "OBSERVER") == {"r1"}
        assert index.exact("patterns", "name", "Factory") == set()

    def test_keyword_single_token(self):
        index = self.build()
        assert index.keyword("patterns", "name", "factory") == {"r2", "r3"}

    def test_keyword_requires_all_tokens(self):
        index = self.build()
        assert index.keyword("patterns", "name", "abstract factory") == {"r2"}
        assert index.keyword("patterns", "intent", "create families") == {"r2"}
        assert index.keyword("patterns", "intent", "create marshmallows") == set()

    def test_keyword_empty_text(self):
        assert self.build().keyword("patterns", "name", "") == set()

    def test_prefix(self):
        index = self.build()
        assert index.prefix("patterns", "name", "fact") == {"r2", "r3"}
        assert index.prefix("patterns", "name", "obs") == {"r1"}
        assert index.prefix("patterns", "name", "") == set()

    def test_any_field_keyword(self):
        index = self.build()
        assert index.any_field_keyword("patterns", "subclasses") == {"r3"}
        assert index.any_field_keyword("patterns", "factory") == {"r2", "r3"}

    def test_community_isolation(self):
        index = self.build()
        assert index.keyword("mp3s", "title", "blue") == {"m1"}
        assert index.keyword("patterns", "title", "blue") == set()
        assert index.any_field_keyword("mp3s", "observer") == set()

    def test_fields_and_values_for(self):
        index = self.build()
        assert index.fields_for("mp3s") == ["artist", "title"]
        assert sorted({entry.value_lower for entry in index.iter_entries()
                       if (entry.community_id, entry.field_path) == ("patterns", "name")}) == [
            "abstract factory", "factory method", "observer",
        ]


class TestMaintenance:
    def test_remove(self):
        index = AttributeIndex()
        index.add("c", "r1", {"name": ["Observer"]})
        index.add("c", "r2", {"name": ["Observer"]})
        index.remove("r1")
        assert index.exact("c", "name", "Observer") == {"r2"}
        assert index.indexed_objects() == 1

    def test_remove_clears_empty_buckets(self):
        index = AttributeIndex()
        index.add("c", "r1", {"name": ["Observer"]})
        index.remove("r1")
        assert index.exact("c", "name", "Observer") == set()
        assert index.entry_count() == 0

    def test_a_field_with_only_tokenless_values_survives_a_remove(self):
        """A punctuation-only value has no tokens, so its field's token
        level is empty; removing one of two objects must not prune the
        field while the other's value is still indexed."""
        index = AttributeIndex()
        index.add("c", "r1", {"f": ["!!"]})
        index.add("c", "r2", {"f": ["!!"]})
        index.remove("r1")
        assert index.exact("c", "f", "!!") == {"r2"}
        assert index.fields_for("c") == ["f"]
        index.remove("r2")
        assert index.fields_for("c") == [] and index.exact("c", "f", "!!") == set()

    def test_readd_replaces_entries(self):
        index = AttributeIndex()
        index.add("c", "r1", {"name": ["Observer"]})
        index.add("c", "r1", {"name": ["Visitor"]})
        assert index.exact("c", "name", "Observer") == set()
        assert index.exact("c", "name", "Visitor") == {"r1"}

    def test_multi_valued_fields(self):
        index = AttributeIndex()
        index.add("c", "r1", {"participants": ["Subject", "Observer"]})
        assert index.exact("c", "participants", "Subject") == {"r1"}
        assert index.exact("c", "participants", "Observer") == {"r1"}

    def test_blank_values_not_indexed(self):
        index = AttributeIndex()
        count = index.add("c", "r1", {"name": ["", "   "]})
        assert count == 0
        assert index.entry_count() == 0

    def test_size_accounting(self):
        index = AttributeIndex()
        index.add("c", "r1", {"name": ["Observer"], "intent": ["decouple things"]})
        assert index.entry_count() == 2
        assert index.size_bytes() > 0
        assert [entry.resource_id for entry in index.iter_entries()] == ["r1", "r1"]

    def test_entries_carry_tokens_from_add_time(self):
        """Removal relies on the tokens stored on the entry, so they must
        be exactly the tokens the add indexed."""
        index = AttributeIndex()
        index.add("c", "r1", {"name": ["Abstract Factory, 2nd"]})
        (entry,) = index.iter_entries()
        assert entry.tokens == ("abstract", "factory", "2nd")
        assert entry.value_lower == "abstract factory, 2nd"

    def test_add_remove_round_trip_is_bit_identical(self):
        """Adding then removing an object leaves the index internals —
        every nested dict and posting set — exactly as they were."""
        import copy

        index = AttributeIndex()
        index.add("patterns", "r1", {"name": ["Observer"], "intent": ["decouple subject"]})
        index.add("mp3s", "m1", {"title": ["Blue Train"]})
        snapshot = (
            copy.deepcopy(index._tokens),
            copy.deepcopy(index._values),
            copy.deepcopy(index._entries),
        )
        # The new object introduces a new community, a new field of an
        # existing community, and new tokens of an existing field.
        index.add("genes", "g1", {"symbol": ["BRCA1"]})
        index.add("patterns", "r9", {"name": ["Observer Deluxe"], "category": ["behavioral"]})
        index.remove("g1")
        index.remove("r9")
        assert (index._tokens, index._values, index._entries) == snapshot


def ids(*numbers):
    return {f"r{number}" for number in numbers}


class TestNumericIdPostings:
    """Postings are sorted numeric-id arrays.  The expected answers are
    the ones the historical ``set[str]`` posting layout returned for the
    same corpus and probes, so the id mapping is never observable."""

    CORPUS = {
        f"r{number}": {
            "name": [f"Pattern {number % 7}"],
            "intent": [f"decouple thing {number % 5} from observer {number % 3}"],
            "category": ["behavioral" if number % 2 else "creational"],
        }
        for number in range(50)
    }

    def build(self):
        index = AttributeIndex()
        for resource_id, fields in self.CORPUS.items():
            index.add("patterns", resource_id, fields)
        return index

    def test_every_lookup_matches_set_layout(self):
        index = self.build()
        probes = [
            ("exact", ("patterns", "category", "Behavioral"), ids(*range(1, 50, 2))),
            ("exact", ("patterns", "name", "pattern 3"), ids(*range(3, 50, 7))),
            ("keyword", ("patterns", "intent", "decouple observer"), ids(*range(50))),
            ("keyword", ("patterns", "intent", "thing 4"), ids(*range(4, 50, 5))),
            ("keyword", ("patterns", "intent", "nonexistent"), set()),
            ("prefix", ("patterns", "intent", "obs"), ids(*range(50))),
            ("prefix", ("patterns", "name", ""), set()),
            ("any_field_keyword", ("patterns", "behavioral decouple"), set()),
            ("any_field_keyword", ("patterns", ""), set()),
        ]
        for method, args, expected in probes:
            assert getattr(index, method)(*args) == expected, (method, args)
        assert sorted({entry.value_lower for entry in index.iter_entries()
                       if (entry.community_id, entry.field_path) == ("patterns", "name")}) \
            == [f"pattern {n}" for n in range(7)]
        assert index.fields_for("patterns") == ["category", "intent", "name"]
        assert index.entry_count() == 150

    def test_remove_and_readd_round_trip(self):
        index = self.build()
        before = index.exact("patterns", "category", "behavioral")
        index.remove("r3")
        assert "r3" not in index.exact("patterns", "category", "behavioral")
        index.add("patterns", "r3", self.CORPUS["r3"])
        assert index.exact("patterns", "category", "behavioral") == before

    def test_postings_are_sorted_arrays_of_live_ids(self):
        index = self.build()
        for resource_id in ("r3", "r10", "r11"):
            index.remove(resource_id)
        index.add("patterns", "r10", self.CORPUS["r10"])
        live = set(index._ids.values())
        postings = [bucket for table in (index._values, index._tokens)
                    for community in table.values()
                    for field_postings in community.values()
                    for bucket in field_postings.values()]
        assert len(postings) == 43
        for bucket in postings:
            assert isinstance(bucket, array) and bucket.typecode == "I"
            assert bucket and list(bucket) == sorted(set(bucket))
            assert set(bucket) <= live

    def test_remove_all_empties_index_and_recycles_ids(self):
        index = self.build()
        for resource_id in self.CORPUS:
            index.remove(resource_id)
        assert index.entry_count() == 0
        assert index._values == {} and index._tokens == {}
        assert not index._ids
        # A fresh add after total removal reuses recycled numeric ids
        # rather than growing the id table forever under churn.
        table_size = len(index._rids)
        index.add("patterns", "r0", self.CORPUS["r0"])
        assert len(index._rids) == table_size

    def test_compiled_plan_matches_set_layout(self):
        from repro.storage.plan import compile_query
        from repro.storage.query import Operator, Query
        from tests.storage.reference import evaluate
        index = self.build()
        cases = [
            (Query("patterns").where("category", "behavioral", Operator.EQUALS),
             ids(*range(1, 50, 2))),
            (Query("patterns").where("intent", "decouple observer"), ids(*range(50))),
            (Query("patterns").where("category", "behavioral", Operator.EQUALS)
                              .where("intent", "thing 2"),
             ids(5, 7, 11, 17, 23, 27, 29, 35, 37, 41, 47)),
            (Query("patterns").where("intent", "obs", Operator.PREFIX), ids(*range(50))),
            (Query.keyword("patterns", "decouple 4"), ids(*range(4, 50, 5))),
        ]
        for query, expected in cases:
            assert compile_query(query).evaluate(index) == evaluate(query, index) \
                == expected, query.describe()

    def test_posting_bytes_cost_four_bytes_per_id(self):
        """43 postings holding 588 ids, each costed by content: one empty
        ``array('I')`` plus four bytes per id (the set layout held the
        same postings in 46 760 bytes)."""
        assert self.build().posting_bytes() == 43 * sys.getsizeof(array("I")) + 4 * 588

    def test_interned_views_share_structure(self):
        from repro.storage.interning import intern_values, intern_view
        one = intern_view({"name": ["Observer"], "tags": ["a", "b"]})
        two = intern_view({"name": ["Observer"], "tags": ["a", "b"]})
        assert one == two
        assert one["name"] is two["name"]
        assert one["tags"] is two["tags"]
        assert intern_values(["x", "y"]) is intern_values(["x", "y"])

    def test_value_forms_are_shared_and_cleared(self):
        """Equal values get the very same forms, so every index holding a
        value tokenised it once; ``clear`` drops this table too."""
        from repro.storage import interning

        # Built at run time, so neither is the compiler's constant.
        one, two = "".join(["Blue ", "Train"]), "".join(["Blue", " Train"])
        assert one is not two
        forms = interning.value_forms(one)
        again = interning.value_forms(two)
        assert forms is again
        assert all(part is other for part, other in zip(forms, again, strict=True))
        assert forms == ("Blue Train", "blue train", ("blue", "train"))
        interning.clear()
        assert interning.value_forms(two) is not forms
