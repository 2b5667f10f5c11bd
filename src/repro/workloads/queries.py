"""Query workload generation from a community corpus.

The experiments need query streams with a controlled hit structure:
*field queries* that match a known subset of the corpus (so recall can
be computed), *keyword queries* drawn from corpus vocabulary, and
*miss queries* that match nothing (to measure the cost of unsuccessful
floods).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.storage.interning import tokens_of
from repro.storage.query import Criterion, Operator, Query
from repro.workloads.popularity import ZipfDistribution

#: share of queries that use vocabulary guaranteed not to occur in the corpus
MISS_FRACTION = 0.1
#: Zipf exponent of the record skew queries are drawn with
ZIPF_EXPONENT = 0.8


@dataclass
class QueryWorkload:
    """A reusable stream of queries plus their expected matches."""

    community_id: str
    queries: list[Query] = field(default_factory=list)
    expected_matches: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self):
        return iter(self.queries)


def build_query_workload(
    community_id: str,
    corpus: Sequence[dict[str, object]],
    *,
    count: int = 50,
    searchable_fields: Optional[Sequence[str]] = None,
    repeat_alpha: float = 0.0,
    seed: int = 0,
) -> QueryWorkload:
    """Build ``count`` queries against ``corpus``.

    Queries target values drawn from the corpus itself, skewed by a Zipf
    distribution over records so that popular objects are asked for more
    often; a :data:`MISS_FRACTION` of queries use vocabulary guaranteed
    not to occur in the corpus.

    ``repeat_alpha`` is the probability that a workload position
    re-issues an earlier query of the stream verbatim (drawn uniformly
    over the history, which the Zipf record skew already made
    popularity-heavy) — the repeat structure result caching feeds on.
    The repeat decisions use their own random stream, so ``0.0`` (the
    default) reproduces the uncached workloads bit-identically.
    """
    if not corpus:
        raise ValueError("cannot build a query workload from an empty corpus")
    if not 0.0 <= repeat_alpha <= 1.0:
        raise ValueError("repeat_alpha must be within [0, 1]")
    rng = random.Random(seed)
    repeat_rng = random.Random(f"repeat:{seed}")
    fields = list(searchable_fields) if searchable_fields else _text_fields(corpus)
    popularity = ZipfDistribution(len(corpus), exponent=ZIPF_EXPONENT, seed=seed)
    matches = _CorpusMatches(corpus)
    workload = QueryWorkload(community_id=community_id)

    for query_index in range(count):
        if repeat_alpha > 0.0 and workload.queries \
                and repeat_rng.random() < repeat_alpha:
            position = repeat_rng.randrange(len(workload.queries))
            workload.queries.append(workload.queries[position])
            workload.expected_matches.append(workload.expected_matches[position])
            continue
        if rng.random() < MISS_FRACTION:
            query = Query.keyword(community_id, f"zzqx{query_index:04d} nothing matches this")
            workload.queries.append(query)
            workload.expected_matches.append(0)
            continue
        record = corpus[popularity.sample()]
        field_path = rng.choice(fields)
        value = _value_of(record, field_path)
        if not value:
            query = Query.keyword(community_id, "shared")
            workload.queries.append(query)
            workload.expected_matches.append(matches.keyword("shared"))
            continue
        if rng.random() < 0.5:
            # Field-scoped query on the full value.
            query = Query(community_id, [Criterion(field_path, value, Operator.CONTAINS)])
            expected = matches.field_contains(field_path, value)
        else:
            # Keyword query on a word of the value.
            tokens = matches.tokens(value)
            token = rng.choice(tokens) if tokens else value
            query = Query.keyword(community_id, token)
            expected = matches.keyword(token)
        workload.queries.append(query)
        workload.expected_matches.append(expected)
    return workload


# ----------------------------------------------------------------------
def _text_fields(corpus: Sequence[dict[str, object]]) -> list[str]:
    fields = [
        path for path, value in corpus[0].items()
        if isinstance(value, str) and not value.startswith("http")
    ]
    return fields or list(corpus[0].keys())


def _value_of(record: dict[str, object], field_path: str) -> str:
    value = record.get(field_path, "")
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)) and value:
        return str(value[0])
    return str(value) if value else ""


class _CorpusMatches:
    """Expected-match counts over one corpus, each value tokenised once.

    Keyword queries are answered from a document-frequency table (token
    -> records holding it in any field) built on first use; field
    queries from per-field postings (token -> bitmask of the records
    whose field value holds it) built the first time a field is asked
    about.  Counts and bitmasks, not per-record token sets: the corpus
    is large and the memo must stay small beside it.  A value publish
    already indexed is not tokenised again (:func:`tokens_of`), and any
    other value once per build: its tokens are kept here, never in the
    interning memo.
    """

    def __init__(self, corpus: Sequence[dict[str, object]]) -> None:
        self._corpus = corpus
        self._keyword_frequency: Optional[Counter[str]] = None
        self._field_postings: dict[str, dict[str, int]] = {}
        self._tokens: dict[str, Sequence[str]] = {}

    def tokens(self, value: str) -> Sequence[str]:
        """``tokens_of(value)``, each distinct value tokenised at most once."""
        found = self._tokens.get(value)
        if found is None:
            found = self._tokens[value] = tokens_of(value)
        return found

    def keyword(self, token: str) -> int:
        """Records holding ``token`` in any field."""
        if self._keyword_frequency is None:
            self._keyword_frequency = Counter()
            for record in self._corpus:
                # Tokens are [A-Za-z0-9]+ runs, so the record's tokens
                # are the union of its values' tokens.
                held: set[str] = set()
                for value in record.values():
                    if isinstance(value, str):
                        held.update(self.tokens(value))
                    else:
                        for item in value:
                            held.update(self.tokens(str(item)))
                self._keyword_frequency.update(held)
        return self._keyword_frequency[token.lower()]

    def field_contains(self, field_path: str, value: str) -> int:
        """Records whose ``field_path`` value holds every token of ``value``."""
        wanted = self.tokens(value)
        if not wanted:
            return 0
        postings = self._field_postings.get(field_path)
        if postings is None:
            postings = self._field_postings[field_path] = {}
            for position, record in enumerate(self._corpus):
                for token in self.tokens(_value_of(record, field_path)):
                    postings[token] = postings.get(token, 0) | (1 << position)
        holders = -1
        for token in wanted:
            holders &= postings.get(token, 0)
        return holders.bit_count()
