"""The paper's claims, measured: one table, one committed record.

Each row of :data:`CLAIMS` is one claim the reproduction checks: the
paper's experiments (E1–E12), ablations of the reproduction's own design
choices (A1–A3) and the paper's figures (F1–F3).  A row names the paper
section, quotes the sentence it tests, lists its cells and states the
relations its counters must satisfy:

* a **cell** is a zero-argument callable, usually ``ScenarioConfig``
  knobs bound to an extractor with :func:`functools.partial`, that
  builds what it measures and returns its counters;
* **counters** are deterministic simulated quantities only: integers
  wherever the quantity is a count, and float aggregates computed with
  :func:`math.fsum` (exactly rounded, so every supported Python gives
  the same bits); no wall clock is read;
* a **relation** is a named predicate over the claim's cells (label →
  counters), the inequality the claim stands or falls by.

A quote in quotation marks is the paper's sentence, with bracketed words
supplied; a row the paper has no sentence for (E4, E9–E12, A1–A3, F2)
states the claim the reproduction tests, without quotation marks.

``python -m repro.report`` measures every claim and rewrites two files at
the repository root: ``RESULTS.json`` (claim → section → quote →
counters → each relation and whether it holds) and ``RESULTS.md``, which
is rendered from the JSON.  ``tests/test_results.py`` measures every
claim once and gates the record by equality.
"""

from __future__ import annotations

import json
import math
import operator
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Mapping, Optional

from repro.communities import ALL_COMMUNITIES
from repro.communities.design_patterns import generate_pattern_corpus, pattern_schema_xsd
from repro.communities.mp3 import mp3_community
from repro.core.application import Application
from repro.core.community import (
    COMMUNITY_SCHEMA_XSD,
    KNOWN_PROTOCOLS,
    ROOT_COMMUNITY_ID,
    Community,
    CommunityDescriptor,
    community_schema,
    root_community,
)
from repro.core.resource import Resource
from repro.core.servent import Servent
from repro.core.stylesheets import StylesheetSet
from repro.network.centralized import CentralizedProtocol
from repro.network.errors import TransferError
from repro.network.faults import FaultPlan, PartitionWindow
from repro.network.gnutella import GnutellaProtocol
from repro.network.membership import PopulationModel
from repro.network.rendezvous import RendezvousProtocol
from repro.network.superpeer import SuperPeerProtocol
from repro.network.topology import Topology
from repro.schema.builder import SchemaBuilder
from repro.schema.instance import InstanceSynthesizer, build_instance
from repro.schema.parser import parse_schema_text
from repro.schema.validator import validate
from repro.storage.index import AttributeIndex, tokenize
from repro.storage.plan import compile_query
from repro.storage.query import Criterion, Operator, Query
from repro.storage.replicas import REPLICA
from repro.workloads.popularity import ZipfDistribution
from repro.workloads.scenario import Scenario, ScenarioConfig, build_scenario
from repro.xmlkit.parser import parse
from repro.xmlkit.serializer import pretty, serialize
from repro.xmlkit.xpath import XPath

ROOT = Path(__file__).resolve().parents[2]
RESULTS_JSON = ROOT / "RESULTS.json"
RESULTS_MD = ROOT / "RESULTS.md"

Counters = dict[str, object]
Cells = Mapping[str, Counters]


@dataclass(frozen=True)
class Claim:
    """One row of the ledger."""

    claim_id: str
    title: str
    section: str
    quote: str
    cells: Mapping[str, Callable[[], Counters]]
    relations: Mapping[str, Callable[[Cells], bool]]

    def measure(self) -> dict[str, object]:
        """Run every cell and judge every relation: the claim's record."""
        measured = {label: cell() for label, cell in self.cells.items()}
        # The JSON round trip gives the counters the shape the record
        # stores (lists, string keys), so measured == recorded compares
        # like with like.
        counters = json.loads(json.dumps(measured))
        return {
            "title": self.title,
            "section": self.section,
            "quote": self.quote,
            "counters": counters,
            "relations": {name: bool(holds(counters)) for name, holds in self.relations.items()},
        }


# Shared extraction and relation helpers -------------------------------
def _mean(values: list[float]) -> float:
    return math.fsum(values) / len(values) if values else 0.0


def _recall(counts: list[int], expected: list[int]) -> float:
    """Mean per-query recall over the queries that have an answer."""
    pairs = zip(counts, expected, strict=True)
    return _mean([min(found, wanted) / wanted for found, wanted in pairs if wanted])


def _answered(counts: list[int]) -> int:
    return sum(1 for count in counts if count > 0)


def _query_counters(network) -> Counters:
    """What every query-phase cell records off ``network.stats``."""
    records = network.stats.queries
    return {
        "queries": len(records),
        "answered": sum(1 for record in records if record.results > 0),
        "msgs_per_query": sum(record.messages for record in records) / len(records),
        "latency_ms": round(_mean([record.latency_ms for record in records]), 3),
    }


def _churn(scenario: Scenario, session_ms: Optional[float]) -> None:
    """Churn on everyone but the first two servents (publishers
    included), so stale state genuinely decays."""
    if session_ms is None:
        return
    population = PopulationModel(
        scenario.network, mean_session_ms=session_ms, mean_absence_ms=session_ms * 0.6, seed=5
    )
    population.start([servent.peer_id for servent in scenario.servents[2:]])


def _each(cells: Cells, part: str = "") -> list[Counters]:
    """The counters of every cell whose label contains ``part``."""
    return [counters for label, counters in cells.items() if part in label]


def _every(counter: str, holds: Callable[[object], bool], part: str = ""):
    """The relation "``holds`` for ``counter`` of every cell whose label
    contains ``part``"."""
    return lambda c: all(holds(cell[counter]) for cell in _each(c, part))


def _only(c: Cells) -> Counters:
    """The counters of a one-cell claim."""
    return next(iter(c.values()))


# E1 — meta-data search vs filename search -----------------------------
#: information need → (field query criteria, relevant-record predicate)
E1_NEEDS = {
    "notifying dependents": (
        [("intent", "dependents notified", Operator.CONTAINS)],
        lambda record: "notified" in record["intent"] or "notify" in record["intent"],
    ),
    "creational patterns": (
        [("category", "creational", Operator.EQUALS)],
        lambda record: record["category"] == "creational",
    ),
    "tree structures": (
        [("intent", "tree structures", Operator.CONTAINS)],
        lambda record: "tree structures" in record["intent"],
    ),
    "families of objects": (
        [("intent", "families", Operator.CONTAINS)],
        lambda record: "families" in record["intent"],
    ),
    "named Observer": (
        [("name", "Observer", Operator.CONTAINS)],
        lambda record: "observer" in record["name"].lower(),
    ),
}
E1_SEARCHABLE = ("name", "category", "intent", "keywords", "applicability", "consequences")


def _e1_metadata(record: dict) -> dict[str, list[str]]:
    return {
        path: [str(value)] if isinstance(value, str) else [str(v) for v in value]
        for path, value in record.items()
    }


def _e1_filename(record: dict) -> str:
    """The only thing a filename-matching network exposes."""
    return f"{str(record['name']).lower().replace(' ', '_')}.pattern.xml"


def _e1_need(need: str) -> Counters:
    """Recall of one information need, as U-P2P field queries over the
    indexed meta-data and as Napster-style substring matching of every
    query word against a synthetic filename."""
    criteria, is_relevant = E1_NEEDS[need]
    corpus = generate_pattern_corpus(92, seed=5)
    index = AttributeIndex()
    for number, record in enumerate(corpus):
        index.add("patterns", f"r{number}", _e1_metadata(record))
    query = Query("patterns", [Criterion(path, value, op) for path, value, op in criteria])
    by_metadata = {int(rid[1:]) for rid in compile_query(query).evaluate(index)}
    words = tokenize(" ".join(value for _, value, _ in criteria))
    names = [_e1_filename(record) for record in corpus]
    by_filename = {number for number, name in enumerate(names) if all(w in name for w in words)}
    relevant = {number for number, record in enumerate(corpus) if is_relevant(record)}
    return {
        "relevant": len(relevant),
        "metadata_hits": len(by_metadata & relevant),
        "filename_hits": len(by_filename & relevant),
    }


def _e1_index_bytes() -> Counters:
    """Bytes of the whole objects against an index of every field and an
    index of the searchable fields only."""
    everything, searchable = AttributeIndex(), AttributeIndex()
    full_bytes = 0
    for number, record in enumerate(generate_pattern_corpus(92, seed=5)):
        metadata = _e1_metadata(record)
        for path, values in metadata.items():
            full_bytes += len(path) + sum(len(value) for value in values)
        everything.add("patterns", f"r{number}", metadata)
        kept = {path: values for path, values in metadata.items() if path in E1_SEARCHABLE}
        searchable.add("patterns", f"r{number}", kept)
    return {
        "full_object_bytes": full_bytes,
        "all_fields_index_bytes": everything.size_bytes(),
        "searchable_index_bytes": searchable.size_bytes(),
    }


def _e1_margins(c: Cells) -> list[int]:
    """Per need: meta-data hits minus filename hits among the relevant."""
    return [c[need]["metadata_hits"] - c[need]["filename_hits"] for need in E1_NEEDS]


E1 = Claim(
    "E1",
    "meta-data search vs filename search",
    "§I, §II",
    "“[Filename matching] acts as a barrier to sharing of complex objects — for example, a "
    "design patterns community requires the ability to search not just name but purpose, "
    "keywords, applications, etc.”",
    {**{need: partial(_e1_need, need) for need in E1_NEEDS}, "index size": _e1_index_bytes},
    {
        "metadata recall >= filename recall, every need": lambda c: min(_e1_margins(c)) >= 0,
        "metadata recall > filename recall, >= 3 needs": lambda c: (
            sum(margin > 0 for margin in _e1_margins(c)) >= 3
        ),
        "searchable-field index < whole objects": lambda c: (
            c["index size"]["searchable_index_bytes"] < c["index size"]["full_object_bytes"]
        ),
    },
)


# E2 — community discovery is resource discovery -----------------------
E2_COUNTS = (10, 50, 100, 200)
E2_CATEGORIES = ("media", "science", "software", "teaching", "games")


def _e2_world(community_count: int) -> Counters:
    """Found ``community_count`` communities, discover them through
    root-community searches and join one that was discovered."""
    network = CentralizedProtocol(seed=7)
    founder = Servent("founder", network)
    seeker = Servent("seeker", network)
    categories = [E2_CATEGORIES[index % len(E2_CATEGORIES)] for index in range(community_count)]
    for index, category in enumerate(categories):
        builder = SchemaBuilder(f"item{index}")
        builder.field("title", searchable=True)
        builder.field("summary", searchable=True)
        founder.create_community(
            f"Community {index:03d} ({category})",
            builder.to_xsd(),
            description=f"A {category} sharing community number {index}",
            keywords=f"{category} shared resources group{index % 10}",
            category=category,
        )
    science = seeker.search_communities("science")
    network.stats.reset()
    browse = seeker.search_communities(max_results=1000)
    narrowed = seeker.search_communities("science group6", max_results=1000)
    in_root = [result.community_id == ROOT_COMMUNITY_ID for result in science.results]
    counters = {
        "science_expected": categories.count("science"),
        "science_results": science.result_count,
        "science_in_root": sum(in_root),
        "browse_results": browse.result_count,
        "narrowed_results": narrowed.result_count,
        **_query_counters(network),
    }
    joined = seeker.join_community(seeker.search_communities("group7").results[0])
    counters["joined_root_element"] = joined.root_element_name
    return counters


def _e2_worlds(c: Cells) -> list[tuple[int, Counters]]:
    """(communities founded, counters) for every world."""
    return [(count, c[f"{count} communities"]) for count in E2_COUNTS]


E2 = Claim(
    "E2",
    "community discovery is resource discovery",
    "§I, §IV-A, §VI",
    "“The community discovery problem becomes just a specific case of the more general problem "
    "of resource discovery.”",
    {f"{count} communities": partial(_e2_world, count) for count in E2_COUNTS},
    {
        "a category search finds exactly that category": lambda c: all(
            world["science_results"] == world["science_expected"] for world in c.values()
        ),
        "every discovered community is a root object": lambda c: all(
            world["science_in_root"] == world["science_results"] for world in c.values()
        ),
        "browsing finds every community": lambda c: all(
            world["browse_results"] == count for count, world in _e2_worlds(c)
        ),
        "a narrowed search finds some but not all": lambda c: all(
            0 < world["narrowed_results"] < count for count, world in _e2_worlds(c)
        ),
        "msgs/query at 10 communities == at 200": lambda c: (
            c["10 communities"]["msgs_per_query"] == c["200 communities"]["msgs_per_query"]
        ),
        "joining a discovered community fetches its schema": _every(
            "joined_root_element", lambda root: root.startswith("item")
        ),
    },
)


# E3 — protocol independence -------------------------------------------
E3_PROTOCOLS = ("centralized", "gnutella", "super-peer")
E3_BASE = dict(peers=60, members=24, publishers=12, corpus_size=90, queries=30, ttl=6, seed=11)
#: eight queries in flight at once on the event kernel
E3_CONCURRENT = dict(E3_BASE, queries=16, concurrency=8, query_interarrival_ms=20.0)


def _e3_cell(knobs: dict) -> Counters:
    scenario = build_scenario(ScenarioConfig(**knobs))
    counts = scenario.run_queries(max_results=200)
    return {
        **_query_counters(scenario.network),
        "bytes": scenario.network.stats.total_bytes,
        "recall": _recall(counts, scenario.workload.expected_matches),
    }


def _e3_msgs(c: Cells) -> tuple[float, float, float]:
    """msgs/query of the centralized, super-peer and gnutella cells."""
    return tuple(c[p]["msgs_per_query"] for p in ("centralized", "super-peer", "gnutella"))


E3 = Claim(
    "E3",
    "the same workload over three network organisations",
    "§IV-B",
    "“[U-P2P] is meant to be layered on top of any peer-to-peer network organization.”",
    {
        **{p: partial(_e3_cell, dict(E3_BASE, protocol=p)) for p in E3_PROTOCOLS},
        **{
            f"{p}/concurrent": partial(_e3_cell, dict(E3_CONCURRENT, protocol=p))
            for p in E3_PROTOCOLS
        },
    },
    {
        "centralized <= super-peer < gnutella msgs/query": lambda c: (
            _e3_msgs(c)[0] <= _e3_msgs(c)[1] < _e3_msgs(c)[2]
        ),
        "gnutella > 10 x centralized msgs/query": lambda c: _e3_msgs(c)[2] > 10 * _e3_msgs(c)[0],
        "every organisation answers >= 60% of queries": lambda c: all(
            c[p]["answered"] / c[p]["queries"] >= 0.6 for p in E3_PROTOCOLS
        ),
        "every organisation's recall >= 0.5": lambda c: all(
            c[p]["recall"] >= 0.5 for p in E3_PROTOCOLS
        ),
    },
)


# E4 — the TTL sweep ---------------------------------------------------
E4_TTLS = (1, 2, 3, 5, 7)
E4_BASE = dict(peers=80, members=30, publishers=15, corpus_size=80, queries=25, seed=23)


def _e4_cell(ttl: int) -> Counters:
    config = ScenarioConfig(protocol="gnutella", community="mp3", degree=3, ttl=ttl, **E4_BASE)
    scenario = build_scenario(config)
    counts = scenario.run_queries(max_results=300)
    records = scenario.network.stats.queries
    return {
        **_query_counters(scenario.network),
        "recall": _recall(counts, scenario.workload.expected_matches),
        "peers_probed": sum(record.peers_probed for record in records) / len(records),
    }


def _e4_ends(c: Cells, counter: str) -> tuple[float, float]:
    """``counter`` at the smallest and at the largest TTL."""
    return c[f"ttl {E4_TTLS[0]}"][counter], c[f"ttl {E4_TTLS[-1]}"][counter]


E4 = Claim(
    "E4",
    "Gnutella TTL sweep (80 peers, power-law overlay, degree 3)",
    "§IV-B",
    "The search horizon of a flooding network is bounded by the query TTL: recall, messages "
    "and probed peers all grow with it.",
    {f"ttl {ttl}": partial(_e4_cell, ttl) for ttl in E4_TTLS},
    {
        "peers probed: ttl 1 < ttl 7": lambda c: operator.lt(*_e4_ends(c, "peers_probed")),
        "msgs/query: ttl 1 < ttl 7": lambda c: operator.lt(*_e4_ends(c, "msgs_per_query")),
        "recall: ttl 1 <= ttl 7": lambda c: operator.le(*_e4_ends(c, "recall")),
        "recall at ttl 7 > 0.8": lambda c: _e4_ends(c, "recall")[1] > 0.8,
        "recall at ttl 1 < 0.7": lambda c: _e4_ends(c, "recall")[0] < 0.7,
    },
)


# E5 — the case study's index filter -----------------------------------
E5_CORPUS = 69
#: policy → the fields its index filter keeps (None: every leaf field)
E5_POLICIES = {"everything": None, "case-study filter": E1_SEARCHABLE, "name only": ("name",)}
E5_QUERIES = {
    "by name": ("name", "Observer"),
    "by intent": ("intent", "families of related objects"),
    "by consequences": ("consequences", "flexibility for indirection"),
    "by participants": ("solution/participants", "ConcreteObserver"),
}


def _e5_policy(policy: str) -> Counters:
    fields = E5_POLICIES[policy]
    schema = parse_schema_text(pattern_schema_xsd())
    descriptor = CommunityDescriptor(name="patterns")
    community = Community(descriptor, pattern_schema_xsd(), index_filter_fields=fields)
    index = AttributeIndex()
    for number, record in enumerate(generate_pattern_corpus(E5_CORPUS, seed=13)):
        resource = Resource("patterns", build_instance(schema, record))
        if fields is None:
            metadata = resource.metadata(schema, searchable_only=False)
        else:
            metadata = community.extract_metadata(resource)
        index.add("patterns", f"r{number}", metadata)
    answerable = [
        name
        for name, (path, value) in E5_QUERIES.items()
        if compile_query(Query("patterns").where(path, value)).evaluate(index)
    ]
    return {
        "indexed_objects": index.indexed_objects(),
        "entries": index.entry_count(),
        "bytes": index.size_bytes(),
        "answerable": answerable,
    }


E5 = Claim(
    "E5",
    "index-filter policies on the design-pattern community",
    "§V",
    "“[The community designer decides] which parts of the design pattern should be indexed.”",
    {policy: partial(_e5_policy, policy) for policy in E5_POLICIES},
    {
        "every policy indexes all 69 objects": _every("indexed_objects", lambda n: n == E5_CORPUS),
        "index bytes: name only < case-study filter < everything": lambda c: (
            c["name only"]["bytes"] < c["case-study filter"]["bytes"] < c["everything"]["bytes"]
        ),
        "indexing everything answers every query class": lambda c: (
            set(c["everything"]["answerable"]) == set(E5_QUERIES)
        ),
        "the case-study filter answers all but participants": lambda c: (
            set(c["case-study filter"]["answerable"]) == {"by name", "by intent", "by consequences"}
        ),
        "indexing the name only answers name search only": lambda c: (
            set(c["name only"]["answerable"]) == {"by name"}
        ),
    },
)


# E6 — replication of popular objects increases availability -----------
E6_RANKS = (0, 1, 4, 9, 19, 39)
E6_DEPARTURES = (5, 10, 15, 20)


def _mp3_members(network, peers: int, members: int) -> tuple[list[Application], object]:
    """``peers`` servents on ``network``; the first founds the MP3
    community and the next ``members - 1`` discover and join it."""
    definition = mp3_community()
    servents = [Servent(f"peer-{index:02d}", network) for index in range(peers)]
    applications = [definition.application_on(servents[0])]
    for servent in servents[1:members]:
        found = servent.search_communities("music").results
        discovered = next(result for result in found if result.title == definition.name)
        applications.append(Application(servent, servent.join_community(discovered)))
    return applications, definition


def _e6_world() -> Counters:
    """Thirty peers download Zipf-popular objects among forty, then
    random peers depart."""
    network = CentralizedProtocol(seed=29)
    applications, definition = _mp3_members(network, 30, 30)
    corpus = definition.sample_corpus(40, seed=29)
    published = [applications[index % 5].publish(record) for index, record in enumerate(corpus)]
    resource_ids = [result.resource_id for result in published]
    catalog = Query(applications[0].community.community_id)
    for number, rank in enumerate(ZipfDistribution(40, exponent=1.0, seed=31).sample_many(150)):
        application = applications[number % len(applications)]
        servent, wanted = application.servent, resource_ids[rank]
        results = network.search(servent.peer_id, catalog, max_results=2000).results
        hits = [hit for hit in results if hit.resource_id == wanted]
        hit = next((hit for hit in hits if hit.provider_id != servent.peer_id), None)
        if hit is not None and not servent.repository.documents.contains(wanted):
            application.download(hit)
    counters: Counters = {
        f"providers_rank{rank}": network.provider_count(resource_ids[rank]) for rank in E6_RANKS
    }
    for departures in E6_DEPARTURES:
        online = [peer_id for peer_id in network.peers if network.peer(peer_id).online]
        for peer_id in random.Random(37).sample(online, min(departures, len(online) - 1)):
            network.set_online(peer_id, False)
        reachable = [network.provider_count(resource_id) > 0 for resource_id in resource_ids]
        counters[f"reachable_after_{departures}"] = sum(reachable)
        counters[f"top5_reachable_after_{departures}"] = sum(reachable[:5])
        for peer_id in network.peers:
            network.set_online(peer_id, True)
    return counters


E6 = Claim(
    "E6",
    "replicas per popularity rank, and availability after departures",
    "§II",
    "“By downloading popular files, users increased the robustness of the network by "
    "increasing the probability of finding a host sharing the file.”",
    {"zipf downloads (30 peers, 40 objects, 150 downloads)": _e6_world},
    {
        "the most popular object has more providers than the least": lambda c: (
            _only(c)["providers_rank0"] > _only(c)["providers_rank39"]
        ),
        "the most popular object has >= 3 providers": _every("providers_rank0", lambda n: n >= 3),
        "after 20 departures the top 5 stay as reachable as all": lambda c: (
            _only(c)["top5_reachable_after_20"] / 5 >= _only(c)["reachable_after_20"] / 40
        ),
    },
)


# E7 — the substrate's inventory ---------------------------------------
def _e7_substrate() -> Counters:
    """Parse, serialize, validate, select, transform and index the
    pattern corpus through every substrate layer once."""
    schema = parse_schema_text(pattern_schema_xsd())
    instances = [build_instance(schema, record) for record in generate_pattern_corpus(40, seed=3)]
    texts = [serialize(instance, xml_declaration=False) for instance in instances]
    participants = XPath("solution/participants")
    views = [StylesheetSet().render_view(text) for text in texts[:10]]
    index = AttributeIndex()
    for number, instance in enumerate(instances):
        index.add("patterns", f"r{number}", Resource("patterns", instance).metadata(schema))
    factory = compile_query(Query.keyword("patterns", "factory"))
    return {
        "objects": len(instances),
        "parsed": sum(1 for text in texts if parse(text).root.local_name == "pattern"),
        "declared": sum(1 for instance in instances if pretty(instance).startswith("<?xml")),
        "pattern_schema_root": schema.root_element().name,
        "community_schema_root": parse_schema_text(COMMUNITY_SCHEMA_XSD).root_element().name,
        "valid": sum(1 for instance in instances if validate(schema, instance).is_valid),
        "min_participants": min(len(participants.select(instance)) for instance in instances),
        "view_pages": len(views),
        "view_pages_with_table": sum(1 for view in views if "<table" in view),
        "indexed_objects": index.indexed_objects(),
        "index_entries": index.entry_count(),
        "index_bytes": index.size_bytes(),
        "factory_hits": len(factory.evaluate(index)),
    }


E7 = Claim(
    "E7",
    "the substrate on the pattern corpus",
    "§IV-C.1",
    "“The shared object will always be an XML object described by the community schema.”",
    {"pattern corpus (40 objects)": _e7_substrate},
    {
        "every object parses back": lambda c: _only(c)["parsed"] == _only(c)["objects"],
        "every pretty form has an XML declaration": lambda c: (
            _only(c)["declared"] == _only(c)["objects"]
        ),
        "the pattern schema's root is <pattern>": lambda c: (
            _only(c)["pattern_schema_root"] == "pattern"
        ),
        "the Fig. 3 schema's root is <community>": lambda c: (
            _only(c)["community_schema_root"] == "community"
        ),
        "every object validates": lambda c: _only(c)["valid"] == _only(c)["objects"],
        "every object names >= 1 participant": _every("min_participants", lambda n: n >= 1),
        "every view page renders a table": lambda c: (
            _only(c)["view_pages_with_table"] == _only(c)["view_pages"]
        ),
        "a keyword search finds hits": _every("factory_hits", lambda n: n > 0),
    },
)


# E8 — download-and-replicate on the event kernel ----------------------
PROTOCOLS = ("centralized", "gnutella", "super-peer", "rendezvous")
E8_BASE = dict(peers=24, members=12, publishers=4, corpus_size=24, queries=48, ttl=8, seed=17)
#: phase → the share of workload positions that become downloads
E8_PHASES = {"no downloads": 0.0, "replicating": 0.5}


def _e8_available(scenario: Scenario, departures: int) -> int:
    """Corpus objects still held by some online peer after ``departures``
    random peers leave (they come back afterwards)."""
    network = scenario.network
    online = [peer_id for peer_id in network.peers if network.peer(peer_id).online]
    departed = random.Random(37).sample(online, min(departures, len(online) - 1))
    for peer_id in departed:
        network.set_online(peer_id, False)
    held = [network.locate_provider(resource_id) for resource_id in scenario.resource_ids]
    for peer_id in departed:
        network.set_online(peer_id, True)
    return sum(1 for provider in held if provider is not None)


def _e8_cell(protocol: str, retrieve_fraction: float) -> Counters:
    config = ScenarioConfig(
        protocol=protocol,
        retrieve_fraction=retrieve_fraction,
        popularity_skew=1.2,
        concurrency=6,
        query_interarrival_ms=10.0,
        **E8_BASE,
    )
    scenario = build_scenario(config)
    outcome = scenario.run_mixed_workload(max_results=100)
    network, replicas = scenario.network, scenario.network.replicas
    degrees = scenario.replication_degrees()
    replicated = [
        resource_id
        for resource_id in scenario.resource_ids
        if any(
            entry.provenance == REPLICA and entry.recorded_at_ms > 0
            for entry in replicas.entries_for(resource_id)
        )
    ]
    searcher, catalog = scenario.members()[-1].peer_id, Query(scenario.community_id)
    hit_on_replica = False
    for resource_id in replicated[:6]:
        results = network.search(searcher, catalog, max_results=2000).results
        providers = [hit.provider_id for hit in results if hit.resource_id == resource_id]
        hit_on_replica = any(replicas.provenance(resource_id, p) == REPLICA for p in providers)
        if hit_on_replica:
            break
    popular = scenario.resource_ids[0]
    results = network.search(searcher, catalog, max_results=2000).results
    popular_hits = [hit for hit in results if hit.resource_id == popular]
    return {
        "downloads_completed": outcome.downloads_completed,
        "copies_head5": sum(degrees[:5]),
        "copies_tail5": sum(degrees[-5:]),
        "max_copies_head3": max(degrees[:3]),
        "replicated_midrun": len(replicated),
        "hit_on_replica": hit_on_replica,
        "popular_copies": network.replication_degree(popular),
        "popular_providers_found": len(popular_hits),
        "popular_closest_hops": min((hit.hops for hit in popular_hits), default=None),
        "available_after_6": _e8_available(scenario, 6),
        "available_after_12": _e8_available(scenario, 12),
    }


def _e8_pairs(c: Cells, protocols=PROTOCOLS) -> list[tuple[Counters, Counters]]:
    """(no downloads, replicating) for every protocol in ``protocols``."""
    return [(c[f"{p}/no downloads"], c[f"{p}/replicating"]) for p in protocols]


def _closer_or_unknown(before: Optional[int], after: Optional[int]) -> bool:
    return before is None or after is None or after <= before


E8 = Claim(
    "E8",
    "download-and-replicate on the event kernel, all four organisations",
    "§II",
    "“By downloading popular files, users increased the robustness of the network by "
    "increasing the probability of finding a host sharing the file.”",
    {
        f"{protocol}/{phase}": partial(_e8_cell, protocol, fraction)
        for protocol in PROTOCOLS
        for phase, fraction in E8_PHASES.items()
    },
    {
        "replicating completes downloads": _every(
            "downloads_completed", lambda n: n > 0, "/replicating"
        ),
        "the top 5 objects hold more copies than the last 5": lambda c: all(
            on["copies_head5"] > on["copies_tail5"] for _, on in _e8_pairs(c)
        ),
        "the head of the distribution replicated (>= 2 copies)": _every(
            "max_copies_head3", lambda n: n >= 2, "/replicating"
        ),
        "the workload created replicas mid-run": _every(
            "replicated_midrun", lambda n: n > 0, "/replicating"
        ),
        "every organisation resolves to a mid-run replica": _every(
            "hit_on_replica", bool, "/replicating"
        ),
        "gnutella: replication adds popular copies": lambda c: all(
            on["popular_copies"] > off["popular_copies"] for off, on in _e8_pairs(c, ["gnutella"])
        ),
        "gnutella: more copies never move the closest hit away": lambda c: all(
            _closer_or_unknown(off["popular_closest_hops"], on["popular_closest_hops"])
            for off, on in _e8_pairs(c, ["gnutella"])
        ),
        "replicas never lower availability after departures": lambda c: all(
            on[f"available_after_{n}"] >= off[f"available_after_{n}"]
            for off, on in _e8_pairs(c)
            for n in (6, 12)
        ),
    },
)


# E9 — membership maintenance: control overhead vs availability --------
#: churn level → mean online-session length (absence scales with it)
E9_CHURN = {"harsh": 700.0, "moderate": 1_500.0, "gentle": 3_000.0}
E9_BASE = dict(peers=40, members=16, publishers=8, corpus_size=60, queries=24, ttl=6, seed=17)
#: live membership, with the maintenance tick and lease the sweep pays for
E9_LIVE = dict(live_membership=True, maintenance_interval_ms=250.0, rendezvous_lease_ms=1_000.0)
#: steady-state epilogue after the query phase, so maintenance keeps
#: ticking (and staleness keeps resolving) beyond the last query
E9_EPILOGUE_MS = 4_000.0


def _e9_cell(protocol: str, session_ms: float) -> Counters:
    """Live membership under churn that strikes everyone but two
    searchers, publishers included, so each organisation's stale state
    (registrations, ads, leaf records) genuinely decays."""
    concurrent = dict(concurrency=6, query_interarrival_ms=20.0)
    config = ScenarioConfig(protocol=protocol, **concurrent, **E9_LIVE, **E9_BASE)
    scenario = build_scenario(config)
    _churn(scenario, session_ms)
    counts = scenario.run_queries(max_results=100)
    simulator = scenario.network.simulator
    simulator.run(until_ms=simulator.now + E9_EPILOGUE_MS)
    stats = scenario.network.stats
    return {
        "queries": len(counts),
        "answered": _answered(counts),
        "messages": stats.total_messages,
        "bytes": stats.total_bytes,
        "control_messages": stats.control_messages,
        "control_bytes": stats.control_bytes,
        "staleness_events": len(stats.staleness_windows_ms),
        "mean_staleness_ms": round(_mean(stats.staleness_windows_ms), 3),
        "max_staleness_ms": round(stats.max_staleness_ms(), 3),
    }


E9 = Claim(
    "E9",
    "membership maintenance: control overhead vs availability (40 peers)",
    "§II",
    "The robustness comparison between network organisations is only honest when peers pay "
    "to come and go.",
    {
        f"{protocol}/{level}": partial(_e9_cell, protocol, session_ms)
        for protocol in PROTOCOLS
        for level, session_ms in E9_CHURN.items()
    },
    {
        "every cell pays maintenance traffic": _every("control_bytes", lambda n: n > 0),
        "every cell answers some query": _every("answered", lambda n: n > 0),
        "every organisation pays staleness somewhere": lambda c: all(
            any(cell["staleness_events"] > 0 for cell in _each(c, f"{p}/")) for p in PROTOCOLS
        ),
    },
)


# E10 — query-result caching -------------------------------------------
E10_SIZES = (8, 256)
E10_TTLS_MS = (400.0, 4_000.0)
#: churn level → mean online-session length (None: a static population)
CHURN_LEVELS = {"static": None, "churny": 1_200.0}
#: the workload E10–E12 share, with six queries in flight at a time
SMALL_BASE = dict(peers=30, members=12, publishers=6, corpus_size=40, queries=48, ttl=6, seed=29)
SMALL_CONCURRENT = dict(SMALL_BASE, concurrency=6, query_interarrival_ms=20.0)


def _e10_cell(
    protocol: str, session_ms: Optional[float], capacity: Optional[int], ttl_ms: float = 2_000.0
) -> Counters:
    """A repeat-heavy workload under churn; ``capacity=None`` is the
    caching-off baseline of the messages-saved delta.  Membership stays
    instant, so the message delta is purely the cache's doing."""
    config = ScenarioConfig(
        protocol=protocol,
        result_caching=capacity is not None,
        cache_capacity=capacity or 128,
        cache_ttl_ms=ttl_ms,
        query_repeat_alpha=0.6,
        **SMALL_CONCURRENT,
    )
    scenario = build_scenario(config)
    _churn(scenario, session_ms)
    counts = scenario.run_queries(max_results=100)
    stats = scenario.network.stats
    return {
        "queries": len(counts),
        "answered": _answered(counts),
        "messages": stats.total_messages,
        "cache_hits": stats.cache_hits,
        "cache_misses": stats.cache_misses,
        "stale_served": stats.cache_stale_served,
    }


def _e10_cells() -> dict[str, Callable[[], Counters]]:
    cells = {}
    for protocol in PROTOCOLS:
        for level, session_ms in CHURN_LEVELS.items():
            cells[f"{protocol}/{level}/off"] = partial(_e10_cell, protocol, session_ms, None)
            for size in E10_SIZES:
                for ttl_ms in E10_TTLS_MS:
                    label = f"{protocol}/{level}/size{size}/ttl{ttl_ms:.0f}"
                    cells[label] = partial(_e10_cell, protocol, session_ms, size, ttl_ms)
    return cells


def _e10_best_saved(c: Cells, protocol: str) -> int:
    """The most messages any caching cell of ``protocol`` saved against
    the caching-off baseline at its churn level."""
    return max(
        c[label.rsplit("/", 2)[0] + "/off"]["messages"] - cell["messages"]
        for label, cell in c.items()
        if label.startswith(f"{protocol}/") and "/size" in label
    )


E10 = Claim(
    "E10",
    "query-result caching: hit ratio, messages saved, staleness paid (30 peers)",
    "§II",
    "Every network organisation re-pays its full discovery cost when a popular query is "
    "re-issued; a result cache where the organisation concentrates traffic avoids it.",
    _e10_cells(),
    {
        "every caching cell hits the cache": _every("cache_hits", lambda n: n > 0, "/size"),
        "every caching cell answers some query": _every("answered", lambda n: n > 0, "/size"),
        "caching saves gnutella and super-peer messages": lambda c: all(
            _e10_best_saved(c, p) > 0 for p in ("gnutella", "super-peer")
        ),
    },
)


# E11 — informed routing -----------------------------------------------
E11_BITS = (512, 2_048)
E11_DEPTHS = (2, 4)
#: the live-membership pair: the filters ride keepalive PONGs
E11_LIVE = dict(live_membership=True, maintenance_interval_ms=250.0)


def _e11_cell(session_ms: Optional[float], **knobs) -> Counters:
    """Relay churn (the member core stays online) and the filters per
    the cell's knobs; membership is instant unless the knobs say live."""
    if session_ms is not None:
        knobs.update(churn_session_ms=session_ms, churn_absence_ms=session_ms * 0.6)
    scenario = build_scenario(ScenarioConfig(protocol="gnutella", **SMALL_CONCURRENT, **knobs))
    counts = scenario.run_queries(max_results=100)
    stats = scenario.network.stats
    return {
        "counts": counts,
        "answered": _answered(counts),
        "messages": stats.total_messages,
        "bytes": stats.total_bytes,
        "routing_pruned": stats.routing_pruned,
        "routing_fallbacks": stats.routing_fallbacks,
        "routing_fp_forwards": stats.routing_fp_forwards,
        "routing_filter_bytes": stats.routing_filter_bytes,
    }


def _e11_cells() -> dict[str, Callable[[], Counters]]:
    cells = {}
    for level, session_ms in CHURN_LEVELS.items():
        cells[f"{level}/blind"] = partial(_e11_cell, session_ms)
        for bits in E11_BITS:
            for depth in E11_DEPTHS:
                knobs = dict(routing_filter_bits=bits, routing_depth=depth)
                cells[f"{level}/bits{bits}/depth{depth}"] = partial(
                    _e11_cell, session_ms, informed_routing=True, **knobs
                )
    churny = CHURN_LEVELS["churny"]
    cells["live/blind"] = partial(_e11_cell, churny, **E11_LIVE)
    cells["live/informed"] = partial(_e11_cell, churny, informed_routing=True, **E11_LIVE)
    return cells


def _e11_pairs(c: Cells, level: str = "") -> list[tuple[Counters, Counters]]:
    """(blind, informed) for every informed cell at churn ``level``
    (every level, the live pair included, by default)."""
    return [
        (c[label.split("/")[0] + "/blind"], cell)
        for label, cell in c.items()
        if label.startswith(level) and not label.endswith("/blind")
    ]


E11 = Claim(
    "E11",
    "informed routing: messages saved vs recall vs filter geometry (30 peers)",
    "§IV-B",
    "Per-neighbour attenuated Bloom filters prune the flood's fan-out and may never cost a "
    "result.",
    _e11_cells(),
    {
        "informed result counts == blind ones, every cell": lambda c: all(
            informed["counts"] == blind["counts"] for blind, informed in _e11_pairs(c)
        ),
        "informed never sends more messages than blind": lambda c: all(
            informed["messages"] <= blind["messages"]
            for level in CHURN_LEVELS
            for blind, informed in _e11_pairs(c, level)
        ),
        "some filter geometry saves messages at each churn level": lambda c: all(
            any(informed["messages"] < blind["messages"] for blind, informed in _e11_pairs(c, lv))
            for lv in CHURN_LEVELS
        ),
        "live membership bills filter advertisements": lambda c: (
            c["live/informed"]["routing_filter_bytes"] > 0
        ),
    },
)


# E12 — fault injection ------------------------------------------------
#: 0.0 is the clean-network reference cell: a few workload downloads
#: fail deterministically even without faults (the drawn requester is
#: the object's only holder), so survival is judged against it
E12_LOSS_RATES = (0.0, 0.02, 0.10)
E12_BASE = dict(SMALL_CONCURRENT, live_membership=True, retrieve_fraction=0.35, popularity_skew=0.8)
#: the hardened stack: ack/retry envelope on control traffic and chunked
#: downloads with a stall watchdog that outlasts the ~150 ms a 16 KB
#: chunk takes at the modelled bandwidth
E12_CHUNKED = dict(download_chunk_bytes=16 * 1024, download_stall_timeout_ms=800.0)
E12_HARDENED = dict(E12_CHUNKED, reliable_delivery=True, retry_timeout_ms=120.0)
#: the outage cell needs a backoff span and attempt budget that can ride
#: out the full 2-second cut
E12_OUTAGE_HARDENED = dict(E12_HARDENED, retry_timeout_ms=300.0, retry_max_attempts=6)
E12_OUTAGE_MS = (500.0, 2_500.0)
E12_STACKS = ("legacy", "hardened")
#: the failover network: twelve peers with chunked downloads
E12_FAILOVER = dict(
    protocol="centralized",
    peers=12,
    members=6,
    publishers=2,
    corpus_size=10,
    queries=4,
    seed=5,
    reliable_delivery=True,
    download_chunk_bytes=16 * 1024,
    download_stall_timeout_ms=400.0,
)


def _e12_counters(scenario: Scenario) -> Counters:
    outcome = scenario.run_mixed_workload(max_results=100)
    stats = scenario.network.stats
    return {
        "queries": len(outcome.result_counts),
        "answered": _answered(outcome.result_counts),
        "messages": stats.total_messages,
        "downloads_attempted": len(outcome.retrieves),
        "downloads_completed": outcome.downloads_completed,
        "download_failures": outcome.retrieve_failures,
        **stats.fault_summary(),
    }


def _e12_loss(protocol: str, loss_rate: float, stack: str) -> Counters:
    """The mixed workload under uniform message loss."""
    plan = FaultPlan(seed=17, loss_rate=loss_rate) if loss_rate else None
    knobs = E12_HARDENED if stack == "hardened" else {}
    config = ScenarioConfig(protocol=protocol, faults=plan, **knobs, **E12_BASE)
    return _e12_counters(build_scenario(config))


def _e12_outage(protocol: str, stack: str) -> Counters:
    """A deterministic mid-workload cut between the pure searchers and
    everyone else (providers, relays and the virtual hubs), healing
    before the workload ends: both stacks face the identical outage."""
    knobs = E12_OUTAGE_HARDENED if stack == "hardened" else {}
    config = ScenarioConfig(protocol=protocol, **knobs, **E12_BASE)
    scenario = build_scenario(config)
    network = scenario.network
    pure_searchers = scenario.servents[config.publishers : config.members]
    searchers = tuple(servent.peer_id for servent in pure_searchers)
    others = set(network.peers) - set(searchers) | set(network.kernel.virtual_nodes)
    cut = PartitionWindow(*E12_OUTAGE_MS, searchers, tuple(sorted(others)))
    network.install_faults(FaultPlan(partitions=(cut,)))
    return _e12_counters(scenario)


def _e12_failover(with_replica: bool) -> Counters:
    """A provider crash-stops halfway through a chunked download.  With a
    second replica (an earlier download made one) the stall watchdog
    fails over and completes; without one the transfer is stranded."""
    scenario = build_scenario(ScenarioConfig(**E12_FAILOVER))
    network, resource_id = scenario.network, scenario.resource_ids[0]
    provider = network.locate_provider(resource_id)
    reference = network.retrieve("peer-0004", provider, resource_id)
    if not with_replica:
        # An identically built network, which never made the replica.
        network = build_scenario(ScenarioConfig(**E12_FAILOVER)).network
    network.simulator.post(reference.latency_ms * 0.5, network.depart, provider)
    try:
        recovered = network.retrieve("peer-0005", provider, resource_id)
    except TransferError:
        recovered = None
    return {
        "completed": recovered is not None,
        "clean_latency_ms": round(reference.latency_ms, 3),
        "latency_ms": None if recovered is None else round(recovered.latency_ms, 3),
        "failovers": network.stats.failovers,
        "timeouts": network.stats.timeouts,
    }


def _e12_cells() -> dict[str, Callable[[], Counters]]:
    cells: dict[str, Callable[[], Counters]] = {}
    for protocol in PROTOCOLS:
        for rate in E12_LOSS_RATES:
            for stack in E12_STACKS:
                cells[f"{protocol}/loss{rate:.0%}/{stack}"] = partial(
                    _e12_loss, protocol, rate, stack
                )
        for stack in E12_STACKS:
            cells[f"{protocol}/cut 2s/{stack}"] = partial(_e12_outage, protocol, stack)
    cells["failover/no replica"] = partial(_e12_failover, False)
    cells["failover/replica"] = partial(_e12_failover, True)
    return cells


def _e12_pairs(c: Cells, faults: str) -> list[tuple[Counters, Counters]]:
    """(legacy, hardened) for every protocol under ``faults`` (a loss
    rate such as ``loss10%``, or ``cut 2s``)."""
    return [(c[f"{p}/{faults}/legacy"], c[f"{p}/{faults}/hardened"]) for p in PROTOCOLS]


def _e12_completed(c: Cells, faults: str, stack: str) -> list[int]:
    """Downloads completed per protocol under ``faults`` on ``stack``."""
    return [c[f"{p}/{faults}/{stack}"]["downloads_completed"] for p in PROTOCOLS]


E12 = Claim(
    "E12",
    "fault injection: loss sweep, partition outage, crash failover (30 peers)",
    "§II",
    "Reliable delivery buys back what a deployment's faults take: lost messages, a partition, "
    "a crashed provider.",
    _e12_cells(),
    {
        "under loss, hardening never loses a download": lambda c: all(
            hardened["downloads_completed"] >= legacy["downloads_completed"]
            for rate in E12_LOSS_RATES
            for legacy, hardened in _e12_pairs(c, f"loss{rate:.0%}")
        ),
        "every lossy hardened cell drops messages": lambda c: all(
            hardened["dropped"] > 0
            for rate in E12_LOSS_RATES[1:]
            for _, hardened in _e12_pairs(c, f"loss{rate:.0%}")
        ),
        "at 10% loss recovery engages": lambda c: all(
            hardened["retries"] + hardened["failovers"] > 0
            for _, hardened in _e12_pairs(c, "loss10%")
        ),
        "hardened downloads survive 10% loss": lambda c: (
            _e12_completed(c, "loss10%", "hardened") == _e12_completed(c, "loss0%", "hardened")
        ),
        "the cut drops messages on the hardened stack": lambda c: all(
            hardened["partition_dropped"] > 0 for _, hardened in _e12_pairs(c, "cut 2s")
        ),
        "the cut drops messages on the legacy stack": lambda c: all(
            legacy["partition_dropped"] > 0 for legacy, _ in _e12_pairs(c, "cut 2s")
        ),
        "hardening never loses a download to the cut": lambda c: all(
            hardened["downloads_completed"] >= legacy["downloads_completed"]
            for legacy, hardened in _e12_pairs(c, "cut 2s")
        ),
        "hardened downloads ride out the cut": lambda c: (
            _e12_completed(c, "cut 2s", "hardened") == _e12_completed(c, "loss0%", "hardened")
        ),
        "without a replica the crash strands the download": lambda c: (
            not c["failover/no replica"]["completed"]
        ),
        "without a replica nothing fails over": _every("failovers", lambda n: n == 0, "no replica"),
        "with a replica the download completes": lambda c: c["failover/replica"]["completed"],
        "with a replica it fails over exactly once": lambda c: (
            c["failover/replica"]["failovers"] == 1
        ),
        "failing over costs latency": lambda c: (
            c["failover/replica"]["latency_ms"] > c["failover/replica"]["clean_latency_ms"]
        ),
    },
)


# A1 — overlay topology of the flooding network ------------------------
A1_TOPOLOGIES = ("power-law", "random", "ring", "star")
A1_TTL = 4
A1_ORIGINS = tuple(f"peer-{index:03d}" for index in (1, 7, 13, 29, 41))


def _a1_cell(kind: str) -> Counters:
    """Sixty peers, an Observer on every fifth, five keyword floods."""
    network = GnutellaProtocol(seed=9, degree=4, default_ttl=A1_TTL, topology_kind=kind)
    for index in range(60):
        network.create_peer(f"peer-{index:03d}")
    network.build_overlay()
    for index in range(0, 60, 5):
        peer = network.peer(f"peer-{index:03d}")
        document = parse(f"<pattern><name>Observer {index}</name></pattern>").root
        metadata = {"name": [f"Observer {index}"]}
        result = peer.repository.publish("patterns", document, metadata)
        network.publish(peer.peer_id, "patterns", result.resource_id, metadata)
    network.stats.reset()
    query = Query.keyword("patterns", "observer")
    results = [network.search(o, query, max_results=500).result_count for o in A1_ORIGINS]
    reach = [network.reachable_peers(origin, ttl=A1_TTL) for origin in A1_ORIGINS]
    overlay = Topology({peer_id: set(peer.neighbors) for peer_id, peer in network.peers.items()})
    return {
        "results_per_query": sum(results) / len(A1_ORIGINS),
        "msgs_per_query": _query_counters(network)["msgs_per_query"],
        "reach": sum(reach) / len(A1_ORIGINS),
        "path_length": overlay.average_path_length(),
    }


A1 = Claim(
    "A1",
    "overlay ablation for flooding search (ttl 4, 60 peers)",
    "ablation",
    "Short-diameter overlays reach more of the network within the TTL, which is why the "
    "power-law default matters for the TTL sweep.",
    {kind: partial(_a1_cell, kind) for kind in A1_TOPOLOGIES},
    {
        "power-law reach > 2 x ring reach": lambda c: (
            c["power-law"]["reach"] > c["ring"]["reach"] * 2
        ),
        "star reach >= ring reach": lambda c: c["star"]["reach"] >= c["ring"]["reach"],
        "power-law results >= ring results": lambda c: (
            c["power-law"]["results_per_query"] >= c["ring"]["results_per_query"]
        ),
        "ring paths > power-law paths": lambda c: (
            c["ring"]["path_length"] > c["power-law"]["path_length"]
        ),
    },
)


# A2 — how much hierarchy the overlay needs ----------------------------
A2_RATIOS = (0.05, 0.1, 0.2, 0.4)
A2_WALK_LIMITS = (1, 2, 4, None)


def _a2_cell(factory: Callable[[], object]) -> Counters:
    """Sixty peers, a Coltrane record on every fourth, five keyword
    searches; recall counts remote records only."""
    network = factory()
    for index in range(60):
        network.create_peer(f"peer-{index:03d}")
    if isinstance(network, SuperPeerProtocol):
        network.elect_super_peers()
    else:
        network.elect_rendezvous()
    published = 0
    for index in range(0, 60, 4):
        peer = network.peer(f"peer-{index:03d}")
        xml = f"<mp3><title>Blue Train {index}</title><artist>Coltrane</artist></mp3>"
        metadata = {"title": [f"Blue Train {index}"], "artist": ["Coltrane"]}
        result = peer.repository.publish("mp3s", parse(xml).root, metadata)
        network.publish(peer.peer_id, "mp3s", result.resource_id, metadata)
        published += 1
    network.stats.reset()
    recalls = []
    for origin in (f"peer-{index:03d}" for index in (1, 11, 21, 31, 41)):
        response = network.search(origin, Query.keyword("mp3s", "coltrane"), max_results=500)
        remote = published - (1 if network.peer(origin).repository.documents else 0)
        found = {result.resource_id for result in response.results}
        recalls.append(len(found) / max(1, remote))
    counters = {"recall": _mean(recalls), **_query_counters(network)}
    if isinstance(network, SuperPeerProtocol):
        counters["super_peers"] = len(network.super_peer_ids())
    return counters


def _a2_cells() -> dict[str, Callable[[], Counters]]:
    cells = {}
    for ratio in A2_RATIOS:
        factory = partial(SuperPeerProtocol, seed=3, super_peer_ratio=ratio)
        cells[f"super-peer/ratio {ratio}"] = partial(_a2_cell, factory)
    for limit in A2_WALK_LIMITS:
        factory = partial(RendezvousProtocol, seed=3, rendezvous_ratio=0.2, walk_limit=limit)
        cells[f"rendezvous/walk {limit or 'full'}"] = partial(_a2_cell, factory)
    return cells


A2 = Claim(
    "A2",
    "super-peer ratio and rendezvous walk-limit sweeps (60 peers)",
    "ablation",
    "A two-tier hierarchy keeps full recall while its message cost grows with the number of "
    "hubs it must contact; truncating the rendezvous walk trades recall for messages.",
    _a2_cells(),
    {
        "msgs/query: ratio 0.05 < ratio 0.4": lambda c: (
            c["super-peer/ratio 0.05"]["msgs_per_query"]
            < c["super-peer/ratio 0.4"]["msgs_per_query"]
        ),
        "every super-peer ratio recalls >= 0.99": _every("recall", lambda r: r >= 0.99, "super"),
        "recall: walk 1 < full walk": lambda c: (
            c["rendezvous/walk 1"]["recall"] < c["rendezvous/walk full"]["recall"]
        ),
        "msgs/query: walk 1 < full walk": lambda c: (
            c["rendezvous/walk 1"]["msgs_per_query"] < c["rendezvous/walk full"]["msgs_per_query"]
        ),
        "the full walk recalls >= 0.99": _every("recall", lambda r: r >= 0.99, "walk full"),
    },
)


# A3 — churn rate vs search success ------------------------------------
#: availability = session / (session + absence): absence fixed at 2 s of
#: virtual time, session swept downwards
A3_SESSIONS_MS = (18_000.0, 6_000.0, 2_000.0)
A3_ABSENCE_MS = 2_000.0
A3_NETWORKS = {
    "centralized": partial(CentralizedProtocol, seed=51),
    "gnutella": partial(GnutellaProtocol, seed=51, degree=4, default_ttl=7),
    "super-peer": partial(SuperPeerProtocol, seed=51, super_peer_ratio=0.2),
}
A3_IN_FLIGHT = dict(peers=40, members=12, publishers=8, corpus_size=40, queries=24, ttl=7, seed=51)


def _a3_cell(protocol: str, session_ms: float) -> Counters:
    """The MP3 community on forty peers; its twelve members stay up and
    the rest churn; thirty artist searches, one every 500 ms."""
    network = A3_NETWORKS[protocol]()
    applications, definition = _mp3_members(network, 40, 12)
    if isinstance(network, GnutellaProtocol):
        network.build_overlay()
    if isinstance(network, SuperPeerProtocol):
        network.elect_super_peers()
    corpus = definition.sample_corpus(40, seed=51)
    for index, record in enumerate(corpus):
        applications[index % len(applications)].publish(record)
    churn = PopulationModel(
        network, mean_session_ms=session_ms, mean_absence_ms=A3_ABSENCE_MS, seed=5
    )
    churn.start([f"peer-{index:02d}" for index in range(12, 40)])
    network.stats.reset()
    answered = 0
    for number in range(30):
        network.simulator.run(until_ms=network.simulator.now + 500)
        searcher = applications[number % len(applications)]
        artist = str(corpus[number % len(corpus)]["artist"])
        answered += searcher.search({"artist": artist}, max_results=100).result_count > 0
    return {
        "queries": 30,
        "answered": answered,
        "online_peers": len(network.online_peers()),
        "msgs_per_query": _query_counters(network)["msgs_per_query"],
    }


def _a3_in_flight() -> Counters:
    """Churn events interleave with eight concurrent in-flight queries
    on the shared event queue."""
    config = ScenarioConfig(
        protocol="gnutella",
        community="mp3",
        concurrency=8,
        query_interarrival_ms=15.0,
        churn_session_ms=A3_SESSIONS_MS[1],
        churn_absence_ms=A3_ABSENCE_MS,
        **A3_IN_FLIGHT,
    )
    scenario = build_scenario(config)
    counts = scenario.run_queries(max_results=100)
    stats = scenario.network.stats
    return {
        "queries": len(counts),
        "answered": _answered(counts),
        "messages": stats.total_messages,
        "bytes": stats.total_bytes,
        "departures": sum(1 for event in scenario.churn.events if not event.online),
    }


def _a3_label(protocol: str, session_ms: float) -> str:
    return f"{protocol}/session {session_ms / 1000:.0f}s"


def _a3_success(c: Cells) -> list[tuple[float, float]]:
    """(light-churn success, heavy-churn success) per organisation."""
    light, heavy = A3_SESSIONS_MS[0], A3_SESSIONS_MS[-1]
    rate = {label: cell["answered"] / cell["queries"] for label, cell in c.items()}
    return [(rate[_a3_label(p, light)], rate[_a3_label(p, heavy)]) for p in A3_NETWORKS]


A3 = Claim(
    "A3",
    "search success under churn (40 peers, 30 queries)",
    "§II",
    "The system keeps answering queries while peers come and go.",
    {
        **{
            _a3_label(protocol, session_ms): partial(_a3_cell, protocol, session_ms)
            for protocol in A3_NETWORKS
            for session_ms in A3_SESSIONS_MS
        },
        "gnutella/in-flight churn": _a3_in_flight,
    },
    {
        "light churn: success >= 0.85": lambda c: all(light >= 0.85 for light, _ in _a3_success(c)),
        "heavy churn: success >= 0.5": lambda c: all(heavy >= 0.5 for _, heavy in _a3_success(c)),
        "light churn success >= heavy churn success - 0.05": lambda c: all(
            light >= heavy - 0.05 for light, heavy in _a3_success(c)
        ),
        "in-flight churn: all 24 queries quiesce": _every("queries", lambda n: n == 24, "flight"),
        "in-flight churn: messages flow": _every("messages", lambda n: n > 0, "flight"),
        "in-flight churn: churn strikes mid-query": _every("departures", lambda n: n > 0, "flight"),
        "in-flight churn: >= 12 queries answered": _every("answered", lambda n: n >= 12, "flight"),
    },
)


# F1–F3 — the figures --------------------------------------------------
F2_WIDTHS = (4, 8, 16, 32, 64)
FIG3_FIELDS = ["name", "description", "keywords", "category", "security", "protocol", "schema"]
FIG3_FIELDS += ["displaystyle", "createstyle", "searchstyle"]


def _f1_community(key: str) -> Counters:
    """All four Fig. 1 artefacts, generated from one community's schema."""
    definition = ALL_COMMUNITIES[key]()
    styles = definition.stylesheets or StylesheetSet()
    schema = parse_schema_text(definition.schema_xsd)
    instance = InstanceSynthesizer(schema, seed=1).synthesize()
    object_xml = serialize(instance, xml_declaration=False)
    create_form = styles.render_create_form(definition.schema_xsd)
    search_form = styles.render_search_form(definition.schema_xsd)
    view_page = styles.render_view(object_xml)
    indexed = styles.extract_indexed_attributes(object_xml)
    default_create_form = StylesheetSet().render_create_form(definition.schema_xsd)
    return {
        "create_form_chars": len(create_form),
        "create_forms": create_form.count("<form"),
        "search_form_chars": len(search_form),
        "search_forms": search_form.count("<form"),
        "view_page_chars": len(view_page),
        "view_tables": view_page.count("<table"),
        "view_headings": view_page.count("<h1>"),
        "indexed_values": sum(len(values) for values in indexed.values()),
        "schema_fields": len(schema.fields()),
        "default_form_inputs": default_create_form.count("<input"),
    }


def _f2_width(width: int) -> Counters:
    """The generation pipeline on a schema ``width`` fields wide."""
    builder = SchemaBuilder("object")
    for index in range(width):
        builder.field(f"field{index:02d}", searchable=(index % 2 == 0))
    schema_xsd = builder.to_xsd()
    styles = StylesheetSet()
    schema = parse_schema_text(schema_xsd)
    instance = InstanceSynthesizer(schema, seed=2).synthesize()
    return {
        "fields": len(schema.fields()),
        "create_chars": len(styles.render_create_form(schema_xsd)),
        "search_chars": len(styles.render_search_form(schema_xsd)),
        "view_chars": len(styles.render_view(serialize(instance, xml_declaration=False))),
    }


def _f3_bootstrap() -> Counters:
    """The verbatim Fig. 3 schema drives the bootstrap: parse, validate a
    community object, generate the root community's own forms."""
    schema = parse_schema_text(COMMUNITY_SCHEMA_XSD)
    descriptor = CommunityDescriptor(
        name="MP3 community",
        description="songs",
        keywords="music mp3",
        category="media",
        protocol="Gnutella",
        schema_uri="up2p:mp3/schema.xsd",
    )
    styles = StylesheetSet()
    create_form = styles.render_create_form(COMMUNITY_SCHEMA_XSD)
    search_form = styles.render_search_form(COMMUNITY_SCHEMA_XSD)
    root = root_community()
    return {
        "fields": [info.path for info in schema.fields()],
        "protocols": schema.field_by_path("protocol").enumeration,
        "community_object_valid": validate(community_schema(), descriptor.to_xml()).is_valid,
        "create_form_fields": [field for field in FIG3_FIELDS if f'name="{field}"' in create_form],
        "search_form_is_up2p_search": "up2p-search" in search_form,
        "root_element": root.root_element_name,
        "root_searchable_fields": len(root.searchable_field_paths()),
        "create_form_chars": len(create_form),
        "search_form_chars": len(search_form),
    }


F1 = Claim(
    "F1",
    "Fig. 1: the shared-object model, every bundled community",
    "Fig. 1, §IV-A",
    "“U-P2P provides default stylesheets that operate on any community schema, but users are "
    "encouraged to create their own stylesheets to customize their community.”",
    {key: partial(_f1_community, key) for key in sorted(ALL_COMMUNITIES)},
    {
        "every create form is a <form>": _every("create_forms", lambda n: n >= 1),
        "every search form is a <form>": _every("search_forms", lambda n: n >= 1),
        "every view page has a table or a heading": lambda c: all(
            cell["view_tables"] + cell["view_headings"] >= 1 for cell in c.values()
        ),
        "the index filter extracts >= 1 attribute": _every("indexed_values", lambda n: n >= 1),
        "the default create form has an input per field": lambda c: all(
            cell["default_form_inputs"] >= cell["schema_fields"] for cell in c.values()
        ),
    },
)

F2 = Claim(
    "F2",
    "Fig. 2: generated artefact sizes vs schema width",
    "Fig. 2",
    "The schema and the stylesheets generate the Create, Search and View functions.",
    {f"{width} fields": partial(_f2_width, width) for width in F2_WIDTHS},
    {
        "the schema has as many fields as asked": lambda c: all(
            c[f"{width} fields"]["fields"] == width for width in F2_WIDTHS
        ),
        "every artefact is non-empty": lambda c: all(
            min(cell["create_chars"], cell["search_chars"], cell["view_chars"]) > 0
            for cell in c.values()
        ),
        "the create form grows with schema width": lambda c: (
            [cell["create_chars"] for cell in c.values()]
            == sorted(cell["create_chars"] for cell in c.values())
        ),
    },
)

F3 = Claim(
    "F3",
    "Fig. 3: the community bootstrap schema",
    "Fig. 3, §IV-A",
    "“All users are members of the global or root community by default.”",
    {"Fig. 3 schema": _f3_bootstrap},
    {
        "the schema has Fig. 3's ten fields, in order": _every(
            "fields", lambda fields: fields == FIG3_FIELDS
        ),
        "the protocol field enumerates the known protocols": lambda c: (
            _only(c)["protocols"] == list(KNOWN_PROTOCOLS)
        ),
        "a community object validates": _every("community_object_valid", bool),
        "the root create form names every field": _every(
            "create_form_fields", lambda fields: fields == FIG3_FIELDS
        ),
        "the root search form is an up2p-search form": _every("search_form_is_up2p_search", bool),
    },
)


CLAIMS: dict[str, Claim] = {
    claim.claim_id: claim
    for claim in (E1, E2, E3, E4, E5, E6, E7, E8, E9, E10, E11, E12, A1, A2, A3, F1, F2, F3)
}


# The record -----------------------------------------------------------
def _cell_text(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return "–"
    if isinstance(value, float):
        return f"{value:.3f}".rstrip("0").rstrip(".")
    if isinstance(value, list) and len(value) > 10:
        return f"{len(value)} values, sum {sum(value)}"
    if isinstance(value, list):
        return ", ".join(_cell_text(item) for item in value)
    return str(value)


def _table(header: list[str], rows: list[list[str]]) -> list[str]:
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    return lines + ["| " + " | ".join(row) + " |" for row in rows]


def render_claim(claim_id: str, entry: Mapping) -> str:
    """One claim's record as a Markdown section: quote, counters, relations."""
    heading = f"## {claim_id} — {entry['title']} ({entry['section']})"
    lines = [heading, "", f"> {entry['quote']}", ""]
    cells = entry["counters"]
    if len(cells) == 1:
        label, counters = next(iter(cells.items()))
        rows = [[name, _cell_text(value)] for name, value in counters.items()]
        lines += _table(["counter", label], rows)
    else:
        names = list(dict.fromkeys(name for counters in cells.values() for name in counters))
        rows = [
            [label, *(_cell_text(counters.get(name, "")) for name in names)]
            for label, counters in cells.items()
        ]
        lines += _table(["cell", *names], rows)
    lines.append("")
    for name, holds in entry["relations"].items():
        lines.append(f"- {'holds' if holds else '**FAILS**'}: {name}")
    return "\n".join(lines) + "\n"


def render_markdown(results: Mapping[str, Mapping]) -> str:
    """``RESULTS.md``: the record in ``results``, one section per claim."""
    header = (
        "# Results: the paper's claims, measured\n\n"
        "Generated from `RESULTS.json` by `python -m repro.report`; do not edit by hand.\n"
        "Every number is a deterministic simulated counter, and `tests/test_results.py`\n"
        "checks that a fresh measurement equals it exactly.\n"
    )
    sections = [render_claim(claim_id, entry) for claim_id, entry in results.items()]
    return "\n".join([header, *sections])


def main() -> None:
    results = {claim_id: claim.measure() for claim_id, claim in CLAIMS.items()}
    text = json.dumps(results, indent=2, ensure_ascii=False) + "\n"
    RESULTS_JSON.write_text(text, encoding="utf-8")
    RESULTS_MD.write_text(render_markdown(results), encoding="utf-8")
    failing = [
        f"{claim_id}: {name}"
        for claim_id, entry in results.items()
        for name, holds in entry["relations"].items()
        if not holds
    ]
    print(f"wrote {RESULTS_JSON.name} and {RESULTS_MD.name}: {len(failing)} failing relation(s)")
    for line in failing:
        print(f"  FAILS {line}")


if __name__ == "__main__":
    main()
