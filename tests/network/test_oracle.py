"""Four organisations, one answer.

U-P2P is meant to be layered on top of any peer-to-peer organisation,
so the organisation may change what a search costs and how long it
takes, never what it finds.  With no churn, no faults and a TTL that
spans the overlay, every search must return exactly the
``(provider, resource)`` pairs a brute-force evaluation of its query
over every online repository gives; under a result cap, a subset of
that oracle as large as the cap allows.
"""

from __future__ import annotations

import pytest

from repro.engine.driver import QueryDriver, SearchOp
from repro.storage.plan import compile_query
from repro.workloads.scenario import ScenarioConfig, build_scenario

ORACLE_CELL = dict(peers=60, members=24, publishers=12, corpus_size=90, queries=40, ttl=30,
                   concurrency=8, query_interarrival_ms=20.0)

ORGANISATIONS = [("centralized", False), ("gnutella", False), ("gnutella", True),
                 ("super-peer", False), ("rendezvous", False)]


def answers_and_oracle(protocol, informed, seed, max_results):
    """Each search's result set, paired with the brute-force oracle."""
    scenario = build_scenario(ScenarioConfig(protocol=protocol, informed_routing=informed,
                                             seed=seed, **ORACLE_CELL))
    members = scenario.members()
    ops = [SearchOp(members[index % len(members)].peer_id, query)
           for index, query in enumerate(scenario.workload)]
    driver = QueryDriver(scenario.network)
    step = scenario.config.concurrency
    answers = []
    for start in range(0, len(ops), step):
        outcome = driver.run_mixed(ops[start:start + step], max_results=max_results,
                                   interarrival_ms=scenario.config.query_interarrival_ms)
        answers += [{(result.provider_id, result.resource_id) for result in response.results}
                    for response in outcome.responses]
    online = scenario.network.online_peers()
    oracles = []
    for query in scenario.workload:
        plan = compile_query(query)
        oracles.append({(peer.peer_id, stored.resource_id)
                        for peer in online for stored in peer.repository.search(plan)})
    assert len(answers) == len(oracles) == ORACLE_CELL["queries"]
    return zip(answers, oracles)


@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize(("protocol", "informed"), ORGANISATIONS)
def test_every_organisation_returns_the_oracle(protocol, informed, seed):
    for answer, oracle in answers_and_oracle(protocol, informed, seed, max_results=10_000):
        assert answer == oracle


@pytest.mark.parametrize(("protocol", "informed"), ORGANISATIONS)
def test_a_capped_search_returns_as_much_of_the_oracle_as_fits(protocol, informed):
    for answer, oracle in answers_and_oracle(protocol, informed, 0, max_results=5):
        assert answer <= oracle
        assert len(answer) == min(5, len(oracle))
