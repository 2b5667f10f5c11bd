"""Workload generation for the experiment harness.

* :mod:`repro.workloads.popularity` — Zipf popularity over objects and
  queries (the skew observed in early file-sharing measurements).
* :mod:`repro.workloads.queries` — query workload generators built from
  a community corpus.
* :mod:`repro.workloads.scenario` — builders that assemble a complete
  experiment scenario: a network of a given protocol, a population of
  servents, communities, corpora and query streams.
"""

from repro.network.config import (
    CacheConfig,
    MembershipConfig,
    ReliabilityConfig,
    RoutingConfig,
)
from repro.workloads.popularity import ZipfDistribution
from repro.workloads.queries import QueryWorkload, build_query_workload
from repro.workloads.scenario import Scenario, ScenarioConfig, build_scenario

__all__ = [
    "CacheConfig",
    "MembershipConfig",
    "ReliabilityConfig",
    "RoutingConfig",
    "ZipfDistribution",
    "QueryWorkload",
    "build_query_workload",
    "Scenario",
    "ScenarioConfig",
    "build_scenario",
]
