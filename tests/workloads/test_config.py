"""One home per knob: flat at the scenario, grouped at the network.

The four frozen groups of ``repro.network.config`` own every mechanism
knob's default and validation; ``ScenarioConfig`` spells them flat and
``build_network`` translates; protocol constructors take the groups
and nothing flat.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.network.config import (
    CacheConfig,
    MembershipConfig,
    ReliabilityConfig,
    RoutingConfig,
)
from repro.network.gnutella import GnutellaProtocol
from repro.network.rendezvous import RendezvousProtocol
from repro.workloads.scenario import ScenarioConfig, build_network, build_scenario

#: (flat ScenarioConfig field, group keyword, group field, non-default value)
KNOBS = (
    ("result_caching", "cache", "enabled", True),
    ("cache_capacity", "cache", "capacity", 7),
    ("cache_ttl_ms", "cache", "ttl_ms", 400.0),
    ("live_membership", "membership", "live", True),
    ("maintenance_interval_ms", "membership", "maintenance_interval_ms", 500.0),
    ("heartbeat_lease_intervals", "membership", "heartbeat_lease_intervals", 5),
    ("reliable_delivery", "reliability", "reliable_delivery", True),
    ("retry_timeout_ms", "reliability", "retry_timeout_ms", 125.0),
    ("retry_max_attempts", "reliability", "retry_max_attempts", 9),
    ("download_chunk_bytes", "reliability", "download_chunk_bytes", 4_096),
    ("download_stall_timeout_ms", "reliability", "download_stall_timeout_ms", 77.0),
    ("informed_routing", "routing", "informed", True),
    ("routing_filter_bits", "routing", "filter_bits", 2_048),
    ("routing_hash_count", "routing", "hash_count", 2),
    ("routing_depth", "routing", "depth", 5),
)


class TestGroupDataclasses:
    def test_frozen(self):
        for config in (CacheConfig(), MembershipConfig(), ReliabilityConfig(),
                       RoutingConfig()):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(config, dataclasses.fields(config)[0].name, 1)

    @pytest.mark.parametrize("bad", (
        lambda: CacheConfig(capacity=0),
        lambda: CacheConfig(ttl_ms=0.0),
        lambda: MembershipConfig(maintenance_interval_ms=0.0),
        lambda: MembershipConfig(heartbeat_lease_intervals=0),
        lambda: ReliabilityConfig(retry_timeout_ms=0.0),
        lambda: ReliabilityConfig(retry_max_attempts=0),
        lambda: ReliabilityConfig(download_chunk_bytes=0),
        lambda: ReliabilityConfig(download_stall_timeout_ms=0.0),
        lambda: RoutingConfig(filter_bits=0),
        lambda: RoutingConfig(filter_bits=100),   # not a multiple of 8
        lambda: RoutingConfig(hash_count=0),
        lambda: RoutingConfig(depth=0),
        # the flat spelling validates through the same constructors
        lambda: ScenarioConfig(cache_capacity=0),
        lambda: ScenarioConfig(maintenance_interval_ms=-1.0),
        lambda: ScenarioConfig(routing_filter_bits=100),
    ))
    def test_value_validation(self, bad):
        with pytest.raises(ValueError):
            bad()

    def test_the_ignored_rendezvous_lease_field_is_gone(self):
        """The lease's one home is ``RendezvousProtocol(lease_ms=...)``."""
        with pytest.raises(TypeError):
            MembershipConfig(rendezvous_lease_ms=5_000.0)

    def test_rendezvous_lease_rule_is_one_check(self):
        """Scenario and protocol refuse a lease shorter than two
        maintenance intervals through the same function."""
        with pytest.raises(ValueError, match="two maintenance intervals"):
            ScenarioConfig(protocol="rendezvous", live_membership=True,
                           rendezvous_lease_ms=1_000.0, maintenance_interval_ms=600.0)
        network = RendezvousProtocol(
            lease_ms=1_000.0, membership=MembershipConfig(maintenance_interval_ms=600.0))
        with pytest.raises(ValueError, match="two maintenance intervals"):
            network.go_live()


class TestOneSpellingPerLayer:
    @pytest.mark.parametrize("flat, group, field, value", KNOBS)
    def test_flat_knob_arrives_in_its_group_on_the_network(self, flat, group, field, value):
        config = ScenarioConfig(**{flat: value})
        groups = config.network_config()
        assert getattr(groups[group], field) == value
        # bootstrap is structural: the network is built with live off
        # and build_scenario calls go_live() before the workload
        groups["membership"] = dataclasses.replace(groups["membership"], live=False)
        network = build_network(config)
        if group == "reliability":  # held by the two collaborators that read it
            assert network.channel.config == network.downloads.config == groups[group]
        else:
            assert getattr(network, f"{group}_config") == groups[group]

    def test_live_membership_and_lease_reach_the_running_network(self):
        scenario = build_scenario(ScenarioConfig(
            protocol="gnutella", peers=12, members=6, publishers=3, corpus_size=8,
            queries=2, live_membership=True, heartbeat_lease_intervals=4))
        assert scenario.network.live_membership is True
        assert scenario.network.heartbeat_lease_ms == \
            4 * MembershipConfig.maintenance_interval_ms

    @pytest.mark.parametrize("flat, group, field, value", KNOBS)
    def test_protocol_constructors_take_no_flat_knob(self, flat, group, field, value):
        with pytest.raises(TypeError):
            GnutellaProtocol(**{flat: value})

    @pytest.mark.parametrize("group, value", (
        ("cache", CacheConfig(ttl_ms=400.0)),
        ("membership", MembershipConfig(live=True)),
        ("reliability", ReliabilityConfig(reliable_delivery=True)),
        ("routing", RoutingConfig(informed=True)),
    ))
    def test_scenario_takes_no_group(self, group, value):
        """``ScenarioConfig(cache=CacheConfig(ttl_ms=400.0),
        cache_ttl_ms=2000.0)`` used to be silently accepted as 400; with
        one spelling there is nothing for an explicit value to lose to."""
        with pytest.raises(TypeError):
            ScenarioConfig(**{group: value})


class TestReplace:
    @pytest.mark.parametrize("knobs, change", (
        (dict(result_caching=True, cache_ttl_ms=400.0), dict(peers=60)),
        (dict(live_membership=True, maintenance_interval_ms=500.0), dict(peers=60)),
        (dict(reliable_delivery=True, download_chunk_bytes=4_096), dict(peers=60)),
        (dict(informed_routing=True, routing_depth=2), dict(peers=60)),
        # the exact call run_parallel_scenario makes
        (dict(shards=4, result_caching=True), dict(parallel=True)),
    ))
    def test_replace_preserves_every_knob(self, knobs, change):
        replaced = dataclasses.replace(ScenarioConfig(**knobs), **change)
        assert replaced == ScenarioConfig(**knobs, **change)

    def test_build_scenario_applies_overrides_to_a_given_config(self):
        config = ScenarioConfig(peers=30, members=6, publishers=3, corpus_size=8,
                                queries=2, result_caching=True)
        scenario = build_scenario(config, peers=12)
        assert scenario.config.peers == 12
        assert scenario.config.result_caching is True
        assert len(scenario.servents) == 12
