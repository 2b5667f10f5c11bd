"""Tests for deterministic fault injection and the reliable-delivery
envelope: plan validation, decision determinism, the content-keyed
draw (lane quality, exact rate edges, the one-instant occurrence
table), retry/backoff recovery through partitions and loss, and
crash-stop scheduling, under churn too.  (A zero-rate plan leaving no
trace is a generated cell of ``test_contract.py``.)"""

import collections
import hashlib
import itertools
import math
import statistics
import struct

import pytest

from repro.network import faults as faults_module
from repro.network.centralized import INDEX_SERVER_ID, CentralizedProtocol
from repro.network.config import ReliabilityConfig
from repro.network.faults import (FaultModel, FaultPlan, PartitionWindow,
                                  build_fault_model)
from repro.network.gnutella import GnutellaProtocol
from repro.network.membership import PopulationModel
from repro.network.rendezvous import RendezvousProtocol
from repro.network.superpeer import SuperPeerProtocol
from repro.storage.plan import compile_query
from repro.storage.query import Query
from repro.workloads.scenario import ScenarioConfig, build_scenario
from repro.xmlkit.parser import parse

PROTOCOL_NAMES = ("centralized", "gnutella", "super-peer", "rendezvous")


def publish_pattern(network, peer_id, name, intent="notify dependents"):
    peer = network.peer(peer_id)
    document = parse(f"<pattern><name>{name}</name><intent>{intent}</intent></pattern>").root
    metadata = {"name": [name], "intent": [intent]}
    result = peer.repository.publish("patterns", document, metadata, title=name)
    network.publish(peer_id, "patterns", result.resource_id, metadata, title=name)
    return result.resource_id


def settle(network, ms):
    network.simulator.run(until_ms=network.simulator.now + ms)


class TestFaultPlanValidation:
    def test_rates_must_be_probabilities(self):
        for field in ("loss_rate", "duplicate_rate", "extra_delay_rate"):
            with pytest.raises(ValueError):
                FaultPlan(**{field: 1.5})
            with pytest.raises(ValueError):
                FaultPlan(**{field: -0.1})

    def test_delays_must_be_non_negative(self):
        with pytest.raises(ValueError):
            FaultPlan(extra_delay_ms=-1.0)
        with pytest.raises(ValueError):
            FaultPlan(duplicate_spread_ms=-1.0)

    def test_link_loss_rate_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(link_loss=(("a", "b", 2.0),))

    def test_partition_windows_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(partitions=(PartitionWindow(100.0, 50.0, ("a",), ("b",)),))
        with pytest.raises(ValueError):
            FaultPlan(partitions=(PartitionWindow(0.0, 50.0, (), ("b",)),))

    def test_crash_times_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(crashes=(("peer-1", -5.0),))

    def test_build_fault_model_type_checked(self):
        assert build_fault_model(None) is None
        assert isinstance(build_fault_model(FaultPlan()), FaultModel)
        with pytest.raises(TypeError):
            build_fault_model({"loss_rate": 0.5})


class TestFaultModelDecisions:
    def decisions(self, plan, pairs, now_ms=0.0):
        model = FaultModel(plan)
        return [
            (d.drop, d.partitioned, d.duplicate, d.extra_delay_ms, d.duplicate_lag_ms)
            for d in (model.decide(a, b, now_ms) for a, b in pairs)
        ]

    def test_same_plan_same_decisions(self):
        plan = FaultPlan(seed=3, loss_rate=0.3, duplicate_rate=0.2,
                         extra_delay_rate=0.2, extra_delay_ms=15.0)
        pairs = [(f"p{i}", f"p{i + 1}") for i in range(200)]
        assert self.decisions(plan, pairs) == self.decisions(plan, pairs)

    def test_seed_changes_decisions(self):
        pairs = [(f"p{i}", f"p{i + 1}") for i in range(200)]
        first = self.decisions(FaultPlan(seed=1, loss_rate=0.3), pairs)
        second = self.decisions(FaultPlan(seed=2, loss_rate=0.3), pairs)
        assert first != second

    def test_changing_one_rate_does_not_shift_another_fault_kind(self):
        """The four rolls are unconditional: turning duplication on must
        not change *which* messages the same seed's loss pattern drops."""
        pairs = [(f"p{i}", f"p{i + 1}") for i in range(300)]
        loss_only = self.decisions(FaultPlan(seed=9, loss_rate=0.2), pairs)
        loss_and_dup = self.decisions(
            FaultPlan(seed=9, loss_rate=0.2, duplicate_rate=0.5), pairs)
        assert [d[0] for d in loss_only] == [d[0] for d in loss_and_dup]
        assert any(d[0] for d in loss_only)

    def test_self_delivery_never_faulted(self):
        model = FaultModel(FaultPlan(seed=1, loss_rate=1.0))
        decision = model.decide("p1", "p1", 0.0)
        assert not decision.drop and not decision.duplicate

    def test_link_loss_overrides_default_rate_symmetrically(self):
        plan = FaultPlan(seed=1, loss_rate=0.0, link_loss=(("a", "b", 1.0),))
        model = FaultModel(plan)
        assert model.decide("a", "b", 0.0).drop
        assert model.decide("b", "a", 0.0).drop
        assert not model.decide("a", "c", 0.0).drop

    def test_partition_window_cuts_then_heals(self):
        plan = FaultPlan(partitions=(
            PartitionWindow(100.0, 200.0, ("a", "b"), ("c",)),))
        model = FaultModel(plan)
        assert not model.decide("a", "c", 50.0).drop
        cut = model.decide("a", "c", 150.0)
        assert cut.drop and cut.partitioned
        assert model.decide("c", "b", 150.0).drop
        assert not model.decide("a", "b", 150.0).drop  # same side
        assert not model.decide("a", "c", 250.0).drop  # healed

    def test_partition_times_are_relative_to_epoch(self):
        plan = FaultPlan(partitions=(
            PartitionWindow(0.0, 100.0, ("a",), ("b",)),))
        model = FaultModel(plan, epoch_ms=5_000.0)
        assert model.decide("a", "b", 5_050.0).drop
        assert not model.decide("a", "b", 5_150.0).drop


def reference_rolls(identity):
    """The specified draw, spelled independently of the module: the four
    little-endian 32-bit lanes of the identity's 16-byte BLAKE2b digest,
    each scaled by 2**-32."""
    digest = hashlib.blake2b(identity.encode(), digest_size=16).digest()
    return [lane * 2.0 ** -32 for lane in struct.unpack("<4I", digest)]


class UnboundedReference:
    """The draw with an occurrence table that is never pruned: what a
    :class:`FaultModel` must reproduce decision for decision."""

    def __init__(self, plan):
        self.plan = plan
        self.seen = {}

    def decide(self, sender, recipient, now_ms):
        plan = self.plan
        identity = f"{plan.seed}:{sender}:{recipient}:{now_ms:.6f}"
        occurrence = self.seen.get(identity, 0)
        self.seen[identity] = occurrence + 1
        if occurrence:
            identity = f"{identity}#{occurrence}"
        loss, duplicate, delay, lag = reference_rolls(identity)
        if loss < plan.loss_rate:
            return (True, False, 0.0, 0.0)
        duplicated = duplicate < plan.duplicate_rate
        return (False, duplicated,
                plan.extra_delay_ms if delay < plan.extra_delay_rate else 0.0,
                lag * plan.duplicate_spread_ms if duplicated else 0.0)


def fate(decision):
    return (decision.drop, decision.duplicate, decision.extra_delay_ms,
            decision.duplicate_lag_ms)


def sends_with_repeats():
    """A monotone send sequence whose instants repeat: every step sends
    twice on two of its links, and every third step advances the clock
    by 1e-7 ms, a distinct float that formats to the same ``.6f``."""
    links = [(f"p{index}", f"p{(index * 3 + 1) % 8}") for index in range(8)]
    now_ms = 100.0
    sends = []
    for step in range(300):
        now_ms += 1e-7 if step % 3 == 0 else 0.731
        # squares mod 8 are 0, 1, 4, 1, 0: links step and step + 1 fire twice
        sends.extend((*links[(step + k * k) % len(links)], now_ms) for k in range(5))
    return sends


class TestContentKeyedRolls:
    """The draw behind every probabilistic fault: BLAKE2b lanes over the
    content key, with an occurrence table that holds one instant."""

    PLAN = FaultPlan(seed=5, loss_rate=0.3, duplicate_rate=0.3,
                     extra_delay_rate=0.3, extra_delay_ms=12.0)

    def test_lanes_are_uniform_and_uncorrelated(self):
        keys = [f"11:peer-{index % 400:03d}:peer-{(index * 7 + 3) % 397:03d}:"
                f"{1_000.0 + index * 0.37:.6f}" for index in range(40_000)]
        lanes = list(zip(*(reference_rolls(key) for key in keys), strict=True))
        expected = len(keys) / 10
        for lane in lanes:
            assert abs(statistics.fmean(lane) - 0.5) < 0.01
            bins = collections.Counter(int(roll * 10) for roll in lane)
            chi_square = sum((bins[index] - expected) ** 2 / expected for index in range(10))
            assert chi_square < 27.88  # 9 degrees of freedom, p = 0.001
        for first, second in itertools.combinations(lanes, 2):
            assert abs(statistics.correlation(first, second)) < 0.02

    def test_drop_share_matches_the_loss_rate(self):
        model = FaultModel(FaultPlan(seed=11, loss_rate=0.05))
        sends = 40_000
        drops = sum(model.decide(f"peer-{index % 400}", f"peer-{index % 397 + 400}",
                                 float(index)).drop
                    for index in range(sends))
        sigma = math.sqrt(sends * 0.05 * 0.95)
        assert abs(drops - sends * 0.05) <= 4 * sigma

    def test_rate_zero_never_fires_and_rate_one_always_does(self, monkeypatch):
        # An unrelated link override keeps the draw path on at rate 0.0.
        never = FaultModel(FaultPlan(seed=3, link_loss=(("x", "y", 0.5),)))
        always = FaultModel(FaultPlan(seed=3, loss_rate=1.0))
        pairs = [(f"p{index}", f"q{index}") for index in range(2_000)]
        assert all(fate(never.decide(a, b, 7.0)) == (False, False, 0.0, 0.0)
                   for a, b in pairs)
        assert all(always.decide(a, b, 7.0).drop for a, b in pairs)
        # The extreme lanes: 0 does not fire rate 0.0, 2**32 - 1 fires rate 1.0.
        monkeypatch.setattr(faults_module, "_LANES", lambda digest: (0, 0, 0, 0))
        assert fate(never.decide("a", "b", 8.0)) == (False, False, 0.0, 0.0)
        top = 2 ** 32 - 1
        monkeypatch.setattr(faults_module, "_LANES", lambda digest: (top, top, top, top))
        assert always.decide("a", "b", 8.0).drop
        every_kind = FaultModel(FaultPlan(seed=3, duplicate_rate=1.0, extra_delay_rate=1.0,
                                          extra_delay_ms=5.0, duplicate_spread_ms=40.0))
        decision = every_kind.decide("a", "b", 8.0)
        assert decision.duplicate and decision.extra_delay_ms == 5.0
        assert 39.999 < decision.duplicate_lag_ms < 40.0

    def test_bounded_table_reproduces_an_unbounded_one(self):
        sends = sends_with_repeats()
        instants = collections.defaultdict(set)
        for _, _, now_ms in sends:
            instants[f"{now_ms:.6f}"].add(now_ms)
        assert any(len(floats) > 1 for floats in instants.values())
        repeats = collections.Counter((a, b, f"{now_ms:.6f}") for a, b, now_ms in sends)
        assert max(repeats.values()) >= 4
        model, reference = FaultModel(self.PLAN), UnboundedReference(self.PLAN)
        decisions = [fate(model.decide(*send)) for send in sends]
        assert decisions == [reference.decide(*send) for send in sends]
        # drops, duplicates and delays all occur
        assert all(any(decision[kind] for decision in decisions) for kind in range(3))

    def test_table_holds_one_instant(self):
        model = FaultModel(self.PLAN)
        at_instant = collections.Counter()
        for sender, recipient, now_ms in sends_with_repeats():
            model.decide(sender, recipient, now_ms)
            at_instant[f"{now_ms:.6f}"] += 1
            assert len(model._seen) <= at_instant[f"{now_ms:.6f}"]

    @pytest.mark.parametrize("shards", [1, 4])
    def test_table_holds_one_instant_in_a_faulty_run(self, monkeypatch, shards):
        """In a live, churned, reliable super-peer run, serial or sharded,
        the clock handed to ``decide`` never goes back and the table
        never outgrows the sends of the current instant."""
        at_instant = collections.Counter()
        clock = [-1.0]
        decide = FaultModel.decide

        def checked_decide(model, sender, recipient, now_ms):
            assert now_ms >= clock[0]
            clock[0] = now_ms
            decision = decide(model, sender, recipient, now_ms)
            if sender != recipient:
                at_instant[f"{now_ms:.6f}"] += 1
                assert len(model._seen) <= at_instant[f"{now_ms:.6f}"]
            return decision

        monkeypatch.setattr(FaultModel, "decide", checked_decide)
        scenario = build_scenario(ScenarioConfig(
            protocol="super-peer", peers=30, members=12, publishers=6, corpus_size=40,
            queries=16, seed=23, concurrency=8, query_interarrival_ms=20.0,
            live_membership=True, churn_session_ms=900.0, churn_absence_ms=500.0,
            reliable_delivery=True, retry_timeout_ms=120.0, shards=shards,
            faults=FaultPlan(seed=17, loss_rate=0.08, duplicate_rate=0.04)))
        scenario.run_queries(max_results=100)
        assert scenario.network.stats.dropped > 0
        # some instants carry several sends
        assert sum(at_instant.values()) > len(at_instant) > 20


class TestReliableEnvelope:
    def build_live_centralized(self, **kwargs):
        network = CentralizedProtocol(seed=7, **kwargs)
        for index in range(6):
            network.create_peer(f"peer-{index:03d}")
        network.go_live()
        return network

    def test_register_retries_through_a_partition(self):
        """A REGISTER sent while the sender is partitioned from the
        index server is dropped, then retransmitted with backoff until
        the partition heals — the registration lands instead of being
        silently lost."""
        partition = PartitionWindow(0.0, 150.0, ("peer-003",), (INDEX_SERVER_ID,))
        network = self.build_live_centralized(
            reliability=ReliabilityConfig(reliable_delivery=True, retry_timeout_ms=100.0),
            faults=FaultPlan(partitions=(partition,)))
        publish_pattern(network, "peer-003", "Observer")
        settle(network, 1_000)
        assert network.stats.partition_dropped >= 1
        assert network.stats.retries >= 1
        assert network.stats.timeouts == 0
        response = network.search("peer-001", Query.keyword("patterns", "observer"))
        assert response.result_count == 1

    def test_register_lost_without_reliable_delivery(self):
        """The same partition without the envelope loses the REGISTER
        for good: the control case the retry machinery exists for."""
        partition = PartitionWindow(0.0, 150.0, ("peer-003",), (INDEX_SERVER_ID,))
        network = self.build_live_centralized(
            reliability=ReliabilityConfig(reliable_delivery=False),
            faults=FaultPlan(partitions=(partition,)))
        publish_pattern(network, "peer-003", "Observer")
        settle(network, 1_000)
        assert network.stats.partition_dropped >= 1
        assert network.stats.retries == 0
        response = network.search("peer-001", Query.keyword("patterns", "observer"))
        assert response.result_count == 0

    def test_retries_give_up_after_max_attempts(self):
        """A permanently dead link exhausts the attempt budget and is
        recorded as a timeout instead of retrying forever."""
        network = self.build_live_centralized(
            reliability=ReliabilityConfig(reliable_delivery=True, retry_timeout_ms=50.0,
                                          retry_max_attempts=3),
            faults=FaultPlan(link_loss=(("peer-003", INDEX_SERVER_ID, 1.0),)))
        publish_pattern(network, "peer-003", "Observer")
        settle(network, 5_000)
        assert network.stats.retries == 2  # attempts 2 and 3
        assert network.stats.timeouts == 1

    def test_duplicated_registrations_are_harmless(self):
        network = self.build_live_centralized(
            reliability=ReliabilityConfig(reliable_delivery=True),
            faults=FaultPlan(seed=2, duplicate_rate=1.0))
        publish_pattern(network, "peer-003", "Observer")
        settle(network, 1_000)
        assert network.stats.duplicated >= 1
        response = network.search("peer-001", Query.keyword("patterns", "observer"))
        assert response.result_count == 1

    def test_crash_plan_takes_peer_offline_at_its_time(self):
        network = self.build_live_centralized(
            faults=FaultPlan(crashes=(("peer-004", 500.0),)))
        assert network.peer("peer-004").online
        settle(network, 400)
        assert network.peer("peer-004").online
        settle(network, 200)
        assert not network.peer("peer-004").online
        settle(network, 1_000)
        assert not network.peer("peer-004").online  # crash-stop: never returns

    def test_crash_stop_is_permanent_under_session_churn(self):
        """Churn never revives a crashed peer: not one it queued a
        departure for (the return that departure schedules is void), and
        not one the crash struck mid-absence (its pending return is)."""
        crashed = ("peer-004", "peer-005", "peer-007")
        network = GnutellaProtocol(
            seed=8, degree=4, faults=FaultPlan(crashes=tuple((peer_id, 500.0)
                                                             for peer_id in crashed)))
        for index in range(30):
            network.create_peer(f"peer-{index:03d}")
        network.build_overlay()
        churn = PopulationModel(network, mean_session_ms=1_000.0,
                                mean_absence_ms=1_000.0, seed=3)
        churn.start()
        settle(network, 499.0)
        assert not network.peer("peer-005").online  # the crash strikes mid-absence
        assert network.peer("peer-004").online and network.peer("peer-007").online
        settle(network, 20_000.0)
        assert not [event for event in churn.events
                    if event.peer_id in crashed and event.time_ms > 500.0]
        assert not any(network.peer(peer_id).online for peer_id in crashed)
        assert network.gone == set(crashed)
        # The churn went on around them.
        assert len(churn.events) > 100
        network.set_online("peer-004", True)
        assert not network.peer("peer-004").online

    def test_extra_delay_slows_but_never_loses(self):
        slow = self.build_live_centralized(
            faults=FaultPlan(seed=3, extra_delay_rate=1.0, extra_delay_ms=40.0))
        publish_pattern(slow, "peer-003", "Observer")
        settle(slow, 2_000)
        response = slow.search("peer-001", Query.keyword("patterns", "observer"))
        assert response.result_count == 1
        fast = self.build_live_centralized(faults=None)
        publish_pattern(fast, "peer-003", "Observer")
        settle(fast, 2_000)
        baseline = fast.search("peer-001", Query.keyword("patterns", "observer"))
        assert response.latency_ms > baseline.latency_ms


class TestScenarioFaultKnobs:
    def test_scenario_validates_fault_knobs(self):
        with pytest.raises(TypeError):
            ScenarioConfig(faults={"loss_rate": 0.5})
        with pytest.raises(ValueError):
            ScenarioConfig(retry_timeout_ms=0.0)
        with pytest.raises(ValueError):
            ScenarioConfig(retry_max_attempts=0)
        with pytest.raises(ValueError):
            ScenarioConfig(download_chunk_bytes=0)
        with pytest.raises(ValueError):
            ScenarioConfig(download_stall_timeout_ms=-1.0)

    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    def test_bootstrap_is_fault_free(self, protocol):
        """The plan arms at the start of the workload phase: even a
        total-loss plan cannot break community building or publishing."""
        scenario = build_scenario(ScenarioConfig(
            protocol=protocol, peers=10, members=5, publishers=2,
            corpus_size=10, queries=4, seed=3,
            faults=FaultPlan(seed=1, loss_rate=1.0)))
        assert scenario.network.faults is not None
        assert scenario.network.faults.epoch_ms == scenario.network.simulator.now
        # Every message of the query phase is then lost: exactly the
        # answers each origin found in its own index survive.
        members = scenario.members()
        local = [len(members[index % len(members)].repository.search(compile_query(query)))
                 for index, query in enumerate(scenario.workload)]
        assert sum(local) > 0
        counts = scenario.run_queries()
        assert counts == local
        assert scenario.network.stats.dropped > 0
