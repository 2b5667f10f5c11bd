"""Failure-injection integration tests: churn, malformed input, missing peers."""

import pytest

from repro.communities.design_patterns import design_pattern_community, gof_pattern_records
from repro.communities.mp3 import mp3_community
from repro.core.application import Application
from repro.core.errors import InvalidObjectError
from repro.core.servent import Servent
from repro.network.config import ReliabilityConfig
from repro.network.errors import PeerOfflineError, UnknownPeerError
from repro.network.gnutella import GnutellaProtocol
from repro.network.membership import PopulationModel
from repro.storage.errors import ObjectNotFoundError
from repro.xmlkit.errors import XMLParseError


class TestMalformedInput:
    def test_malformed_xml_object_rejected(self, mp3_application):
        with pytest.raises(XMLParseError):
            mp3_application.publish_xml("<mp3><title>unterminated")

    def test_schema_violating_object_rejected(self, mp3_application):
        with pytest.raises(InvalidObjectError):
            mp3_application.publish_xml(
                "<mp3><title>ok</title><artist>ok</artist><album>ok</album>"
                "<genre>not-a-genre</genre><bitrate>192</bitrate></mp3>"
            )

    def test_object_for_wrong_community_rejected(self, mp3_application):
        with pytest.raises(InvalidObjectError):
            mp3_application.publish_xml("<pattern><name>Observer</name></pattern>")

    def test_rejected_objects_leave_no_trace(self, mp3_application):
        before = mp3_application.servent.statistics()
        with pytest.raises(InvalidObjectError):
            mp3_application.publish_xml("<pattern><name>Observer</name></pattern>")
        assert mp3_application.servent.statistics() == before


class TestOfflineAndMissingPeers:
    def build(self):
        network = GnutellaProtocol(seed=21, degree=3, default_ttl=8)
        alice = Servent("alice", network)
        bob = Servent("bob", network)
        helpers = [Servent(f"relay-{index}", network) for index in range(8)]
        definition = design_pattern_community()
        alice_app = definition.application_on(alice)
        found = bob.search_communities("patterns").results[0]
        bob_app = Application(bob, bob.join_community(found))
        network.build_overlay()
        for record in gof_pattern_records()[:5]:
            alice_app.publish(record)
        return network, alice, bob, bob_app, helpers

    def test_download_from_offline_provider_fails_cleanly(self):
        network, alice, bob, bob_app, _ = self.build()
        hit = bob_app.search("singleton", max_results=10).results[0]
        network.set_online(hit.provider_id, False)
        with pytest.raises(PeerOfflineError):
            bob_app.download(hit)

    def test_provider_disappearing_removes_results(self):
        network, alice, bob, bob_app, _ = self.build()
        assert bob_app.search("singleton").result_count >= 1
        network.set_online("alice", False)
        assert bob_app.search("singleton").result_count == 0

    def test_download_of_unknown_resource_fails(self):
        network, alice, bob, bob_app, _ = self.build()
        with pytest.raises(ObjectNotFoundError):
            network.retrieve("bob", "alice", "not-a-resource-id")

    def test_unknown_provider_rejected(self):
        network, alice, bob, bob_app, _ = self.build()
        with pytest.raises(UnknownPeerError):
            network.retrieve("bob", "ghost", "whatever")

    def test_results_return_when_provider_comes_back(self):
        network, alice, bob, bob_app, _ = self.build()
        network.set_online("alice", False)
        assert bob_app.search("singleton").result_count == 0
        network.set_online("alice", True)
        assert bob_app.search("singleton").result_count >= 1


class TestChurnDuringWorkload:
    def test_searches_survive_heavy_churn(self):
        network = GnutellaProtocol(seed=33, degree=4, default_ttl=8)
        servents = [Servent(f"peer-{index:02d}", network) for index in range(30)]
        definition = mp3_community()
        founder = definition.application_on(servents[0])
        applications = [founder]
        for servent in servents[1:10]:
            found = [r for r in servent.search_communities("music").results
                     if r.title == definition.name]
            applications.append(Application(servent, servent.join_community(found[0])))
        network.build_overlay()
        corpus = definition.sample_corpus(30, seed=11)
        for index, record in enumerate(corpus):
            applications[index % len(applications)].publish(record)

        churn = PopulationModel(network, mean_session_ms=2_000, mean_absence_ms=2_000, seed=3)
        churn.start([f"peer-{index:02d}" for index in range(10, 30)])

        completed = 0
        found_any = 0
        for round_number in range(10):
            network.simulator.run(until_ms=network.simulator.now + 1_000)
            searcher = applications[round_number % len(applications)]
            if not searcher.servent.peer.online:
                continue
            response = searcher.search("the", max_results=50)
            completed += 1
            found_any += 1 if response.result_count > 0 else 0
        assert completed >= 5
        # The workload keeps functioning; results may shrink but never error.

    def test_replicas_keep_object_available_when_publisher_leaves(self):
        network = GnutellaProtocol(seed=44, degree=4, default_ttl=8)
        alice = Servent("alice", network)
        mirrors = [Servent(f"mirror-{index}", network) for index in range(4)]
        watcher = Servent("watcher", network)
        definition = mp3_community()
        alice_app = definition.application_on(alice)
        record = definition.sample_corpus(1, seed=9)[0]
        published = alice_app.publish(record)
        joined_apps = []
        for servent in mirrors + [watcher]:
            found = [r for r in servent.search_communities("music").results
                     if r.title == definition.name]
            joined_apps.append(Application(servent, servent.join_community(found[0])))
        network.build_overlay()
        # Mirrors download (and therefore replicate) the object.
        for app in joined_apps[:-1]:
            hits = app.search({"title": record["title"]}, max_results=20)
            app.download(hits.results[0])
        # The original publisher goes away; the object remains reachable.
        network.set_online("alice", False)
        watcher_app = joined_apps[-1]
        response = watcher_app.search({"title": record["title"]}, max_results=50)
        assert any(result.resource_id == published.resource_id for result in response.results)


class TestProviderCrashMidDownload:
    """A provider crash-stopping between chunks of an in-flight chunked
    download must degrade to a slower transfer from the next-ranked
    replica — never a lost download — and the recovery must show up in
    the fault/recovery counters."""

    def build(self, **knobs):
        network = GnutellaProtocol(seed=21, degree=3, default_ttl=8,
                                   reliability=ReliabilityConfig(
                                       reliable_delivery=True,
                                       download_chunk_bytes=2_048,
                                       download_stall_timeout_ms=400.0), **knobs)
        alice = Servent("alice", network)
        mirror = Servent("mirror", network)
        requester = Servent("requester", network)
        relays = [Servent(f"relay-{index}", network) for index in range(5)]
        definition = design_pattern_community()
        alice_app = definition.application_on(alice)
        apps = []
        for servent in (mirror, requester):
            found = servent.search_communities("patterns").results[0]
            apps.append(Application(servent, servent.join_community(found)))
        network.build_overlay()
        published = alice_app.publish(gof_pattern_records()[0])
        return network, published.resource_id, apps

    def test_failover_completes_the_download(self):
        network, resource_id, (mirror_app, requester_app) = self.build()
        # The mirror replicates the object first, so a second holder
        # exists when the original provider crashes.
        baseline = network.retrieve("mirror", "alice", resource_id)
        assert network.replication_degree(resource_id) == 2

        # Crash alice in the middle of the requester's transfer window.
        network.simulator.post(baseline.latency_ms * 0.5,
                               network._fault_crash, "alice")
        recovered = network.retrieve("requester", "alice", resource_id)

        assert recovered.stored is not None
        assert recovered.provider_id == "mirror"
        assert recovered.attachments_transferred == baseline.attachments_transferred
        assert network.stats.failovers == 1
        # The wasted partial stream is honest wire cost: the recovered
        # transfer paid at least as many bytes as the clean one.
        assert recovered.transfer_bytes >= baseline.transfer_bytes
        assert recovered.latency_ms > baseline.latency_ms
        # The requester is now a holder too: the failover replicated.
        assert network.replication_degree(resource_id) == 3
        response = requester_app.search("abstract", max_results=10)
        assert response.result_count >= 1

    def test_crash_without_replica_fails_with_timeout_recorded(self):
        network, resource_id, _ = self.build()
        network.simulator.post(5.0, network._fault_crash, "alice")
        from repro.network.errors import TransferError
        with pytest.raises(TransferError):
            network.retrieve("requester", "alice", resource_id)
        assert network.stats.timeouts >= 1
        assert network.stats.failovers == 0
