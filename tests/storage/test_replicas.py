"""Tests for the replica registry (provenance and replication degree)."""

from repro.storage.replicas import ORIGINAL, REPLICA, ReplicaRegistry


class TestRecording:
    def test_original_and_replica_provenance(self):
        registry = ReplicaRegistry()
        registry.note_original("res-1", "alice", at_ms=0.0)
        registry.note_replica("res-1", "bob", at_ms=125.0)
        assert registry.provenance("res-1", "alice") == ORIGINAL
        assert registry.provenance("res-1", "bob") == REPLICA
        assert registry.provenance("res-1", "carol") is None
        assert registry.provenance("res-2", "alice") is None

    def test_first_entry_wins(self):
        """A publisher re-downloading its own object stays an original;
        a replica later re-announced by publish stays a replica."""
        registry = ReplicaRegistry()
        registry.note_original("res-1", "alice")
        registry.note_replica("res-1", "alice")
        assert registry.provenance("res-1", "alice") == ORIGINAL
        registry.note_replica("res-1", "bob", at_ms=50.0)
        registry.note_original("res-1", "bob")
        assert registry.provenance("res-1", "bob") == REPLICA
        assert registry.entries_for("res-1")[-1].recorded_at_ms == 50.0

    def test_replication_degree_counts_all_copies(self):
        registry = ReplicaRegistry()
        assert registry.holders("res-1") == []
        registry.note_original("res-1", "alice")
        registry.note_replica("res-1", "bob")
        registry.note_replica("res-1", "carol")
        assert registry.holders("res-1") == ["alice", "bob", "carol"]
        assert [registry.provenance("res-1", peer) for peer in ("bob", "carol")] == [REPLICA] * 2
        assert registry.total_replicas() == 2

    def test_holders_orders_originals_first_deterministically(self):
        registry = ReplicaRegistry()
        registry.note_replica("res-1", "zed")
        registry.note_original("res-1", "mallory")
        registry.note_replica("res-1", "bob")
        assert registry.holders("res-1") == ["mallory", "bob", "zed"]

    def test_degree_by_resource(self):
        registry = ReplicaRegistry()
        registry.note_original("res-1", "alice")
        registry.note_replica("res-1", "bob")
        registry.note_original("res-2", "carol")
        assert len(registry) == 2
        assert [len(registry.holders(resource)) for resource in ("res-1", "res-2")] == [2, 1]
