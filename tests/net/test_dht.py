"""Tests for the consistent-hashing DHT."""

import pytest

from repro.net.dht import ConsistentHashRing, DhtError, MasterBlockDht


class TestRing:
    def test_empty_ring_raises(self):
        with pytest.raises(DhtError):
            ConsistentHashRing().successors("key", 1)

    def test_single_node_owns_everything(self):
        ring = ConsistentHashRing()
        ring.add_node(7)
        assert ring.successors("anything", 3) == [7]

    def test_successors_distinct(self):
        ring = ConsistentHashRing()
        for node in range(10):
            ring.add_node(node)
        owners = ring.successors("some-key", 4)
        assert len(owners) == 4
        assert len(set(owners)) == 4

    def test_placement_deterministic(self):
        a, b = ConsistentHashRing(), ConsistentHashRing()
        for node in range(8):
            a.add_node(node)
            b.add_node(node)
        for key in ("k1", "k2", "master-block/3"):
            assert a.successors(key, 3) == b.successors(key, 3)

    def test_add_idempotent(self):
        ring = ConsistentHashRing()
        ring.add_node(1)
        ring.add_node(1)
        assert len(ring) == 1

    def test_remove_idempotent(self):
        ring = ConsistentHashRing()
        ring.add_node(1)
        ring.remove_node(1)
        ring.remove_node(1)
        assert len(ring) == 0

    def test_removal_only_moves_affected_keys(self):
        ring = ConsistentHashRing()
        for node in range(12):
            ring.add_node(node)
        keys = [f"key-{i}" for i in range(60)]
        before = {key: ring.successors(key, 1)[0] for key in keys}
        ring.remove_node(5)
        moved = sum(
            1
            for key in keys
            if ring.successors(key, 1)[0] != before[key]
        )
        affected = sum(1 for key in keys if before[key] == 5)
        assert moved == affected

    def test_load_roughly_balanced(self):
        ring = ConsistentHashRing(virtual_nodes=32)
        for node in range(5):
            ring.add_node(node)
        counts = {node: 0 for node in range(5)}
        for i in range(2000):
            counts[ring.successors(f"key-{i}", 1)[0]] += 1
        assert min(counts.values()) > 2000 / 5 / 4  # no node starves


class TestMasterBlockDht:
    @pytest.fixture
    def dht(self):
        dht = MasterBlockDht(replication=3)
        for node in range(10):
            dht.join(node)
        return dht

    def test_put_get_roundtrip(self, dht):
        assert dht.put("k", b"value") == 3
        assert dht.get("k") == b"value"

    def test_get_missing_key(self, dht):
        assert dht.get("absent") is None

    def test_survives_replica_failures(self, dht):
        dht.put("k", b"v")
        holders = dht.replica_locations("k")
        for node in holders[:-1]:
            dht.set_online(node, False)
        assert dht.get("k") == b"v"

    def test_lost_when_all_replicas_offline(self, dht):
        dht.put("k", b"v")
        for node in dht.replica_locations("k"):
            dht.set_online(node, False)
        assert dht.get("k") is None

    def test_leave_destroys_replicas(self, dht):
        dht.put("k", b"v")
        for node in dht.replica_locations("k"):
            dht.leave(node)
        assert dht.get("k") is None

    def test_put_skips_offline_replicas(self, dht):
        holders = dht._ring.successors("k", 3)
        dht.set_online(holders[0], False)
        assert dht.put("k", b"v") == 2

    def test_put_with_no_online_holder_raises(self, dht):
        for node in dht._ring.successors("k", 3):
            dht.set_online(node, False)
        with pytest.raises(DhtError):
            dht.put("k", b"v")

    def test_overwrite(self, dht):
        dht.put("k", b"v1")
        dht.put("k", b"v2")
        assert dht.get("k") == b"v2"

    def test_set_online_unknown_node(self, dht):
        with pytest.raises(DhtError):
            dht.set_online(999, True)

    def test_validation(self):
        with pytest.raises(ValueError):
            MasterBlockDht(replication=0)
        with pytest.raises(ValueError):
            ConsistentHashRing(virtual_nodes=0)

