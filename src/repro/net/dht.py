"""A small consistent-hashing DHT for master blocks.

Section 2.2.1: "The master block is then uploaded to the network, for
example to all the partners storing the peer's data or to a DHT", and
restoration starts by retrieving it "using a flooding request or a query
to a DHT".  This module provides that substrate: a consistent-hash ring
with configurable replication, tolerant of node joins, leaves and
temporary unavailability.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Optional, Set, Tuple


def _hash(value: str) -> int:
    """Stable 64-bit hash used for both node and key placement."""
    digest = hashlib.sha256(value.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class DhtError(Exception):
    """Raised on impossible DHT operations (e.g. empty ring)."""


class ConsistentHashRing:
    """Consistent-hash ring with virtual nodes."""

    def __init__(self, virtual_nodes: int = 16):
        if virtual_nodes < 1:
            raise ValueError("virtual_nodes must be >= 1")
        self._virtual_nodes = virtual_nodes
        self._ring: List[Tuple[int, int]] = []  # (hash, node_id), sorted
        self._nodes: Set[int] = set()

    def add_node(self, node_id: int) -> None:
        """Insert a node (idempotent)."""
        if node_id in self._nodes:
            return
        self._nodes.add(node_id)
        for replica in range(self._virtual_nodes):
            point = (_hash(f"node:{node_id}:{replica}"), node_id)
            bisect.insort(self._ring, point)

    def remove_node(self, node_id: int) -> None:
        """Remove a node (idempotent)."""
        if node_id not in self._nodes:
            return
        self._nodes.discard(node_id)
        self._ring = [entry for entry in self._ring if entry[1] != node_id]

    def successors(self, key: str, count: int) -> List[int]:
        """The ``count`` distinct nodes responsible for ``key``, in ring order."""
        if not self._nodes:
            raise DhtError("the ring is empty")
        count = min(count, len(self._nodes))
        key_hash = _hash(f"key:{key}")
        start = bisect.bisect_right(self._ring, (key_hash, float("inf")))
        owners: List[int] = []
        seen: Set[int] = set()
        for offset in range(len(self._ring)):
            _, node_id = self._ring[(start + offset) % len(self._ring)]
            if node_id not in seen:
                seen.add(node_id)
                owners.append(node_id)
                if len(owners) == count:
                    break
        return owners

    @property
    def nodes(self) -> Set[int]:
        """Current ring membership."""
        return set(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)


class MasterBlockDht:
    """Replicated key-value store on a consistent-hash ring.

    Values are opaque byte strings (serialized master blocks).  A read
    succeeds while at least one replica holder is online; a write places
    the value on every responsible node that is currently online and
    re-replicates on later writes.
    """

    def __init__(self, replication: int = 3, virtual_nodes: int = 16):
        if replication < 1:
            raise ValueError("replication must be >= 1")
        self._replication = replication
        self._ring = ConsistentHashRing(virtual_nodes)
        self._storage: Dict[int, Dict[str, bytes]] = {}
        self._online: Dict[int, bool] = {}

    def join(self, node_id: int) -> None:
        """Add a node to the ring (online)."""
        self._ring.add_node(node_id)
        self._storage.setdefault(node_id, {})
        self._online[node_id] = True

    def leave(self, node_id: int) -> None:
        """Node departs permanently: its replicas disappear with it."""
        self._ring.remove_node(node_id)
        self._storage.pop(node_id, None)
        self._online.pop(node_id, None)

    def set_online(self, node_id: int, online: bool) -> None:
        """Temporary connect/disconnect; stored replicas survive."""
        if node_id not in self._online:
            raise DhtError(f"unknown node {node_id}")
        self._online[node_id] = online

    def put(self, key: str, value: bytes) -> int:
        """Store a value; returns the number of replicas actually written."""
        owners = self._ring.successors(key, self._replication)
        written = 0
        for node_id in owners:
            if not self._online.get(node_id, False):
                continue
            self._storage[node_id][key] = value
            written += 1
        if written == 0:
            raise DhtError(f"no online replica holder for key {key!r}")
        return written

    def get(self, key: str) -> Optional[bytes]:
        """Fetch a value from the first online replica holder; None on miss."""
        owners = self._ring.successors(key, self._replication)
        for node_id in owners:
            if not self._online.get(node_id, False):
                continue
            value = self._storage.get(node_id, {}).get(key)
            if value is not None:
                return value
        return None

    def replica_locations(self, key: str) -> List[int]:
        """Nodes currently holding a replica of ``key`` (online or not)."""
        return [
            node_id
            for node_id, store in self._storage.items()
            if key in store
        ]

    def __len__(self) -> int:
        return len(self._ring)
