"""Local block storage with quota accounting.

Every peer "provides storage for at most `quota` blocks in total to its
partners" (paper section 4.1).  The store tracks blocks by
``(owner, archive, block index)``, enforces the quota, and answers the
fetch/store/release requests of the transport-level protocol.  Blocks
are indexed by owner, so an owner's count, its release and the list of
owners cost that owner's blocks rather than a scan of the whole store.

A stored block is nothing more than its key: the simulator moves no
bytes (transfer times come from the cost model), so the store keeps
which ``(archive, block index)`` keys it holds for each owner, and a
fetch is a membership test.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

BlockKey = Tuple[str, int]  # (archive id, block index) within one owner


class QuotaExceededError(Exception):
    """Raised when a store request does not fit the quota."""


class BlockStore:
    """Quota-bounded block storage of one peer."""

    def __init__(self, quota_blocks: int):
        if quota_blocks < 0:
            raise ValueError("quota cannot be negative")
        self.quota_blocks = quota_blocks
        #: owner id -> the (archive id, block index) keys held for it, in
        #: insertion order (a dict used as an ordered set); an owner's
        #: entry exists only while it has at least one block here.
        self._by_owner: Dict[int, Dict[BlockKey, None]] = {}
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def free_blocks(self) -> int:
        """Remaining capacity in blocks."""
        return self.quota_blocks - self._count

    def can_store(self) -> bool:
        """Whether one more block fits."""
        return self._count < self.quota_blocks

    def store(self, owner_id: int, archive_id: str, block_index: int) -> None:
        """Store a block for a partner; idempotent per key.

        Raises :class:`QuotaExceededError` when the store is full and the
        key is new.
        """
        blocks = self._by_owner.get(owner_id)
        key = (archive_id, block_index)
        if blocks is not None and key in blocks:
            return
        if self._count >= self.quota_blocks:
            raise QuotaExceededError(
                f"store full ({self._count}/{self.quota_blocks} blocks)"
            )
        self._count += 1
        if blocks is None:
            blocks = self._by_owner[owner_id] = {}
        blocks[key] = None

    def holds(self, owner_id: int, archive_id: str, block_index: int) -> bool:
        """Whether the requested block is stored here."""
        blocks = self._by_owner.get(owner_id)
        return blocks is not None and (archive_id, block_index) in blocks

    def release(self, owner_id: int, archive_id: str, block_index: int) -> bool:
        """Delete one block; returns whether it existed."""
        blocks = self._by_owner.get(owner_id)
        key = (archive_id, block_index)
        if blocks is None or key not in blocks:
            return False
        del blocks[key]
        self._count -= 1
        if not blocks:
            del self._by_owner[owner_id]
        return True

    def release_owner(self, owner_id: int) -> int:
        """Delete every block of one owner (it left); returns the count."""
        released = len(self._by_owner.pop(owner_id, ()))
        self._count -= released
        return released

    def blocks_of(self, owner_id: int) -> int:
        """How many blocks of ``owner_id`` this store holds."""
        return len(self._by_owner.get(owner_id, ()))

    def owners(self) -> Iterator[int]:
        """Distinct owners with at least one stored block (a snapshot)."""
        return iter(tuple(self._by_owner))
