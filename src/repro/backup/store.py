"""Local block storage with quota accounting.

Every peer "provides storage for at most `quota` blocks in total to its
partners" (paper section 4.1).  The store tracks blocks by
``(owner, archive, block index)``, enforces the quota, and answers the
fetch/store/release requests of the transport-level protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from ..erasure.codec import CodedBlock

BlockKey = Tuple[int, str, int]  # (owner peer id, archive id, block index)


class QuotaExceededError(Exception):
    """Raised when a store request does not fit the quota."""


@dataclass(frozen=True)
class StoredBlock:
    """A block plus its provenance."""

    owner_id: int
    archive_id: str
    block: CodedBlock


class BlockStore:
    """Quota-bounded block storage of one peer."""

    def __init__(self, quota_blocks: int):
        if quota_blocks < 0:
            raise ValueError("quota cannot be negative")
        self.quota_blocks = quota_blocks
        self._blocks: Dict[BlockKey, StoredBlock] = {}

    def __len__(self) -> int:
        return len(self._blocks)

    @property
    def free_blocks(self) -> int:
        """Remaining capacity in blocks."""
        return self.quota_blocks - len(self._blocks)

    def can_store(self) -> bool:
        """Whether one more block fits."""
        return self.free_blocks > 0

    def store(self, owner_id: int, archive_id: str, block: CodedBlock) -> None:
        """Store a block for a partner; idempotent per key.

        Raises :class:`QuotaExceededError` when the store is full and the
        key is new.
        """
        key = (owner_id, archive_id, block.index)
        if key not in self._blocks and not self.can_store():
            raise QuotaExceededError(
                f"store full ({len(self._blocks)}/{self.quota_blocks} blocks)"
            )
        self._blocks[key] = StoredBlock(owner_id, archive_id, block)

    def fetch(
        self, owner_id: int, archive_id: str, block_index: int
    ) -> Optional[CodedBlock]:
        """Return the requested block, or ``None`` when absent."""
        stored = self._blocks.get((owner_id, archive_id, block_index))
        return stored.block if stored else None

    def release(self, owner_id: int, archive_id: str, block_index: int) -> bool:
        """Delete one block; returns whether it existed."""
        return self._blocks.pop((owner_id, archive_id, block_index), None) is not None

    def release_owner(self, owner_id: int) -> int:
        """Delete every block of one owner (it left); returns the count."""
        keys = [key for key in self._blocks if key[0] == owner_id]
        for key in keys:
            del self._blocks[key]
        return len(keys)

    def owners(self) -> Iterator[int]:
        """Distinct owners with at least one stored block."""
        return iter({key[0] for key in self._blocks})
