"""The erasure code at the paper's exact dimensions (k = 128, m = 128).

Section 2.1's worked example, over the stored block keys: "if k = 128
and m = 128, the system will store the data on 256 different nodes using
twice the initial storage, but supporting until 128 node failures
without losing any data."
"""

import numpy as np
import pytest

from repro.backup.store import BlockStore
from repro.core.policy import POLICY_PRESETS

ARCHIVE = "archive-0"


@pytest.fixture(scope="module")
def paper_code():
    return POLICY_PRESETS.create("paper")


@pytest.fixture
def paper_stores(paper_code):
    """Block ``i`` of owner 0's archive on holder ``i``, one per node."""
    stores = {holder: BlockStore(quota_blocks=1) for holder in range(paper_code.n)}
    for holder, store in stores.items():
        store.store(0, ARCHIVE, holder)
    return stores


def held_blocks(stores, holders):
    """The block indices the given surviving holders still store."""
    return {
        holder for holder in holders
        if holder in stores and stores[holder].holds(0, ARCHIVE, holder)
    }


class TestPaperExample:
    def test_twice_the_storage(self, paper_code):
        assert paper_code.n == 2 * paper_code.k == 256

    def test_survives_128_failures(self, paper_code, paper_stores):
        rng = np.random.default_rng(1)
        failed = set(rng.choice(256, size=128, replace=False).tolist())
        for holder in failed:
            del paper_stores[holder]
        available = held_blocks(paper_stores, range(256))
        assert len(available) == 128
        assert paper_code.can_decode(len(available))
        assert not paper_code.is_lost(len(available))

    def test_129_failures_lose_data(self, paper_code, paper_stores):
        available = held_blocks(paper_stores, range(127))
        assert len(available) == 127
        assert not paper_code.can_decode(len(available))
        assert paper_code.is_lost(len(available))

    def test_parity_only_decode(self, paper_code, paper_stores):
        # Blocks k..n-1 are the parity blocks: any k of them decode.
        available = held_blocks(paper_stores, range(128, 256))
        assert min(available) == paper_code.k
        assert paper_code.can_decode(len(available))

    def test_single_block_repair_at_paper_width(self, paper_code, paper_stores):
        del paper_stores[200]
        available = held_blocks(paper_stores, range(256))
        assert 200 not in available
        assert paper_code.can_decode(len(available))
        assert paper_code.blocks_to_recruit(len(available)) == 1
