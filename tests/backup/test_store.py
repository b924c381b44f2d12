"""Tests for the quota-bounded block store."""

import hashlib

import pytest

from repro.backup.store import BlockStore, QuotaExceededError
from repro.erasure.codec import ArchiveCodec, CodedBlock
from repro.erasure.reed_solomon import ErasureCodingError
from repro.sim.rng import seeded_generator


def block(index=0, payload=b"data"):
    return CodedBlock(
        index=index,
        payload=payload,
        checksum=hashlib.sha256(payload).hexdigest(),
    )


class TestQuota:
    def test_free_blocks_counts_down(self):
        store = BlockStore(quota_blocks=2)
        assert store.free_blocks == 2
        store.store(1, "a", block(0))
        assert store.free_blocks == 1
        assert store.can_store()
        store.store(1, "a", block(1))
        assert not store.can_store()

    def test_quota_exceeded_raises(self):
        store = BlockStore(quota_blocks=1)
        store.store(1, "a", block(0))
        with pytest.raises(QuotaExceededError):
            store.store(2, "b", block(0))

    def test_overwrite_same_key_does_not_consume(self):
        store = BlockStore(quota_blocks=1)
        store.store(1, "a", block(0, b"v1"))
        store.store(1, "a", block(0, b"v2"))  # same key: allowed
        assert store.fetch(1, "a", 0).payload == b"v2"

    def test_zero_quota(self):
        store = BlockStore(quota_blocks=0)
        with pytest.raises(QuotaExceededError):
            store.store(1, "a", block(0))

    def test_negative_quota_rejected(self):
        with pytest.raises(ValueError):
            BlockStore(quota_blocks=-1)


class TestFetchRelease:
    def test_fetch_present(self):
        store = BlockStore(4)
        store.store(1, "a", block(2, b"xyz"))
        assert store.fetch(1, "a", 2).payload == b"xyz"

    def test_fetch_absent(self):
        assert BlockStore(4).fetch(1, "a", 0) is None

    def test_release_frees_quota(self):
        store = BlockStore(1)
        store.store(1, "a", block(0))
        assert store.release(1, "a", 0)
        assert store.can_store()
        assert not store.release(1, "a", 0)  # already gone

    def test_release_owner_removes_all(self):
        store = BlockStore(10)
        store.store(1, "a", block(0))
        store.store(1, "a", block(1))
        store.store(1, "b", block(0))
        store.store(2, "c", block(0))
        assert store.release_owner(1) == 3
        assert len(store) == 1
        assert store.fetch(2, "c", 0) is not None


class TestViews:
    def test_owners(self):
        store = BlockStore(10)
        store.store(1, "a", block(0))
        store.store(2, "a", block(0))
        assert sorted(store.owners()) == [1, 2]


class TestOwnerIndex:
    """The per-owner index against a brute-force scan of the same keys."""

    OWNERS = range(5)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_operations_match_a_flat_scan(self, seed):
        rng = seeded_generator(seed)
        quota = int(rng.integers(0, 13))
        store = BlockStore(quota)
        held = {}  # (owner, archive, index) -> payload: the reference
        for _ in range(400):
            owner = int(rng.integers(len(self.OWNERS)))
            archive, index = "ab"[rng.integers(2)], int(rng.integers(4))
            key = (owner, archive, index)
            roll = rng.random()
            if roll < 0.5:
                payload = bytes([int(rng.integers(256))])
                if key not in held and len(held) >= quota:
                    with pytest.raises(QuotaExceededError):
                        store.store(owner, archive, block(index, payload))
                else:
                    store.store(owner, archive, block(index, payload))
                    held[key] = payload
            elif roll < 0.9:
                existed = held.pop(key, None) is not None
                assert store.release(owner, archive, index) == existed
            else:
                doomed = [k for k in held if k[0] == owner]
                assert store.release_owner(owner) == len(doomed)
                for k in doomed:
                    del held[k]
            assert len(store) == len(held)
            assert store.free_blocks == quota - len(held)
            assert store.can_store() == (len(held) < quota)
            assert sorted(store.owners()) == sorted({k[0] for k in held})
            for other in self.OWNERS:
                assert store.blocks_of(other) == sum(
                    1 for k in held if k[0] == other
                )
            for (o, a, i), payload in held.items():
                assert store.fetch(o, a, i).payload == payload


class TestByteLevelRestore:
    """Real Reed-Solomon bytes round-trip through partner stores."""

    K, M = 4, 4

    def _place(self, payload):
        codec = ArchiveCodec(data_blocks=self.K, parity_blocks=self.M)
        stores = {holder: BlockStore(quota_blocks=1) for holder in range(codec.n)}
        for holder, coded in enumerate(codec.split(payload)):
            stores[holder].store(0, "archive-0", coded)
        return codec, stores

    def _fetch(self, stores, holders):
        fetched = {}
        for holder in holders:
            coded = stores[holder].fetch(0, "archive-0", holder)
            fetched[coded.index] = coded
        return fetched

    def test_restores_byte_exactly_after_losing_m_holders(self):
        payload = bytes(range(256)) * 7 + b"tail"
        codec, stores = self._place(payload)
        for lost in (0, 2, 5, 7):  # any m holders may go
            del stores[lost]
        survivors = sorted(stores)
        assert len(survivors) == codec.k
        assert codec.reassemble(self._fetch(stores, survivors)) == payload

    def test_fewer_than_k_blocks_fail_to_decode(self):
        codec, stores = self._place(b"payload bytes")
        fetched = self._fetch(stores, range(codec.k - 1))
        with pytest.raises(ErasureCodingError):
            codec.reassemble(fetched)
