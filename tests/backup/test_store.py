"""Tests for the quota-bounded block store."""

import pytest

from repro.backup.store import BlockStore, QuotaExceededError
from repro.core.policy import RepairPolicy
from repro.sim.rng import seeded_generator


class TestQuota:
    def test_free_blocks_counts_down(self):
        store = BlockStore(quota_blocks=2)
        assert store.free_blocks == 2
        store.store(1, "a", 0)
        assert store.free_blocks == 1
        assert store.can_store()
        store.store(1, "a", 1)
        assert not store.can_store()

    def test_quota_exceeded_raises(self):
        store = BlockStore(quota_blocks=1)
        store.store(1, "a", 0)
        with pytest.raises(QuotaExceededError):
            store.store(2, "b", 0)

    def test_overwrite_same_key_does_not_consume(self):
        store = BlockStore(quota_blocks=1)
        store.store(1, "a", 0)
        store.store(1, "a", 0)  # same key: allowed
        assert len(store) == 1
        assert store.holds(1, "a", 0)

    def test_zero_quota(self):
        store = BlockStore(quota_blocks=0)
        with pytest.raises(QuotaExceededError):
            store.store(1, "a", 0)

    def test_negative_quota_rejected(self):
        with pytest.raises(ValueError):
            BlockStore(quota_blocks=-1)


class TestFetchRelease:
    def test_fetch_present(self):
        store = BlockStore(4)
        store.store(1, "a", 2)
        assert store.holds(1, "a", 2)
        assert not store.holds(1, "a", 1)  # another index
        assert not store.holds(1, "b", 2)  # another archive
        assert not store.holds(2, "a", 2)  # another owner

    def test_fetch_absent(self):
        assert not BlockStore(4).holds(1, "a", 0)

    def test_release_frees_quota(self):
        store = BlockStore(1)
        store.store(1, "a", 0)
        assert store.release(1, "a", 0)
        assert store.can_store()
        assert not store.release(1, "a", 0)  # already gone

    def test_release_owner_removes_all(self):
        store = BlockStore(10)
        store.store(1, "a", 0)
        store.store(1, "a", 1)
        store.store(1, "b", 0)
        store.store(2, "c", 0)
        assert store.release_owner(1) == 3
        assert len(store) == 1
        assert store.holds(2, "c", 0)
        assert not store.holds(1, "a", 0)


class TestViews:
    def test_owners(self):
        store = BlockStore(10)
        store.store(1, "a", 0)
        store.store(2, "a", 0)
        assert sorted(store.owners()) == [1, 2]


class TestByteLevelRestore:
    """A restore through partner stores: any ``k`` held blocks decode."""

    K, M = 4, 4

    def _place(self):
        policy = RepairPolicy(self.K, self.K + self.M, self.K)
        stores = {holder: BlockStore(quota_blocks=1) for holder in range(policy.n)}
        for holder in range(policy.n):
            stores[holder].store(0, "archive-0", holder)
        return policy, stores

    def _fetch(self, stores, holders):
        return {
            holder for holder in holders
            if stores[holder].holds(0, "archive-0", holder)
        }

    def test_restores_byte_exactly_after_losing_m_holders(self):
        policy, stores = self._place()
        for lost in (0, 2, 5, 7):  # any m holders may go
            del stores[lost]
        survivors = sorted(stores)
        assert len(survivors) == policy.k
        fetched = self._fetch(stores, survivors)
        assert fetched == set(survivors)  # k distinct block indices
        assert policy.can_decode(len(fetched))
        assert not policy.is_lost(len(fetched))

    def test_fewer_than_k_blocks_fail_to_decode(self):
        policy, stores = self._place()
        stores[policy.k - 1].release(0, "archive-0", policy.k - 1)
        fetched = self._fetch(stores, range(policy.k))
        assert len(fetched) == policy.k - 1
        assert not policy.can_decode(len(fetched))
        assert policy.is_lost(len(fetched))


class TestOwnerIndex:
    """The per-owner index against a brute-force scan of the same keys."""

    OWNERS = range(5)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_operations_match_a_flat_scan(self, seed):
        rng = seeded_generator(seed)
        quota = int(rng.integers(0, 13))
        store = BlockStore(quota)
        held = set()  # (owner, archive, index): the reference
        for _ in range(400):
            owner = int(rng.integers(len(self.OWNERS)))
            archive, index = "ab"[rng.integers(2)], int(rng.integers(4))
            key = (owner, archive, index)
            roll = rng.random()
            if roll < 0.5:
                if key not in held and len(held) >= quota:
                    with pytest.raises(QuotaExceededError):
                        store.store(owner, archive, index)
                else:
                    store.store(owner, archive, index)
                    held.add(key)
            elif roll < 0.9:
                existed = key in held
                held.discard(key)
                assert store.release(owner, archive, index) == existed
            else:
                doomed = {k for k in held if k[0] == owner}
                assert store.release_owner(owner) == len(doomed)
                held -= doomed
            assert len(store) == len(held)
            assert store.free_blocks == quota - len(held)
            assert store.can_store() == (len(held) < quota)
            assert sorted(store.owners()) == sorted({k[0] for k in held})
            for other in self.OWNERS:
                assert store.blocks_of(other) == sum(
                    1 for k in held if k[0] == other
                )
            for o in self.OWNERS:
                for a in "ab":
                    for i in range(4):
                        assert store.holds(o, a, i) == ((o, a, i) in held)
