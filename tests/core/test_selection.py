"""Tests for partner-selection strategies."""

import math

import numpy as np
import pytest

from repro.core.selection import (
    AgeSelection,
    AvailabilitySelection,
    CandidatePool,
    OracleSelection,
    RandomSelection,
    SelectionStrategy,
    available_strategies,
    strategy_by_name,
)


@pytest.fixture
def rng():
    return np.random.default_rng(17)


def make_pool():
    return CandidatePool(
        ids=np.array([1, 2, 3, 4], dtype=np.int64),
        ages=np.array([10, 500, 100, 2000], dtype=np.int64),
        availability=np.array([0.2, 0.9, 0.5, math.nan]),
        remaining=np.array([5.0, 100.0, 5000.0, math.inf]),
    )


def pool_of(ids, ages, availability=None, remaining=None):
    return CandidatePool(
        np.asarray(ids, dtype=np.int64),
        np.asarray(ages, dtype=np.int64),
        None if availability is None else np.asarray(availability, dtype=float),
        None if remaining is None else np.asarray(remaining, dtype=float),
    )


def ranked(strategy, pool, rng):
    """Pool ids, most preferred first."""
    return pool.ids[strategy.order(pool, rng)].tolist()


_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY_POOL = CandidatePool(_EMPTY, _EMPTY, np.empty(0), np.empty(0))


class TestCandidate:
    def test_optional_fields_default_none(self):
        pool = CandidatePool(ids=_EMPTY, ages=_EMPTY)
        assert pool.availability is None
        assert pool.remaining is None


class TestAgeSelection:
    def test_orders_by_age_descending(self, rng):
        assert ranked(AgeSelection(), make_pool(), rng) == [4, 2, 3, 1]

    def test_ties_broken_randomly_not_by_id(self):
        pool = pool_of(range(40), [50] * 40)
        first_positions = set()
        for seed in range(10):
            order = ranked(AgeSelection(), pool, np.random.default_rng(seed))
            first_positions.add(order[0])
        assert len(first_positions) > 1

    def test_select_respects_count(self, rng):
        """The engine's cut at ``count`` keeps the oldest."""
        pool = make_pool()
        assert pool.ids[AgeSelection().order(pool, rng)[:2]].tolist() == [4, 2]

    def test_select_with_scarce_candidates(self, rng):
        pool = make_pool()
        assert len(AgeSelection().order(pool, rng)[:99]) == 4


class TestRandomSelection:
    def test_is_a_permutation(self, rng):
        assert sorted(ranked(RandomSelection(), make_pool(), rng)) == [1, 2, 3, 4]

    def test_varies_with_seed(self):
        pool = pool_of(range(30), range(30))
        a = ranked(RandomSelection(), pool, np.random.default_rng(1))
        b = ranked(RandomSelection(), pool, np.random.default_rng(2))
        assert a != b


class TestAvailabilitySelection:
    def test_orders_by_availability(self, rng):
        # 0.9 > 0.5 > 0.2 > unmeasured.
        assert ranked(AvailabilitySelection(), make_pool(), rng) == [2, 3, 1, 4]

    def test_age_breaks_ties(self, rng):
        pool = pool_of([1, 2], [10, 99], availability=[0.5, 0.5])
        assert ranked(AvailabilitySelection(), pool, rng)[0] == 2


class TestOracleSelection:
    def test_orders_by_true_remaining(self, rng):
        # inf first, then 5000, 100, 5.
        assert ranked(OracleSelection(), make_pool(), rng) == [4, 3, 2, 1]

    def test_infinite_remaining_sorts_first(self, rng):
        pool = pool_of([1, 2], [0, 0], remaining=[math.inf, 10.0])
        assert ranked(OracleSelection(), pool, rng)[0] == 1


class TestRegistry:
    def test_all_strategies_registered(self):
        assert available_strategies() == ["age", "availability", "oracle", "random"]

    @pytest.mark.parametrize("name", ["age", "random", "availability", "oracle"])
    def test_lookup(self, name):
        assert strategy_by_name(name).name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            strategy_by_name("fortune-teller")

    def test_empty_candidate_list(self, rng):
        for name in available_strategies():
            assert strategy_by_name(name).order(_EMPTY_POOL, rng).tolist() == []


def brute_force_order(name, pool, rng):
    """Pool positions by a Python ``sorted`` over each strategy's key.

    Consumes the same draws as the strategy: one jitter uniform per
    candidate, or one permutation for the random strategy.
    """
    size = len(pool.ids)
    if name == "random":
        return rng.permutation(size).tolist()
    jitter = rng.random(size).tolist()
    ids = pool.ids.tolist()
    ages = pool.ages.tolist()
    if name == "age":
        keys = list(zip([-a for a in ages], jitter, ids))
    elif name == "availability":
        measured = [1.0 if math.isnan(a) else -a for a in pool.availability]
        keys = list(zip(measured, [-a for a in ages], jitter))
    elif name == "oracle":
        keys = list(zip([-r for r in pool.remaining.tolist()], jitter))
    elif name == "youngest":
        keys = list(zip(ages, jitter))
    return sorted(range(size), key=keys.__getitem__)


def random_pool(draws, size):
    """A pool with heavy ties, NaN availability and durable peers."""
    ids = draws.permutation(10 * size + 1)[:size].astype(np.int64)
    ages = draws.integers(4, size=size).astype(np.int64)
    availability = draws.integers(4, size=size) / 4.0
    availability[draws.random(size) < 0.3] = math.nan
    remaining = draws.integers(3, size=size).astype(float)
    remaining[draws.random(size) < 0.3] = math.inf
    return CandidatePool(ids, ages, availability, remaining)


class TestSelectPairs:
    """Each strategy's array ``order`` agrees with a per-candidate sort.

    Seeded random pools (ties in every key, unmeasured availability,
    infinite remaining lifetime) are ordered by the strategy and by a
    brute-force Python ``sorted`` over its documented key, from twin
    generators: same positions, same draws consumed.
    """

    PAIRS = [(1, 5), (2, 40), (3, 40), (4, 0), (5, 17)]

    @pytest.mark.parametrize("name", ["age", "random", "availability", "oracle"])
    def test_matches_candidate_selection(self, name):
        strategy = strategy_by_name(name)
        draws = np.random.default_rng(2024)
        for seed in range(300):
            pool = random_pool(draws, int(draws.integers(0, 40)))
            order_rng = np.random.default_rng(seed)
            reference_rng = np.random.default_rng(seed)
            order = strategy.order(pool, order_rng)
            assert order.tolist() == brute_force_order(name, pool, reference_rng)
            assert (
                order_rng.bit_generator.state == reference_rng.bit_generator.state
            )

    def test_age_prefers_oldest(self, rng):
        ids, ages = zip(*self.PAIRS)
        pool = pool_of(ids, ages)
        chosen = pool.ids[strategy_by_name("age").order(pool, rng)[:2]]
        assert set(chosen.tolist()) == {2, 3}

    def test_empty_pairs(self, rng):
        for name in ("age", "random", "availability", "oracle"):
            assert len(strategy_by_name(name).order(_EMPTY_POOL, rng)) == 0


class TestSelectArrays:
    """Selection as the engine runs it: ``ids[order(pool)[:count]]``.

    Checked against ``select_pairs`` below, a brute-force selection over
    plain ``(peer_id, age)`` pairs that replays the same draws, for the
    built-in age-only strategies and a third-party one.
    """

    class Youngest(SelectionStrategy):
        """A third-party strategy: youngest first, jitter on ties."""

        name = "youngest"

        def order(self, pool, rng):
            return np.lexsort((rng.random(len(pool.ids)), pool.ages))

    class ConstantJitter:
        """A generator stub whose uniforms all tie, so ids decide."""

        def random(self, size):
            return np.zeros(size)

    @staticmethod
    def select_pairs(strategy, pairs, count, rng):
        pool = pool_of([i for i, _ in pairs], [a for _, a in pairs])
        order = brute_force_order(strategy.name, pool, rng)
        return [pairs[i][0] for i in order[:count]]

    @staticmethod
    def pool(size, distinct_ages, seed=5):
        draws = np.random.default_rng(seed)
        ids = draws.permutation(10 * size)[:size].astype(np.int64)
        ages = draws.integers(distinct_ages, size=size).astype(np.int64)
        return ids, ages

    def check(self, strategy, ids, ages, count, seed):
        pairs_rng = np.random.default_rng(seed)
        arrays_rng = np.random.default_rng(seed)
        expected = self.select_pairs(
            strategy, list(zip(ids.tolist(), ages.tolist())), count, pairs_rng
        )
        chosen = ids[strategy.order(CandidatePool(ids, ages), arrays_rng)[:count]]
        assert chosen.dtype == np.int64
        assert chosen.tolist() == expected
        assert (
            arrays_rng.bit_generator.state == pairs_rng.bit_generator.state
        )

    @pytest.mark.parametrize(
        "strategy",
        [AgeSelection(), RandomSelection(), Youngest()],
        ids=["age", "random", "fallback"],
    )
    @pytest.mark.parametrize("count", [0, 1, 7, 40, 200])
    def test_matches_select_pairs(self, strategy, count):
        # Three distinct ages over 120 candidates: ties everywhere.
        ids, ages = self.pool(120, distinct_ages=3)
        for seed in range(5):
            self.check(strategy, ids, ages, count, seed)

    @pytest.mark.parametrize(
        "strategy",
        [AgeSelection(), RandomSelection(), Youngest()],
        ids=["age", "random", "fallback"],
    )
    def test_empty_pool(self, strategy):
        self.check(strategy, _EMPTY, _EMPTY, 3, seed=1)

    def test_age_ties_fall_back_to_ids(self):
        ids, ages = self.pool(50, distinct_ages=2)
        strategy = AgeSelection()
        pairs = list(zip(ids.tolist(), ages.tolist()))
        expected = self.select_pairs(strategy, pairs, 20, self.ConstantJitter())
        order = strategy.order(CandidatePool(ids, ages), self.ConstantJitter())
        assert ids[order[:20]].tolist() == expected
        oldest = ids[ages == ages.max()]
        assert expected[: len(oldest)] == sorted(oldest.tolist())[:20]
