"""Tests for partner-selection strategies."""

import numpy as np
import pytest

from repro.core.selection import (
    AgeSelection,
    AvailabilitySelection,
    Candidate,
    OracleSelection,
    RandomSelection,
    SelectionStrategy,
    available_strategies,
    strategy_by_name,
)


@pytest.fixture
def rng():
    return np.random.default_rng(17)


def make_candidates():
    return [
        Candidate(peer_id=1, age=10, availability=0.2, true_remaining_lifetime=5),
        Candidate(peer_id=2, age=500, availability=0.9, true_remaining_lifetime=100),
        Candidate(peer_id=3, age=100, availability=0.5, true_remaining_lifetime=5000),
        Candidate(peer_id=4, age=2000, availability=None, true_remaining_lifetime=None),
    ]


class TestCandidate:
    def test_validation(self):
        with pytest.raises(ValueError):
            Candidate(peer_id=1, age=-1)
        with pytest.raises(ValueError):
            Candidate(peer_id=1, age=1, availability=1.5)

    def test_optional_fields_default_none(self):
        candidate = Candidate(peer_id=1, age=0)
        assert candidate.availability is None
        assert candidate.true_remaining_lifetime is None


class TestAgeSelection:
    def test_orders_by_age_descending(self, rng):
        ranked = AgeSelection().rank(make_candidates(), rng)
        assert ranked == [4, 2, 3, 1]

    def test_ties_broken_randomly_not_by_id(self):
        candidates = [Candidate(peer_id=i, age=50) for i in range(40)]
        first_positions = set()
        for seed in range(10):
            ranked = AgeSelection().rank(candidates, np.random.default_rng(seed))
            first_positions.add(ranked[0])
        assert len(first_positions) > 1

    def test_select_respects_count(self, rng):
        chosen = AgeSelection().select(make_candidates(), 2, rng)
        assert chosen == [4, 2]

    def test_select_with_scarce_candidates(self, rng):
        chosen = AgeSelection().select(make_candidates(), 99, rng)
        assert len(chosen) == 4

    def test_select_negative_count(self, rng):
        with pytest.raises(ValueError):
            AgeSelection().select(make_candidates(), -1, rng)


class TestRandomSelection:
    def test_is_a_permutation(self, rng):
        candidates = make_candidates()
        ranked = RandomSelection().rank(candidates, rng)
        assert sorted(ranked) == [1, 2, 3, 4]

    def test_varies_with_seed(self):
        candidates = [Candidate(peer_id=i, age=i) for i in range(30)]
        a = RandomSelection().rank(candidates, np.random.default_rng(1))
        b = RandomSelection().rank(candidates, np.random.default_rng(2))
        assert a != b


class TestAvailabilitySelection:
    def test_orders_by_availability(self, rng):
        ranked = AvailabilitySelection().rank(make_candidates(), rng)
        # 0.9 > 0.5 > 0.2 > unmeasured.
        assert ranked == [2, 3, 1, 4]

    def test_age_breaks_ties(self, rng):
        candidates = [
            Candidate(peer_id=1, age=10, availability=0.5),
            Candidate(peer_id=2, age=99, availability=0.5),
        ]
        assert AvailabilitySelection().rank(candidates, rng)[0] == 2


class TestOracleSelection:
    def test_orders_by_true_remaining(self, rng):
        ranked = OracleSelection().rank(make_candidates(), rng)
        # None -> inf first, then 5000, 100, 5.
        assert ranked == [4, 3, 2, 1]

    def test_infinite_remaining_sorts_first(self, rng):
        candidates = [
            Candidate(peer_id=1, age=0, true_remaining_lifetime=float("inf")),
            Candidate(peer_id=2, age=0, true_remaining_lifetime=10.0),
        ]
        assert OracleSelection().rank(candidates, rng)[0] == 1


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
            assert strategy_by_name(name).rank([], rng) == []


class TestSelectPairs:
    """The (peer_id, age) fast path must agree with the Candidate path."""

    PAIRS = [(1, 5.0), (2, 40.0), (3, 40.0), (4, 0.0), (5, 17.0)]

    def as_candidates(self):
        return [Candidate(peer_id=i, age=a) for i, a in self.PAIRS]

    @pytest.mark.parametrize("name", ["age", "random", "availability", "oracle"])
    def test_matches_candidate_selection(self, name):
        import numpy as np

        strategy = strategy_by_name(name)
        chosen_pairs = strategy.select_pairs(
            self.PAIRS, 3, np.random.default_rng(7)
        )
        chosen_candidates = strategy.select(
            self.as_candidates(), 3, np.random.default_rng(7)
        )
        assert chosen_pairs == chosen_candidates

    def test_age_prefers_oldest(self, rng):
        chosen = strategy_by_name("age").select_pairs(self.PAIRS, 2, rng)
        assert set(chosen) == {2, 3}

    def test_count_zero_and_negative(self, rng):
        strategy = strategy_by_name("age")
        assert strategy.select_pairs(self.PAIRS, 0, rng) == []
        with pytest.raises(ValueError):
            strategy.select_pairs(self.PAIRS, -1, rng)
        with pytest.raises(ValueError):
            strategy_by_name("random").select_pairs(self.PAIRS, -1, rng)

    def test_empty_pairs(self, rng):
        for name in ("age", "random", "availability", "oracle"):
            assert strategy_by_name(name).select_pairs([], 3, rng) == []


class TestSelectArrays:
    """The array path picks the select_pairs ids with the same draws."""

    class Youngest(SelectionStrategy):
        """A third-party strategy that only implements ``rank``."""

        name = "youngest"

        def rank(self, candidates, rng):
            jitter = rng.random(len(candidates))
            order = sorted(
                range(len(candidates)),
                key=lambda i: (candidates[i].age, jitter[i]),
            )
            return [candidates[i].peer_id for i in order]

    class ConstantJitter:
        """A generator stub whose uniforms all tie, so ids decide."""

        def random(self, size):
            return np.zeros(size)

    @staticmethod
    def pool(size, distinct_ages, seed=5):
        draws = np.random.default_rng(seed)
        ids = draws.permutation(10 * size)[:size].astype(np.int64)
        ages = draws.integers(distinct_ages, size=size).astype(np.int64)
        return ids, ages

    def check(self, strategy, ids, ages, count, seed):
        pairs_rng = np.random.default_rng(seed)
        arrays_rng = np.random.default_rng(seed)
        expected = strategy.select_pairs(
            list(zip(ids.tolist(), ages.tolist())), count, pairs_rng
        )
        chosen = strategy.select_arrays(ids, ages, count, arrays_rng)
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
        expected = strategy.select_pairs(pairs, 20, self.ConstantJitter())
        chosen = strategy.select_arrays(ids, ages, 20, self.ConstantJitter())
        assert chosen.tolist() == expected
        oldest = ids[ages == ages.max()]
        assert expected[: len(oldest)] == sorted(oldest.tolist())[:20]

    def test_negative_count(self, rng):
        ids, ages = self.pool(10, distinct_ages=4)
        for strategy in (AgeSelection(), RandomSelection()):
            with pytest.raises(ValueError):
                strategy.select_arrays(ids, ages, -1, rng)


_EMPTY = np.empty(0, dtype=np.int64)
