"""Partner-selection strategies.

The paper's strategy ("nodes are selected according to their stability
[...] the protocol uses the ages of the peers to sort them", section 3.2)
is :class:`AgeSelection`.  The baselines used for the ablation benches
(A1 in DESIGN.md) share the same interface:

* :class:`RandomSelection` — age-blind uniform choice (what a system
  without lifetime estimation would do);
* :class:`AvailabilitySelection` — rank by measured availability over the
  monitoring window (an alternative stability signal);
* :class:`OracleSelection` — rank by the peer's *true* remaining lifetime
  (an unattainable upper bound that quantifies how much of the oracle's
  benefit the age heuristic captures).

Every strategy consumes :class:`Candidate` descriptors and returns the
ids to recruit, most preferred first.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..registry import Registry


@dataclass(frozen=True)
class Candidate:
    """Everything a selection strategy may know about a candidate partner.

    ``age`` is public knowledge (via the monitoring protocol);
    ``availability`` is the measured uptime fraction over the monitoring
    window; ``true_remaining_lifetime`` exists only in simulation and is
    consumed exclusively by the oracle baseline.
    """

    peer_id: int
    age: float
    availability: Optional[float] = None
    true_remaining_lifetime: Optional[float] = None

    def __post_init__(self) -> None:
        if self.age < 0:
            raise ValueError("candidate age cannot be negative")
        if self.availability is not None and not 0.0 <= self.availability <= 1.0:
            raise ValueError("availability must be in [0, 1]")


#: Registry of partner-selection strategies.  Register a class (or any
#: zero-argument factory returning a :class:`SelectionStrategy`) to make
#: a new strategy usable from ``SimulationConfig.selection_strategy``
#: without touching the simulator.
SELECTION_STRATEGIES: Registry[type] = Registry("selection strategy")


class SelectionStrategy(ABC):
    """Orders candidate partners by preference."""

    #: Short machine name used by experiment configs and reports.
    name: str = "abstract"

    #: Data the strategy needs on each :class:`Candidate`.  The engine
    #: only computes measured availability / true remaining lifetime for
    #: strategies that declare the need, so registered third-party
    #: strategies get the same treatment as the built-ins.
    needs_availability: bool = False
    needs_oracle: bool = False

    @abstractmethod
    def rank(
        self, candidates: Sequence[Candidate], rng: np.random.Generator
    ) -> List[int]:
        """Return candidate ids, most preferred first."""

    def select(
        self,
        candidates: Sequence[Candidate],
        count: int,
        rng: np.random.Generator,
    ) -> List[int]:
        """Pick the ``count`` most preferred candidates (fewer if scarce)."""
        if count < 0:
            raise ValueError("count cannot be negative")
        return self.rank(candidates, rng)[:count]

    def select_pairs(
        self,
        pairs: Sequence[Tuple[int, float]],
        count: int,
        rng: np.random.Generator,
    ) -> List[int]:
        """Fast-path selection over plain ``(peer_id, age)`` pairs.

        For strategies that declare no extra data needs (neither
        availability nor oracle knowledge), skipping :class:`Candidate`
        construction; the default :meth:`select_arrays`, which the
        engine calls, defers here.  The default implementation wraps the
        pairs into Candidates and defers to :meth:`select`, so
        third-party strategies keep working unchanged; the built-in
        age-only strategies override it.
        """
        candidates = [Candidate(peer_id=i, age=a) for i, a in pairs]
        return self.select(candidates, count, rng)

    def select_arrays(
        self,
        ids: np.ndarray,
        ages: np.ndarray,
        count: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Array twin of :meth:`select_pairs`, for the engine's pool fill.

        ``ids`` and ``ages`` are parallel ``int64`` vectors; the result
        is the chosen ids as an ``int64`` vector, most preferred first.
        Overrides must pick the same ids with the same draws as
        :meth:`select_pairs` on the zipped pairs.  The default does
        exactly that, so third-party strategies keep working unchanged.
        """
        chosen = self.select_pairs(
            list(zip(ids.tolist(), ages.tolist())), count, rng
        )
        return np.array(chosen, dtype=np.int64)


@SELECTION_STRATEGIES.register("age")
class AgeSelection(SelectionStrategy):
    """The paper's strategy: oldest candidates first.

    Ties (equal ages, common at simulation start) are broken randomly so
    no peer id is systematically favoured.
    """

    name = "age"

    def rank(
        self, candidates: Sequence[Candidate], rng: np.random.Generator
    ) -> List[int]:
        jitter = rng.random(len(candidates))
        order = sorted(
            range(len(candidates)),
            key=lambda i: (-candidates[i].age, jitter[i]),
        )
        return [candidates[i].peer_id for i in order]

    def select_pairs(
        self,
        pairs: Sequence[Tuple[int, float]],
        count: int,
        rng: np.random.Generator,
    ) -> List[int]:
        if count < 0:
            raise ValueError("count cannot be negative")
        # Decorate-sort without a Python key function: tuples compare in
        # C.  The peer id rides along as a last-resort tiebreak; it can
        # only decide when age *and* jitter tie exactly, which the
        # continuous jitter makes a measure-zero event.
        jitter = rng.random(len(pairs)).tolist()
        decorated = sorted(
            (-age, tiebreak, peer_id)
            for (peer_id, age), tiebreak in zip(pairs, jitter)
        )
        return [entry[2] for entry in decorated[:count]]

    def select_arrays(
        self,
        ids: np.ndarray,
        ages: np.ndarray,
        count: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        if count < 0:
            raise ValueError("count cannot be negative")
        # The same jitter draw and the same (-age, jitter, id) order as
        # select_pairs; lexsort's primary key is the last one.
        jitter = rng.random(len(ids))
        return ids[np.lexsort((ids, jitter, -ages))[:count]]


@SELECTION_STRATEGIES.register("random")
class RandomSelection(SelectionStrategy):
    """Age-blind baseline: a uniformly random permutation."""

    name = "random"

    def rank(
        self, candidates: Sequence[Candidate], rng: np.random.Generator
    ) -> List[int]:
        ids = [candidate.peer_id for candidate in candidates]
        permutation = rng.permutation(len(ids))
        return [ids[i] for i in permutation]

    def select_pairs(
        self,
        pairs: Sequence[Tuple[int, float]],
        count: int,
        rng: np.random.Generator,
    ) -> List[int]:
        if count < 0:
            raise ValueError("count cannot be negative")
        permutation = rng.permutation(len(pairs))
        return [pairs[i][0] for i in permutation[:count]]

    def select_arrays(
        self,
        ids: np.ndarray,
        ages: np.ndarray,
        count: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        if count < 0:
            raise ValueError("count cannot be negative")
        return ids[rng.permutation(len(ids))[:count]]


@SELECTION_STRATEGIES.register("availability")
class AvailabilitySelection(SelectionStrategy):
    """Rank by measured availability, falling back to age on ties.

    Candidates without an availability measurement are ranked last (a
    brand-new peer has no history to show).
    """

    name = "availability"
    needs_availability = True

    def rank(
        self, candidates: Sequence[Candidate], rng: np.random.Generator
    ) -> List[int]:
        jitter = rng.random(len(candidates))

        def key(i: int):
            candidate = candidates[i]
            availability = (
                candidate.availability if candidate.availability is not None else -1.0
            )
            return (-availability, -candidate.age, jitter[i])

        order = sorted(range(len(candidates)), key=key)
        return [candidates[i].peer_id for i in order]


@SELECTION_STRATEGIES.register("oracle")
class OracleSelection(SelectionStrategy):
    """Upper-bound baseline: rank by true remaining lifetime.

    Only meaningful inside the simulator, which knows each peer's death
    round.  Candidates with unknown remaining lifetime (durable peers
    report ``inf``; ``None`` means "not provided") sort as infinite.
    """

    name = "oracle"
    needs_oracle = True

    def rank(
        self, candidates: Sequence[Candidate], rng: np.random.Generator
    ) -> List[int]:
        jitter = rng.random(len(candidates))

        def key(i: int):
            remaining = candidates[i].true_remaining_lifetime
            if remaining is None:
                remaining = float("inf")
            return (-remaining, jitter[i])

        order = sorted(range(len(candidates)), key=key)
        return [candidates[i].peer_id for i in order]


def strategy_by_name(name: str) -> SelectionStrategy:
    """Instantiate a selection strategy from its registered name."""
    return SELECTION_STRATEGIES.get(name)()


def available_strategies() -> List[str]:
    """Names of all registered strategies."""
    return SELECTION_STRATEGIES.names()
