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

Every strategy implements one method, :meth:`SelectionStrategy.order`,
over a :class:`CandidatePool` of parallel arrays; the engine recruits
``pool.ids[order[:needed]]``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, NamedTuple, Optional

import numpy as np

from ..registry import Registry


class CandidatePool(NamedTuple):
    """Everything a selection strategy may know about the accepted pool.

    Parallel arrays, one entry per candidate in acceptance order:
    ``ids`` and ``ages`` (rounds since joining) are ``int64`` and always
    present.  ``availability`` is the measured uptime fraction over the
    monitoring window (``float64``, NaN for a peer with no history yet)
    and is filled only for strategies that set ``needs_availability``;
    ``remaining`` is the true remaining lifetime in rounds (``float64``,
    ``inf`` for durable peers), exists only in simulation and is filled
    only for strategies that set ``needs_oracle``.
    """

    ids: np.ndarray
    ages: np.ndarray
    availability: Optional[np.ndarray] = None
    remaining: Optional[np.ndarray] = None


#: Registry of partner-selection strategies.  Register a class (or any
#: zero-argument factory returning a :class:`SelectionStrategy`) to make
#: a new strategy usable from ``SimulationConfig.selection_strategy``
#: without touching the simulator.
SELECTION_STRATEGIES: Registry[type] = Registry("selection strategy")


class SelectionStrategy(ABC):
    """Orders candidate partners by preference."""

    #: Short machine name used by experiment configs and reports.
    name: str = "abstract"

    #: Columns the strategy reads from the :class:`CandidatePool`.  The
    #: engine only computes measured availability / true remaining
    #: lifetime for strategies that declare the need, so registered
    #: third-party strategies get the same treatment as the built-ins.
    needs_availability: bool = False
    needs_oracle: bool = False

    @abstractmethod
    def order(self, pool: CandidatePool, rng: np.random.Generator) -> np.ndarray:
        """Return every pool position, most preferred first."""


@SELECTION_STRATEGIES.register("age")
class AgeSelection(SelectionStrategy):
    """The paper's strategy: oldest candidates first.

    Ties (equal ages, common at simulation start) are broken by a random
    jitter so no peer id is systematically favoured; the id itself only
    decides when age *and* jitter tie exactly, a measure-zero event.
    """

    name = "age"

    def order(self, pool: CandidatePool, rng: np.random.Generator) -> np.ndarray:
        # lexsort's primary key is the last one: (-age, jitter, id).
        jitter = rng.random(len(pool.ids))
        return np.lexsort((pool.ids, jitter, -pool.ages))


@SELECTION_STRATEGIES.register("random")
class RandomSelection(SelectionStrategy):
    """Age-blind baseline: a uniformly random permutation."""

    name = "random"

    def order(self, pool: CandidatePool, rng: np.random.Generator) -> np.ndarray:
        return rng.permutation(len(pool.ids))


@SELECTION_STRATEGIES.register("availability")
class AvailabilitySelection(SelectionStrategy):
    """Rank by measured availability, then age, then a random jitter.

    Candidates without an availability measurement are ranked last (a
    brand-new peer has no history to show).
    """

    name = "availability"
    needs_availability = True

    def order(self, pool: CandidatePool, rng: np.random.Generator) -> np.ndarray:
        jitter = rng.random(len(pool.ids))
        measured = np.where(np.isnan(pool.availability), -1.0, pool.availability)
        return np.lexsort((jitter, -pool.ages, -measured))


@SELECTION_STRATEGIES.register("oracle")
class OracleSelection(SelectionStrategy):
    """Upper-bound baseline: rank by true remaining lifetime.

    Only meaningful inside the simulator, which knows each peer's death
    round; durable peers report ``inf`` and sort first.  Ties are broken
    by a random jitter.
    """

    name = "oracle"
    needs_oracle = True

    def order(self, pool: CandidatePool, rng: np.random.Generator) -> np.ndarray:
        jitter = rng.random(len(pool.ids))
        return np.lexsort((jitter, -pool.remaining))


def strategy_by_name(name: str) -> SelectionStrategy:
    """Instantiate a selection strategy from its registered name."""
    return SELECTION_STRATEGIES.get(name)()


def available_strategies() -> List[str]:
    """Names of all registered strategies."""
    return SELECTION_STRATEGIES.names()
