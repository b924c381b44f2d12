"""Observer peers (paper section 4.2.2, table T4).

"An observer is a special peer, whose age does not increase like the age
of other peers.  Other peers cannot choose an observer as a partner, but
the observer can choose other peers as partners, without however
consuming their quota.  As normal peers, it has to repair if its number
of available blocks decreases below the repair threshold."

Observers are the paper's measurement instrument for figure 3: by
pinning the age, the repair rate *at* that age can be read over the whole
run instead of only during the short window a normal peer spends there.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from ..churn.profiles import ROUNDS_PER_DAY
from .config import PAPER_OBSERVERS, ObserverSpec


def observer_table(
    specs: Sequence[ObserverSpec] = PAPER_OBSERVERS,
) -> Dict[str, str]:
    """The observer table (T4) as ``name -> age`` strings."""
    def describe(rounds: int) -> str:
        if rounds % (30 * ROUNDS_PER_DAY) == 0 and rounds >= 30 * ROUNDS_PER_DAY:
            return f"{rounds // (30 * ROUNDS_PER_DAY)} month(s)"
        if rounds % (7 * ROUNDS_PER_DAY) == 0 and rounds >= 7 * ROUNDS_PER_DAY:
            return f"{rounds // (7 * ROUNDS_PER_DAY)} week(s)"
        if rounds % ROUNDS_PER_DAY == 0 and rounds >= ROUNDS_PER_DAY:
            return f"{rounds // ROUNDS_PER_DAY} day(s)"
        return f"{rounds} hour(s)"

    return {spec.name: describe(spec.fixed_age) for spec in specs}


def scaled_observers(
    age_scale: float, specs: Sequence[ObserverSpec] = PAPER_OBSERVERS
) -> Tuple[ObserverSpec, ...]:
    """Observers with ages multiplied by ``age_scale`` (min 1 round).

    Used when a scaled run shortens the age cap L: observer ages must
    shrink proportionally to keep their position relative to the cap.
    """
    if age_scale <= 0:
        raise ValueError("age_scale must be positive")
    return tuple(
        ObserverSpec(spec.name, max(int(spec.fixed_age * age_scale), 1))
        for spec in specs
    )

