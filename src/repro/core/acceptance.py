"""The paper's acceptation function (section 3.2).

Peer ``p1`` decides whether to start a partnership with peer ``p2`` with
probability::

    f(p1, p2) = min( (L - (min(s1, L) - min(s2, L)) + 1) / L , 1 )

where ``s1`` and ``s2`` are stability estimates — the number of rounds
since each peer first connected (its *age*) — and ``L`` caps the age that
matters (90 days in the paper).

Properties, all tested in ``tests/core/test_acceptance.py``:

* the result is never zero; its minimum is ``1 / L`` (newcomers always
  retain a small chance);
* the result is exactly one whenever ``p2`` is at least as old as ``p1``;
* the function is asymmetric below the cap (an old peer rarely accepts a
  newcomer, a newcomer always accepts an old peer).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..churn.profiles import ROUNDS_PER_DAY
from ..registry import Registry

#: The paper's stability cap: 90 days, in one-hour rounds.
DEFAULT_AGE_CAP = 90 * ROUNDS_PER_DAY

#: Registry of acceptance rules.  A rule is registered as a factory
#: accepting an ``age_cap`` keyword and returning an object with the
#: :class:`AcceptancePolicy` interface: the engine's pool fill calls
#: ``accepts`` over a whole chunk of candidates, handing it
#: ``draws_per_candidate`` uniforms per candidate; ``probability`` and
#: ``mutual_probability`` state the rule as a formula.
#: ``SimulationConfig.acceptance_rule`` names are resolved here.
ACCEPTANCE_RULES: Registry[type] = Registry("acceptance rule")


def acceptance_probability(
    own_age: float, candidate_age: float, age_cap: int = DEFAULT_AGE_CAP
) -> float:
    """Probability that a peer of ``own_age`` accepts one of ``candidate_age``.

    Ages are measured in rounds; ``age_cap`` is the paper's ``L``.
    """
    if age_cap <= 0:
        raise ValueError(f"age cap L must be positive, got {age_cap}")
    if own_age < 0 or candidate_age < 0:
        raise ValueError("ages cannot be negative")
    s1 = min(own_age, age_cap)
    s2 = min(candidate_age, age_cap)
    probability = (age_cap - (s1 - s2) + 1) / age_cap
    return min(probability, 1.0)


def minimum_probability(age_cap: int = DEFAULT_AGE_CAP) -> float:
    """The floor of the acceptation function, ``1 / L``."""
    if age_cap <= 0:
        raise ValueError(f"age cap L must be positive, got {age_cap}")
    return 1.0 / age_cap


@ACCEPTANCE_RULES.register("age")
@dataclass(frozen=True)
class AcceptancePolicy:
    """A reusable acceptation rule with a fixed age cap.

    The simulator instantiates one policy per run so the cap ``L`` can be
    swept without touching call sites.
    """

    age_cap: int = DEFAULT_AGE_CAP

    def __post_init__(self) -> None:
        if self.age_cap <= 0:
            raise ValueError(f"age cap L must be positive, got {self.age_cap}")

    def probability(self, own_age: float, candidate_age: float) -> float:
        """``f(p1, p2)`` for this policy's cap."""
        return acceptance_probability(own_age, candidate_age, self.age_cap)

    #: Uniforms :meth:`accepts` consumes per candidate: one per side.
    draws_per_candidate = 2

    def accepts(
        self, owner_age: float, candidate_ages: np.ndarray, uniforms: np.ndarray
    ) -> np.ndarray:
        """Mutual decisions for a chunk of candidates, as a bool mask.

        ``uniforms`` holds two pre-drawn samples in ``[0, 1)`` per
        candidate, interleaved: the owner's at even positions, the
        candidate's at odd ones.  Taking the draws as an argument keeps
        the rule pure and the simulation deterministic under a seeded
        RNG.  Each side accepts iff ``u * L < L - (s1 - s2) + 1``, which
        is ``u < f(p1, p2)`` multiplied through by ``L`` (``min(f, 1)``
        is free since ``u < 1``): all-integer right-hand sides, so any
        evaluation order gives bit-identical results.
        """
        cap = self.age_cap
        s_owner = owner_age if owner_age < cap else cap
        s_candidates = np.minimum(candidate_ages, cap)
        return (uniforms[0::2] * cap < s_candidates + (cap - s_owner + 1)) & (
            uniforms[1::2] * cap < (cap + s_owner + 1) - s_candidates
        )

    def mutual_probability(self, age_a: float, age_b: float) -> float:
        """Probability that two *independent* decisions both accept.

        Partnerships require agreement from both sides (section 3.2:
        "both peers must agree on their partnership").
        """
        return self.probability(age_a, age_b) * self.probability(age_b, age_a)


@ACCEPTANCE_RULES.register("uniform")
@dataclass(frozen=True)
class UniformAcceptancePolicy:
    """Age-blind acceptance: every proposal is accepted.

    This is the baseline world without lifetime estimation — what a
    backup system that ignores ages entirely would do.  It shares the
    :class:`AcceptancePolicy` interface so the simulator can swap rules
    via configuration (``SimulationConfig.acceptance_rule``).
    """

    age_cap: int = DEFAULT_AGE_CAP

    def probability(self, own_age: float, candidate_age: float) -> float:
        """Always 1."""
        if own_age < 0 or candidate_age < 0:
            raise ValueError("ages cannot be negative")
        return 1.0

    #: No draws: every proposal is accepted.
    draws_per_candidate = 0

    def accepts(
        self, owner_age: float, candidate_ages: np.ndarray, uniforms: np.ndarray
    ) -> np.ndarray:
        """Accept every candidate (``uniforms`` is empty)."""
        return np.ones(len(candidate_ages), dtype=bool)

    def mutual_probability(self, age_a: float, age_b: float) -> float:
        """Always 1."""
        return 1.0


def acceptance_rule(name: str, age_cap: int = DEFAULT_AGE_CAP):
    """Instantiate an acceptance rule by its registered name."""
    return ACCEPTANCE_RULES.create(name, age_cap=age_cap)


def available_rules():
    """Names of all registered acceptance rules."""
    return ACCEPTANCE_RULES.names()
