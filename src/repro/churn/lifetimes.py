"""Lifetime distributions for peers.

Two families are provided:

* :class:`UniformLifetime` — what the simulated profiles use; the paper
  specifies life expectancy as a range ("1.5 - 3.5 years") which we read
  as a uniform draw within the range.
* :class:`ParetoLifetime` — the distribution that measurement studies of
  deployed peer-to-peer systems report (paper section 1, citing [5]); it
  is the analytical justification of the age heuristic, because under a
  Pareto law the expected *remaining* lifetime grows linearly with age.

Both expose the same small interface so the churn generator and the
estimation module can mix them freely.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from ..registry import Registry

#: Registry of lifetime-distribution families.  Entries are classes (or
#: factories) whose constructor parameters describe the distribution;
#: :func:`lifetime_by_name` instantiates them.
LIFETIME_MODELS: Registry[type] = Registry("lifetime model")


class LifetimeDistribution(ABC):
    """Samples total peer lifetimes, in rounds."""

    @abstractmethod
    def sample(self, rng: np.random.Generator) -> float:
        """Draw one lifetime."""

    @abstractmethod
    def mean(self) -> float:
        """Expected lifetime (may be ``inf``)."""

    @abstractmethod
    def survival(self, age: float) -> float:
        """P(lifetime > age)."""

    def expected_remaining(self, age: float) -> float:
        """E[lifetime - age | lifetime > age], computed numerically by default."""
        if age < 0:
            raise ValueError("age cannot be negative")
        tail = self.survival(age)
        if tail <= 0:
            return 0.0
        # Integrate the conditional survival function; subclasses override
        # with closed forms when available.
        horizon = max(age * 10 + 1.0, 1e4)
        xs = np.linspace(age, age + horizon, 4096)
        values = np.array([self.survival(x) for x in xs]) / tail
        return float(np.trapz(values, xs))


@LIFETIME_MODELS.register("uniform")
class UniformLifetime(LifetimeDistribution):
    """Lifetime uniform in ``[low, high]`` rounds."""

    def __init__(self, low: float, high: float):
        if low <= 0 or high < low:
            raise ValueError(f"need 0 < low <= high, got ({low}, {high})")
        self.low = float(low)
        self.high = float(high)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))

    def mean(self) -> float:
        return (self.low + self.high) / 2.0

    def survival(self, age: float) -> float:
        if age < self.low:
            return 1.0
        if age >= self.high:
            return 0.0
        return (self.high - age) / (self.high - self.low)

    def expected_remaining(self, age: float) -> float:
        if age < 0:
            raise ValueError("age cannot be negative")
        if age >= self.high:
            return 0.0
        effective_low = max(age, self.low)
        return (effective_low + self.high) / 2.0 - age

    def __repr__(self) -> str:
        return f"UniformLifetime(low={self.low}, high={self.high})"


@LIFETIME_MODELS.register("immortal")
class ImmortalLifetime(LifetimeDistribution):
    """The durable profile: the peer never leaves."""

    def sample(self, rng: np.random.Generator) -> float:
        return math.inf

    def mean(self) -> float:
        return math.inf

    def survival(self, age: float) -> float:
        return 1.0

    def expected_remaining(self, age: float) -> float:
        return math.inf

    def __repr__(self) -> str:
        return "ImmortalLifetime()"


@LIFETIME_MODELS.register("pareto")
class ParetoLifetime(LifetimeDistribution):
    """Pareto (type I) lifetimes: ``P(T > t) = (x_m / t)^alpha`` for ``t >= x_m``.

    The heavy tail is what makes age informative: conditioned on having
    survived to age ``t >= x_m``, the expected remaining lifetime is
    ``t / (alpha - 1)`` (for ``alpha > 1``) — strictly increasing in age.
    """

    def __init__(self, shape: float, scale: float = 1.0):
        if shape <= 0:
            raise ValueError(f"shape alpha must be positive, got {shape}")
        if scale <= 0:
            raise ValueError(f"scale x_m must be positive, got {scale}")
        self.shape = float(shape)
        self.scale = float(scale)

    def sample(self, rng: np.random.Generator) -> float:
        # Inverse-CDF sampling: T = x_m * U^(-1/alpha).
        u = rng.random()
        # Guard the measure-zero corner u == 0.
        u = max(u, np.finfo(float).tiny)
        return self.scale * u ** (-1.0 / self.shape)

    def mean(self) -> float:
        if self.shape <= 1.0:
            return math.inf
        return self.shape * self.scale / (self.shape - 1.0)

    def survival(self, age: float) -> float:
        if age <= self.scale:
            return 1.0
        return (self.scale / age) ** self.shape

    def expected_remaining(self, age: float) -> float:
        if age < 0:
            raise ValueError("age cannot be negative")
        if self.shape <= 1.0:
            return math.inf
        t = max(age, self.scale)
        # E[T | T > t] = alpha * t / (alpha - 1)  =>  remaining = t/(alpha-1),
        # plus the (t - age) offset when age is still below the scale.
        return self.shape * t / (self.shape - 1.0) - age

    def __repr__(self) -> str:
        return f"ParetoLifetime(shape={self.shape}, scale={self.scale})"


def lifetime_by_name(name: str, **params) -> LifetimeDistribution:
    """Instantiate a lifetime distribution from its registered name."""
    return LIFETIME_MODELS.create(name, **params)


def from_profile(profile) -> LifetimeDistribution:
    """Build the lifetime distribution a profile prescribes."""
    if profile.life_expectancy is None:
        return LIFETIME_MODELS.create("immortal")
    low, high = profile.life_expectancy
    return LIFETIME_MODELS.create("uniform", low=low, high=high)


def mixture_survival(profiles, age: float) -> float:
    """Survival function of the population mixture at a given age.

    Useful to compare the paper's four-profile mixture with a fitted
    Pareto law (the mixture is itself heavy-tailed thanks to the durable
    mass point at infinity).
    """
    total = 0.0
    for profile in profiles:
        total += profile.proportion * from_profile(profile).survival(age)
    return total


def optional_seed_generator(seed: Optional[int]) -> np.random.Generator:
    """Small helper: a numpy generator from an optional seed."""
    # Imported lazily: repro.sim.config imports the churn package, whose
    # __init__ imports this module, so a module-level import of
    # repro.sim would be circular.
    from ..sim.rng import seeded_generator

    return seeded_generator(seed)
