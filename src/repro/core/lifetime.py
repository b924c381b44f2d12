"""Lifetime estimation: the statistical basis of the age heuristic.

The paper's selection rule rests on one empirical law (section 1, citing
Bustamante & Qiao [5]): peer lifetimes follow a Pareto distribution, so a
peer's expected remaining lifetime *increases* with the time it has
already spent in the system.  This module provides:

* maximum-likelihood Pareto fitting in closed form,
* conditional remaining-lifetime estimation under the fitted law,
* a Kaplan-Meier-style empirical survival estimator for traces that
  include right-censored observations (peers still alive at the end of a
  measurement window),
* a ranking helper: sorting peers by expected remaining lifetime under a
  Pareto law is exactly sorting them by age, which is what the protocol
  exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class ParetoFit:
    """Result of fitting a Pareto law to observed lifetimes."""

    shape: float  # alpha
    scale: float  # x_m
    sample_size: int
    log_likelihood: float

    def survival(self, age: float) -> float:
        """P(lifetime > age) under the fitted law."""
        if age <= self.scale:
            return 1.0
        return (self.scale / age) ** self.shape

    def expected_remaining(self, age: float) -> float:
        """E[remaining | survived to age] under the fitted law.

        Infinite when the fitted tail is too heavy (``alpha <= 1``).
        """
        if age < 0:
            raise ValueError("age cannot be negative")
        if self.shape <= 1.0:
            return float("inf")
        t = max(age, self.scale)
        return self.shape * t / (self.shape - 1.0) - age


def fit_pareto(lifetimes: Sequence[float]) -> ParetoFit:
    """Maximum-likelihood Pareto fit of completed lifetimes.

    For samples ``x_i >= x_m`` the MLE is ``x_m = min(x_i)`` and
    ``alpha = n / sum(log(x_i / x_m))``.
    """
    samples = np.asarray(list(lifetimes), dtype=float)
    if samples.size < 2:
        raise ValueError("need at least two lifetime samples to fit a Pareto law")
    if np.any(samples <= 0):
        raise ValueError("lifetimes must be strictly positive")
    scale = float(samples.min())
    logs = np.log(samples / scale)
    total = float(logs.sum())
    if total <= 0:
        raise ValueError("degenerate sample: all lifetimes identical")
    shape = samples.size / total
    log_likelihood = float(
        samples.size * np.log(shape)
        + samples.size * shape * np.log(scale)
        - (shape + 1) * np.log(samples).sum()
    )
    return ParetoFit(
        shape=shape,
        scale=scale,
        sample_size=int(samples.size),
        log_likelihood=log_likelihood,
    )


@dataclass(frozen=True)
class SurvivalCurve:
    """Empirical survival function S(t) on a grid of times."""

    times: Tuple[float, ...]
    probabilities: Tuple[float, ...]

    def at(self, age: float) -> float:
        """S(age) with step interpolation (right-continuous)."""
        if age < 0:
            raise ValueError("age cannot be negative")
        result = 1.0
        for time, prob in zip(self.times, self.probabilities):
            if time <= age:
                result = prob
            else:
                break
        return result


def kaplan_meier(
    durations: Sequence[float], completed: Sequence[bool]
) -> SurvivalCurve:
    """Kaplan-Meier estimator handling right-censored lifetimes.

    Parameters
    ----------
    durations:
        Observed time in system for each peer.
    completed:
        ``True`` when the peer actually departed at that time, ``False``
        when the observation window ended first (censoring).
    """
    if len(durations) != len(completed):
        raise ValueError("durations and completed flags must align")
    if len(durations) == 0:
        raise ValueError("need at least one observation")
    order = np.argsort(durations)
    durations = np.asarray(durations, dtype=float)[order]
    completed = np.asarray(completed, dtype=bool)[order]
    if np.any(durations < 0):
        raise ValueError("durations cannot be negative")

    at_risk = len(durations)
    survival = 1.0
    times: List[float] = []
    probabilities: List[float] = []
    index = 0
    while index < len(durations):
        time = durations[index]
        deaths = 0
        removed = 0
        while index < len(durations) and durations[index] == time:
            deaths += int(completed[index])
            removed += 1
            index += 1
        if deaths and at_risk:
            survival *= 1.0 - deaths / at_risk
            times.append(float(time))
            probabilities.append(survival)
        at_risk -= removed
    if not times:
        times = [float(durations[-1])]
        probabilities = [1.0]
    return SurvivalCurve(tuple(times), tuple(probabilities))


def conditional_remaining_curve(
    fit: ParetoFit, ages: Sequence[float]
) -> List[Tuple[float, float]]:
    """Tabulate E[remaining | age] for a list of ages under a fit.

    This is the curve that justifies the paper's heuristic: it is
    monotonically non-decreasing in age for any Pareto law.
    """
    return [(float(age), fit.expected_remaining(age)) for age in ages]


def rank_by_expected_remaining(
    ages: Sequence[float], fit: ParetoFit
) -> List[int]:
    """Indices of peers sorted by decreasing expected remaining lifetime.

    For ages at or above the fitted scale ``x_m`` this ordering
    coincides with decreasing age (remaining lifetime is ``t/(alpha-1)``,
    strictly increasing in ``t``) — which is why the protocol can skip
    the distribution fit entirely and just sort by age.  Below ``x_m``
    the survival function is flat at 1, so conditioning on age teaches
    nothing yet; ties there are broken toward the older peer.
    """
    remaining = [fit.expected_remaining(age) for age in ages]
    return sorted(range(len(ages)), key=lambda i: (-remaining[i], -ages[i], i))


def age_is_sufficient_statistic(
    ages: Sequence[float], fit: ParetoFit
) -> bool:
    """Check that fitted-model ranking == age ranking, where age can tell.

    Only ages at or above the fitted scale ``x_m`` are compared: below
    it every peer has survival 1 and the model deliberately cannot
    distinguish them (see :func:`rank_by_expected_remaining`).
    """
    informative = [age for age in ages if age >= fit.scale]
    by_model = rank_by_expected_remaining(informative, fit)
    by_age = sorted(
        range(len(informative)), key=lambda i: (-informative[i], i)
    )
    return by_model == by_age
