"""Scenario composition: the builder facade and the shipped presets.

This package is the public construction API of the simulator: a
chainable :class:`Scenario` builder over the component registries
(selection strategies, acceptance rules, churn mixes, codec backends)
plus a registry of ready-to-run workload presets
(``flash_crowd``, ``diurnal``, ``correlated_outage``,
``heterogeneous_quota``, ``slow_decay``, ``paper``).
"""

from .builder import Scenario
from .presets import (
    PRESET_OBSERVERS,
    SCENARIOS,
    available_scenarios,
    register_scenario,
    scenario_by_name,
)

__all__ = [
    "PRESET_OBSERVERS",
    "SCENARIOS",
    "Scenario",
    "available_scenarios",
    "register_scenario",
    "scenario_by_name",
]
