"""The paper's core contribution: lifetime-aware partner selection.

This package holds everything specific to the paper's optimization — the
acceptation function, the age categories, the lifetime statistics that
justify using age as a stability signal, the selection strategies and
the threshold-repair policy.
"""

from .acceptance import (
    ACCEPTANCE_RULES,
    DEFAULT_AGE_CAP,
    AcceptancePolicy,
    UniformAcceptancePolicy,
    acceptance_probability,
    acceptance_rule,
    available_rules,
    minimum_probability,
)
from .adaptive import AdaptiveConfig, AdaptiveThreshold
from .categories import (
    DEFAULT_SCHEME,
    ELDER,
    NEWCOMER,
    OLD,
    PAPER_CATEGORIES,
    YOUNG,
    Category,
    CategoryScheme,
)
from .lifetime import (
    ParetoFit,
    SurvivalCurve,
    age_is_sufficient_statistic,
    conditional_remaining_curve,
    fit_pareto,
    kaplan_meier,
    rank_by_expected_remaining,
)
from .policy import POLICY_PRESETS, RepairPolicy, policy_by_name, scaled_threshold
from .selection import (
    SELECTION_STRATEGIES,
    AgeSelection,
    AvailabilitySelection,
    CandidatePool,
    OracleSelection,
    RandomSelection,
    SelectionStrategy,
    available_strategies,
    strategy_by_name,
)

__all__ = [
    "ACCEPTANCE_RULES",
    "available_rules",
    "DEFAULT_AGE_CAP",
    "AcceptancePolicy",
    "UniformAcceptancePolicy",
    "acceptance_probability",
    "acceptance_rule",
    "minimum_probability",
    "AdaptiveConfig",
    "AdaptiveThreshold",
    "DEFAULT_SCHEME",
    "ELDER",
    "NEWCOMER",
    "OLD",
    "PAPER_CATEGORIES",
    "YOUNG",
    "Category",
    "CategoryScheme",
    "ParetoFit",
    "SurvivalCurve",
    "age_is_sufficient_statistic",
    "conditional_remaining_curve",
    "fit_pareto",
    "kaplan_meier",
    "rank_by_expected_remaining",
    "POLICY_PRESETS",
    "RepairPolicy",
    "policy_by_name",
    "scaled_threshold",
    "SELECTION_STRATEGIES",
    "AgeSelection",
    "AvailabilitySelection",
    "CandidatePool",
    "OracleSelection",
    "RandomSelection",
    "SelectionStrategy",
    "available_strategies",
    "strategy_by_name",
]
