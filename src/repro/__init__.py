"""repro — reproduction of Bernard & Le Fessant, "Optimizing peer-to-peer
backup using lifetime estimations" (Damap'09 / EDBT workshops, 2009).

The public API has four layers:

* :mod:`repro.core` — the paper's contribution: the acceptation function,
  age categories, lifetime estimation, partner-selection strategies and
  the threshold-repair policy;
* :mod:`repro.sim` — the round-based simulator used for the evaluation;
* :mod:`repro.churn`, :mod:`repro.net`, :mod:`repro.backup` — the
  substrates (churn models, transport/cost/impairment, and the per-peer
  block stores and fairness ledgers of the protocol fidelity; the
  paper's Reed-Solomon code enters only through its (k, n) counts);
* :mod:`repro.experiments` — drivers regenerating every figure and table.

Quick start::

    from repro import SimulationConfig, run_simulation

    result = run_simulation(SimulationConfig.scaled(population=300, rounds=2000))
    print(result.repair_rates())
"""

from .core import (
    AcceptancePolicy,
    AgeSelection,
    CandidatePool,
    RepairPolicy,
    acceptance_probability,
    fit_pareto,
    scaled_threshold,
    strategy_by_name,
)
from .net import CostModel, paper_cost_table
from .registry import Registry, UnknownComponentError
from .scenarios import (
    Scenario,
    available_scenarios,
    register_scenario,
    scenario_by_name,
)
from .sim import (
    FIDELITY_BACKENDS,
    PAPER_OBSERVERS,
    ObserverSpec,
    ProtocolSimulation,
    SimulationConfig,
    SimulationResult,
    available_fidelities,
    run_simulation,
)

__version__ = "1.0.0"

__all__ = [
    "AcceptancePolicy",
    "AgeSelection",
    "CandidatePool",
    "RepairPolicy",
    "acceptance_probability",
    "fit_pareto",
    "scaled_threshold",
    "strategy_by_name",
    "Registry",
    "UnknownComponentError",
    "Scenario",
    "available_scenarios",
    "register_scenario",
    "scenario_by_name",
    "CostModel",
    "paper_cost_table",
    "FIDELITY_BACKENDS",
    "PAPER_OBSERVERS",
    "ObserverSpec",
    "ProtocolSimulation",
    "SimulationConfig",
    "SimulationResult",
    "available_fidelities",
    "run_simulation",
    "__version__",
]
