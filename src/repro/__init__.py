"""repro — reproduction of Bernard & Le Fessant, "Optimizing peer-to-peer
backup using lifetime estimations" (Damap'09 / EDBT workshops, 2009).

The public API has four layers:

* :mod:`repro.core` — the paper's contribution: the acceptation function,
  age categories, lifetime estimation, partner-selection strategies and
  the threshold-repair policy;
* :mod:`repro.sim` — the round-based simulator used for the evaluation;
* :mod:`repro.erasure`, :mod:`repro.churn`, :mod:`repro.net`,
  :mod:`repro.backup` — the substrates (Reed-Solomon coding, churn
  models, transport/cost/impairment, and the per-peer block stores and
  fairness ledgers of the protocol fidelity);
* :mod:`repro.experiments` — drivers regenerating every figure and table.

Quick start::

    from repro import SimulationConfig, run_simulation

    result = run_simulation(SimulationConfig.scaled(population=300, rounds=2000))
    print(result.repair_rates())
"""

# Dependency-free layers first: the registries and the erasure substrate
# import (and work) without numpy.
from .erasure import ArchiveCodec, ReedSolomonCode
from .registry import Registry, UnknownComponentError

try:
    from .core import (
        AcceptancePolicy,
        AgeSelection,
        Candidate,
        RepairPolicy,
        acceptance_probability,
        fit_pareto,
        scaled_threshold,
        strategy_by_name,
    )
    from .net import CostModel, paper_cost_table
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
except ImportError as _exc:  # pragma: no cover - exercised with numpy blocked
    # numpy is missing: the simulator, scenarios and analysis layers are
    # unavailable, but the erasure codec (with its pure-python matrix
    # backend) and the registry machinery still work.  Any other import
    # failure is a real bug and must surface.
    if _exc.name != "numpy" and not (_exc.name or "").startswith("numpy."):
        raise

__version__ = "1.0.0"

_ALL_CANDIDATES = [
    "AcceptancePolicy",
    "AgeSelection",
    "Candidate",
    "RepairPolicy",
    "acceptance_probability",
    "fit_pareto",
    "scaled_threshold",
    "strategy_by_name",
    "ArchiveCodec",
    "ReedSolomonCode",
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

#: Only names that actually bound (the simulator layer is absent in the
#: numpy-free degraded mode, and star imports must stay valid there).
__all__ = [name for name in _ALL_CANDIDATES if name in globals()]
