"""Round-based peer-to-peer simulator (the PeerSim substitute)."""

from .config import PAPER_OBSERVERS, ObserverSpec, SimulationConfig
from .engine import SimulationResult, run_simulation
from .events import EventKind, EventQueue
from .fidelity import FIDELITY_BACKENDS, available_fidelities, simulation_for
from .protocol import ProtocolSimulation
from .metrics import CategoryCounters, MetricsCollector, SeriesPoint
from .observers import observer_table, scaled_observers
from .rng import STREAM_NAMES, RngStreams

__all__ = [
    "PAPER_OBSERVERS",
    "ObserverSpec",
    "SimulationConfig",
    "SimulationResult",
    "ProtocolSimulation",
    "FIDELITY_BACKENDS",
    "available_fidelities",
    "simulation_for",
    "run_simulation",
    "EventKind",
    "EventQueue",
    "CategoryCounters",
    "MetricsCollector",
    "SeriesPoint",
    "observer_table",
    "scaled_observers",
    "RngStreams",
    "STREAM_NAMES",
]
