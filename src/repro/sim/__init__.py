"""Round-based peer-to-peer simulator (the PeerSim substitute)."""

from .config import PAPER_OBSERVERS, ObserverSpec, SimulationConfig
from .driver import SimulationDriver
from .engine import SimulationResult, run_simulation
from .events import Event, EventKind, EventQueue
from .fidelity import FIDELITY_BACKENDS, available_fidelities, simulation_for
from .protocol import ProtocolSimulation
from .metrics import CategoryCounters, MetricsCollector, SeriesPoint
from .network import Population, SampleableSet
from .observers import build_observer_peer, observer_table, scaled_observers
from .peer import ArchiveState, Peer
from .rng import STREAM_NAMES, RngStreams

__all__ = [
    "PAPER_OBSERVERS",
    "ObserverSpec",
    "SimulationConfig",
    "SimulationDriver",
    "SimulationResult",
    "ProtocolSimulation",
    "FIDELITY_BACKENDS",
    "available_fidelities",
    "simulation_for",
    "run_simulation",
    "Event",
    "EventKind",
    "EventQueue",
    "CategoryCounters",
    "MetricsCollector",
    "SeriesPoint",
    "Population",
    "SampleableSet",
    "build_observer_peer",
    "observer_table",
    "scaled_observers",
    "ArchiveState",
    "Peer",
    "RngStreams",
    "STREAM_NAMES",
]
