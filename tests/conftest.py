"""Shared fixtures for the test suite.

Simulation fixtures are deliberately tiny (hundreds of peers, thousands
of rounds at most) so the whole suite stays fast; the benchmark harness
owns the larger runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.config import SimulationConfig
from repro.sim.engine_soa import SoaSimulation
from repro.sim.observers import scaled_observers


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic numpy generator."""
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_config() -> SimulationConfig:
    """A seconds-scale simulation config with small code parameters."""
    return SimulationConfig.scaled(
        population=120,
        rounds=1200,
        data_blocks=8,
        parity_blocks=8,
        seed=7,
    )


@pytest.fixture
def tiny_observer_config() -> SimulationConfig:
    """Tiny config with time-scaled observers planted."""
    return SimulationConfig.scaled(
        population=120,
        rounds=1200,
        data_blocks=8,
        parity_blocks=8,
        seed=7,
        observers=scaled_observers(0.05),
    )


@pytest.fixture
def finished_simulation(tiny_config) -> SoaSimulation:
    """A completed tiny simulation (shared by metric/consistency tests)."""
    simulation = SoaSimulation(tiny_config)
    simulation.run()
    return simulation

