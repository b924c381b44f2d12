"""Run results and the one-shot entry point every caller goes through.

:class:`SimulationResult` is what a finished run exposes to experiments,
the sweep executor's cache and the tests, whichever backend produced
it.  :func:`run_simulation` builds the backend ``config.fidelity``
names in :data:`repro.sim.fidelity.FIDELITY_BACKENDS` and runs it:

* ``abstract_soa`` (:mod:`repro.sim.engine_soa`, the default) — peers
  are state-table columns and repairs execute as instantaneous state
  flips; the engine behind every figure;
* ``protocol`` (:mod:`repro.sim.protocol`) — repairs execute as real
  message exchanges gated by the bandwidth model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .config import SimulationConfig
from .metrics import MetricsCollector


@dataclass
class SimulationResult:
    """Everything a finished run exposes to experiments and tests."""

    config: SimulationConfig
    metrics: MetricsCollector
    final_round: int
    wall_clock_seconds: float
    peers_created: int
    deaths: int

    def repair_rates(self) -> Dict[str, float]:
        """Figure 1's y-values: repairs per round per 1000 peers, by category."""
        return {
            name: self.metrics.repair_rate_per_1000(name)
            for name in self.metrics.by_category
        }

    def loss_rates(self) -> Dict[str, float]:
        """Figure 2's y-values: losses per round per 1000 peers, by category."""
        return {
            name: self.metrics.loss_rate_per_1000(name)
            for name in self.metrics.by_category
        }

    def observer_totals(self) -> Dict[str, int]:
        """Figure 3's endpoints: total repairs per observer."""
        return dict(self.metrics.observer_repairs)

    def to_dict(self) -> Dict[str, object]:
        """Stable plain-data form (JSON-safe) of the run's canonical content.

        ``wall_clock_seconds`` is deliberately excluded: it is a transient
        measurement of the machine, not of the simulation, and its
        exclusion is what makes serialized results byte-identical across
        executor backends and cache round trips.
        """
        return {
            "config": self.config.to_dict(),
            "metrics": self.metrics.to_dict(),
            "final_round": self.final_round,
            "peers_created": self.peers_created,
            "deaths": self.deaths,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SimulationResult":
        """Rebuild a result from :meth:`to_dict` output (wall clock reads 0)."""
        return cls(
            config=SimulationConfig.from_dict(data["config"]),
            metrics=MetricsCollector.from_dict(data["metrics"]),
            final_round=data["final_round"],
            wall_clock_seconds=0.0,
            peers_created=data["peers_created"],
            deaths=data["deaths"],
        )


def run_simulation(config: SimulationConfig) -> SimulationResult:
    """Build and run the backend ``config.fidelity`` selects, one shot."""
    from .fidelity import simulation_for

    return simulation_for(config).run()
