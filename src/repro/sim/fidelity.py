"""The fidelity-backend registry: how faithfully a run executes.

Every scenario in this repository is runnable at more than one
*fidelity* — the same churn trajectory, the same seeded RNG streams,
the same metrics surface, but a different answer to "what actually
happens when a peer repairs":

* ``abstract_soa`` (:class:`repro.sim.engine_soa.SoaSimulation`, the
  default) — peers are structure-of-arrays columns, repairs and
  placements are instantaneous state flips.  This is the engine the
  paper's quantitative claims are reproduced with, from the laptop
  presets up to 10^6-peer populations.
* ``protocol`` (:class:`repro.sim.protocol.ProtocolSimulation`, a
  subclass of the default engine over the same state tables) —
  repairs, recruitment and restores execute as real ``StoreRequest`` /
  ``FetchRequest`` exchanges over an in-memory transport, transfer
  completion is gated by the access-link bandwidth model, and the
  backup layer's fairness ledgers are enforced.

Backends register here exactly like every other component registry
(:mod:`repro.registry`): a backend is a ``config -> simulation``
callable whose result exposes ``run() -> SimulationResult``.  The
built-ins live in modules that import :mod:`repro.sim.config`, so the
registry resolves them lazily to keep imports acyclic.
"""

from __future__ import annotations

from ..registry import Registry

#: Registry of fidelity backends: name -> Simulation class (or any
#: ``config -> simulation`` factory).
FIDELITY_BACKENDS: Registry[type] = Registry("fidelity backend")


def _ensure_builtin_backends() -> None:
    """Import the modules that register the built-in backends."""
    from . import engine_soa, protocol  # noqa: F401  (import = registration)


def check_fidelity(name: str) -> None:
    """Validate a fidelity name, with the registry's rich error."""
    _ensure_builtin_backends()
    FIDELITY_BACKENDS.check(name)


def available_fidelities():
    """Names of all registered fidelity backends."""
    _ensure_builtin_backends()
    return FIDELITY_BACKENDS.names()


def simulation_for(config):
    """Instantiate the simulation backend ``config.fidelity`` names."""
    _ensure_builtin_backends()
    return FIDELITY_BACKENDS.get(config.fidelity)(config)
