"""The four end-to-end workloads: what each one runs, and why.

Each workload stresses a different set of layers, so that an
optimisation of one layer has a workload that exercises it and one
that bypasses it (where the prediction is "no change"):

* ``paper-default`` — the ``paper`` preset at the default experiment
  scale on ``abstract_soa``: the scalar toggle kernel and small-pool
  recruitment dominate; no transport, no executor.
* ``swarm-60k`` — 60,000 peers joining over 120 rounds: above the
  engine's vector cut-over, so the vectorised toggle branch, the array
  pool fill and the CSR owners slab run; peak RSS tracks state layout.
* ``protocol-default`` — the same scale at ``protocol`` fidelity: the
  only workload that reaches ``net/`` (transport, link scheduler) and
  the holder-side block store.
* ``all-quick`` — ``repro-experiments all --scale quick`` on a
  two-process pool, cold cache then warm: executor, cache and reducers.

``--smoke`` sizes are tiny versions of the same code paths, for the
test suite; they are never timed against each other.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Sample plan: ``name -> (full-run samples per seed, seed offsets)``.
#: A run at seed ``S`` samples seeds ``S + offset``, each at least once.
#: One 800-peer trajectory is a narrow sample of its workload: its cost
#: moves by about 5% (standard deviation) from seed to seed, so the
#: 800-peer workloads average several seeds; ``protocol-default`` only
#: two, as each of its samples takes several seconds.  Larger workloads
#: average enough churn within one run.
PLAN: Dict[str, Tuple[int, Tuple[int, ...]]] = {
    "paper-default": (5, (0, 1, 2)),
    "swarm-60k": (5, (0,)),
    "protocol-default": (3, (0, 1)),
    "all-quick": (3, (0,)),
}

WORKLOADS: Tuple[str, ...] = tuple(PLAN)

#: ``name -> (population, rounds, staggered join rounds, fidelity)``
#: for the simulation workloads, full size and ``--smoke`` size.
_SIMULATIONS = {
    "paper-default": ((800, 14_000, 0, "abstract_soa"), (80, 600, 0, "abstract_soa")),
    "swarm-60k": ((60_000, 480, 120, "abstract_soa"), (2_000, 60, 12, "abstract_soa")),
    "protocol-default": ((800, 14_000, 0, "protocol"), (80, 600, 0, "protocol")),
}

#: Process-pool size of the sweep workload (the container's ``nproc``).
SWEEP_WORKERS = 2


def is_simulation(name: str) -> bool:
    """Whether ``name`` is one simulation run (else the CLI sweep)."""
    return name in _SIMULATIONS


def seed_for(name: str, seed: int, index: int) -> int:
    """The seed of the ``index``-th sample of a workload run at ``seed``."""
    offsets = PLAN[name][1]
    return seed + offsets[index % len(offsets)]


def simulation_config(name: str, seed: int, smoke: bool = False):
    """The :class:`SimulationConfig` of one simulation workload."""
    from repro.scenarios import scenario_by_name

    population, rounds, staggered, fidelity = _SIMULATIONS[name][1 if smoke else 0]
    scenario = (
        scenario_by_name("paper")
        .with_population(population)
        .with_rounds(rounds)
        .with_fidelity(fidelity)
        .with_seed(seed)
    )
    if staggered:
        scenario = scenario.with_staggered_join(staggered)
    return scenario.build()


def sweep_argv(seed: int, cache_dir: str, smoke: bool = False) -> List[str]:
    """``repro-experiments`` arguments of the ``all-quick`` workload.

    One seed, not two: a cold pass over two seeds takes about a minute
    on two cores, too long to repeat within one benchmark run.  The
    smoke size regenerates one figure (one cell) instead of all.
    ``--no-check`` because the figures' shape checks are statistical:
    with one seed at quick scale some seeds fail them, which is a
    property of the sample, not an error of the program.
    """
    return [
        "fig4" if smoke else "all",
        "--scale",
        "quick",
        "--seeds",
        str(seed),
        "--no-check",
        "--workers",
        str(SWEEP_WORKERS),
        "--cache-dir",
        cache_dir,
    ]
