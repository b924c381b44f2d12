#!/usr/bin/env python
"""Scenario lab: compose, register and sweep custom workloads.

Demonstrates the registry + `Scenario` builder API introduced by the
composition redesign: build a workload by chaining named components,
register your own churn mix and selection strategy without touching any
core module, and sweep several scenarios as one cached experiment axis.

Run:  PYTHONPATH=src python examples/scenario_lab.py
"""

import numpy as np

from repro.churn.profiles import Profile, register_mix
from repro.core.selection import SELECTION_STRATEGIES, SelectionStrategy
from repro.exec import ExperimentSpec, SweepExecutor
from repro.scenarios import Scenario, register_scenario, scenario_by_name


@SELECTION_STRATEGIES.register("middle_aged")
class MiddleAgedSelection(SelectionStrategy):
    """A deliberately contrarian strategy: prefer the median ages.

    Old peers are already heavily loaded under age selection; this
    strategy spreads blocks over the middle of the stability spectrum.
    """

    name = "middle_aged"

    def order(self, pool, rng):
        # Pool positions, closest to the median age first; lexsort's
        # primary key is the last one, a random jitter breaks ties.
        jitter = rng.random(len(pool.ids))
        median = np.sort(pool.ages)[len(pool.ages) // 2] if len(pool.ages) else 0
        return np.lexsort((jitter, np.abs(pool.ages - median)))


def main() -> None:
    # 1. A custom churn mix, registered under a stable name.
    register_mix("lab_bimodal", (
        Profile("Rock", 0.25, None, 0.92, mean_online_session=240.0),
        Profile("Flit", 0.75, (48, 480), 0.45, mean_online_session=8.0),
    ))

    # 2. A scenario composed from registered parts — and registered
    #    itself, so `repro-experiments run --scenario lab` would work too.
    lab = (
        Scenario.scaled(population=300, rounds=2500)
        .named("lab", "bimodal churn under middle-aged selection")
        .with_churn("lab_bimodal")
        .with_selection("middle_aged")
        .with_seed(7)
    )
    register_scenario(lab)

    print(lab.describe())
    result = lab.run()
    print(f"-> repairs={result.metrics.total_repairs} "
          f"losses={result.metrics.total_losses} deaths={result.deaths}\n")

    # 3. Sweep shipped presets against it through the cached executor.
    names = ["flash_crowd", "slow_decay", "lab"]
    shrunk = []
    for name in names:
        scenario = (
            scenario_by_name(name)
            .with_population(200)
            .with_rounds(1500)
            .named(f"lab-sweep-{name}")
        )
        register_scenario(scenario)
        shrunk.append(scenario.name)

    spec = ExperimentSpec.from_scenarios(shrunk, seeds=(0, 1), name="lab-sweep")
    sweep = SweepExecutor(workers=1).run(spec)
    print("scenario sweep (means over 2 seeds):")
    for name, results in sweep.by_axis("scenario").items():
        repairs = sum(r.metrics.total_repairs for r in results) / len(results)
        losses = sum(r.metrics.total_losses for r in results) / len(results)
        print(f"  {name:>24}: repairs={repairs:8.1f} losses={losses:6.2f}")


if __name__ == "__main__":
    main()
