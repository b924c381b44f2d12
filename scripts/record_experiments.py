#!/usr/bin/env python
"""Run the recorded experiment suite and dump raw results for EXPERIMENTS.md.

Default scale, every figure and ablation, all through one
:class:`~repro.exec.SweepExecutor`: the whole suite is planned up front,
so ``--workers N`` runs every simulation cell in one process-pool pass,
figures 1 and 2 (identical threshold sweeps) cost one set of
simulations through the executor's cell memo, and the on-disk result
cache means re-running the script only simulates what changed.  Output
is plain text on stdout.
"""

import argparse
import time

from repro.exec import ResultCache, SweepExecutor, run_experiment
from repro.experiments.runner import _positive_int
from repro.experiments.ablation_adaptive import (
    ablation_adaptive_spec,
    check_shape as check_a5,
)
from repro.experiments.ablation_grace import ablation_grace_spec
from repro.experiments.ablation_proactive import ablation_proactive_spec
from repro.experiments.ablation_quota import ablation_quota_spec
from repro.experiments.ablation_selection import (
    ablation_selection_spec,
    check_shape as check_a1,
)
from repro.experiments.common import DEFAULT
from repro.experiments.fig1_repairs_by_threshold import (
    check_shape as check_fig1,
    figure1_spec,
)
from repro.experiments.fig2_losses_by_threshold import (
    check_shape as check_fig2,
    figure2_spec,
)
from repro.experiments.fig3_observer_repairs import (
    check_shape as check_fig3,
    figure3_spec,
)
from repro.experiments.fig4_cumulative_losses import (
    check_shape as check_fig4,
    figure4_spec,
)

#: The suite in print order: (banner, label, spec builder, seeds, shape
#: check).  Empty seeds mean the scale's own; F2 repeats F1's cells, so
#: the executor's memo serves it without a simulation, cache or no cache.
SUITE = (
    ("F1 — threshold sweep, repairs", "fig1", figure1_spec, (), check_fig1),
    ("F2 — threshold sweep, losses", "fig2", figure2_spec, (), check_fig2),
    ("F3 — observers", "fig3", figure3_spec, (), check_fig3),
    ("F4 — cumulative losses", "fig4", figure4_spec, (), check_fig4),
    ("A1 — selection strategies", "a1", ablation_selection_spec, (0,),
     check_a1),
    ("A2 — quota", "a2", ablation_quota_spec, (0,), None),
    ("A3 — grace", "a3", ablation_grace_spec, (0,), None),
    ("A4 — proactive", "a4", ablation_proactive_spec, (0,), None),
    ("A5 — adaptive thresholds", "a5", ablation_adaptive_spec, (0,),
     check_a5),
)


def banner(title):
    print(f"\n{'=' * 70}\n{title}\n{'=' * 70}", flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=_positive_int, default=1,
                        help="concurrent simulation cells (process pool)")
    parser.add_argument("--cache-dir", default=".repro-cache",
                        help="on-disk result cache directory")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the result cache")
    args = parser.parse_args()

    started = time.time()
    scale = DEFAULT
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    executor = SweepExecutor(workers=args.workers, cache=cache)
    specs = [build(scale, seeds=seeds) for _, _, build, seeds, _ in SUITE]
    # The first run executes every cell of the suite in one pass.
    executor.plan(specs)
    for (title, label, _, _, check), spec in zip(SUITE, specs):
        banner(title)
        artifact = run_experiment(spec, executor)
        print(artifact.render(), flush=check is None)
        if check is not None:
            print(f"{label} shape:", check(artifact) or "OK", flush=True)

    stats = executor.stats
    print(f"\n[executor] {stats.cells} cells: {stats.simulated} simulated, "
          f"{stats.cache_hits} from cache ({args.workers} worker(s))")
    print(f"total wall clock: {time.time() - started:.0f}s")


if __name__ == "__main__":
    main()
