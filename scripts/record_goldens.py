#!/usr/bin/env python
"""Record the golden result digests in ``tests/golden/results.json``.

The goldens pin simulation behaviour: for every registered scenario
preset, seeds 0-2, at the default fidelity and at ``protocol``, the
file stores the SHA-256 of the run's canonical ``to_dict()`` without
its ``config`` block, plus one digest per result key, so a failing
comparison can name the first key that diverged.  A ``soak`` section
does the same at the default experiment scale (800 peers x 14 000
rounds): the ``paper`` preset at the default fidelity, seeds 0-2, plus
``paper`` and the impaired ``lossy_dsl`` preset at ``protocol``, seed 0
(late transfer completions, retries and restore probes that the small
tier-1 protocol cells rarely reach).  The opt-in soak lane checks it.

``tests/golden/test_golden_results.py`` recomputes the grid on every
tier-1 run; ``tests/sim/test_soak_equivalence.py`` recomputes the soak
section.  A digest may only change together with a
``CACHE_SCHEMA_VERSION`` bump (``repro/exec/cache.py``): this script
refuses to overwrite a changed digest unless the code's schema version
is greater than the one recorded in the file.

Usage::

    PYTHONPATH=src python scripts/record_goldens.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

from repro.exec.cache import CACHE_SCHEMA_VERSION, canonical_json
from repro.scenarios import available_scenarios, scenario_by_name
from repro.sim.config import DEFAULT_FIDELITY, SimulationConfig
from repro.sim.engine import run_simulation

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = REPO_ROOT / "tests" / "golden" / "results.json"

SEEDS = (0, 1, 2)

#: Grid label -> (fidelity, population, rounds).  The label, not the
#: backend name, keys the file, so the default cell keeps its key when
#: the default backend changes.
FIDELITY_CELLS = {
    "default": (DEFAULT_FIDELITY, 120, 900),
    "protocol": ("protocol", 60, 600),
}

#: The soak section at the default experiment scale: ``(scenario,
#: grid label, seeds)`` rows, keyed like the tier-1 grid.
SOAK_POPULATION = 800
SOAK_ROUNDS = 14_000
SOAK_GRID = (
    ("paper", "default", SEEDS),
    ("paper", "protocol", (0,)),
    ("lossy_dsl", "protocol", (0,)),
)


def _digest(payload: object, length: int = 64) -> str:
    data = canonical_json(payload).encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:length]


def result_digests(config: SimulationConfig) -> Dict[str, object]:
    """Run ``config``; digest its result minus ``config``, whole and per key."""
    result = run_simulation(config).to_dict()
    del result["config"]
    # Per-key digests only localise a mismatch; 64 bits is plenty.
    keys = {
        f"metrics.{name}": _digest(value, 16)
        for name, value in result["metrics"].items()
    }
    for name, value in result.items():
        if name != "metrics":
            keys[name] = _digest(value, 16)
    return {"result": _digest(result), "keys": dict(sorted(keys.items()))}


def grid_cells() -> Iterator[Tuple[str, SimulationConfig]]:
    """Every tier-1 golden cell as ``(key, config)``."""
    for name in available_scenarios():
        for label, (fidelity, population, rounds) in FIDELITY_CELLS.items():
            for seed in SEEDS:
                config = (
                    scenario_by_name(name)
                    .with_fidelity(fidelity)
                    .with_population(population)
                    .with_rounds(rounds)
                    .with_seed(seed)
                    .build()
                )
                yield f"{name}/{label}/seed{seed}", config


def soak_cells() -> Iterator[Tuple[str, SimulationConfig]]:
    """The soak-lane cells as ``(key, config)``."""
    for name, label, seeds in SOAK_GRID:
        fidelity = FIDELITY_CELLS[label][0]
        for seed in seeds:
            config = (
                scenario_by_name(name)
                .with_fidelity(fidelity)
                .with_population(SOAK_POPULATION)
                .with_rounds(SOAK_ROUNDS)
                .with_seed(seed)
                .build()
            )
            yield f"{name}/{label}/seed{seed}", config


def first_divergence(
    expected: Dict[str, object], actual: Dict[str, object]
) -> str:
    """Describe how ``actual`` digests differ from ``expected`` ones."""
    for key in sorted(set(expected["keys"]) | set(actual["keys"])):
        if expected["keys"].get(key) != actual["keys"].get(key):
            return f"first diverging key: {key}"
    return "per-key digests agree but the whole-result digest differs"


def load_goldens(path: Path = GOLDEN_PATH) -> Dict[str, object]:
    """The committed goldens file."""
    return json.loads(path.read_text())


def changed_cells(old: Dict[str, object], new: Dict[str, object]) -> List[str]:
    """Keys present in both files whose digests differ."""
    changed = []
    for section in ("cells", "soak"):
        before, after = old.get(section, {}), new[section]
        changed += [
            f"{section}:{key}"
            for key in sorted(before)
            if key in after and before[key] != after[key]
        ]
    return changed


def record(path: Path = GOLDEN_PATH) -> int:
    """Recompute every golden cell and write them to ``path``.

    Returns 1, leaving ``path`` untouched, when a recorded digest
    changed without a ``CACHE_SCHEMA_VERSION`` bump; 0 otherwise.
    """
    goldens = {
        "cache_schema_version": CACHE_SCHEMA_VERSION,
        "cells": {key: result_digests(config) for key, config in grid_cells()},
        "soak": {key: result_digests(config) for key, config in soak_cells()},
    }
    if path.exists():
        old = load_goldens(path)
        changed = changed_cells(old, goldens)
        if changed and CACHE_SCHEMA_VERSION <= old["cache_schema_version"]:
            print(
                f"refusing to overwrite {len(changed)} changed digest(s) "
                f"without a cache-schema bump (recorded and code version: "
                f"{old['cache_schema_version']} / {CACHE_SCHEMA_VERSION}); "
                "bump CACHE_SCHEMA_VERSION in repro/exec/cache.py:",
                file=sys.stderr,
            )
            for key in changed:
                print(f"  {key}", file=sys.stderr)
            return 1
    path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(
        f"wrote {len(goldens['cells'])} cells + {len(goldens['soak'])} "
        f"soak cells to {path}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(record())
