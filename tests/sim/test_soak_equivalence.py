"""Soak lane: the golden digests at real default scale.

The tier-1 golden grid (``tests/golden/test_golden_results.py``) shrinks
every preset to seconds; this module runs the actual acceptance
workload at the ``default`` experiment scale, 800 peers over 14 000
rounds — the ``paper`` preset at the default fidelity, seeds 0-2, and
``paper`` plus the impaired ``lossy_dsl`` preset at ``protocol``, seed
0 — and requires the entire serialized result (minus its config) to
match the ``soak`` section of ``tests/golden/results.json``.  The
protocol cells reach the late transfer completions, retries and restore
probes that the 60 x 600 tier-1 protocol cells rarely exercise.  A
mismatch names the first diverging result key.

Marked both ``slow`` and ``soak``: the run costs minutes, so only the
dedicated CI soak lane (``-m soak``) executes it.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

pytestmark = [pytest.mark.slow, pytest.mark.soak]

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

spec = importlib.util.spec_from_file_location(
    "record_goldens", REPO_ROOT / "scripts" / "record_goldens.py"
)
record_goldens = importlib.util.module_from_spec(spec)
spec.loader.exec_module(record_goldens)

SOAK = record_goldens.load_goldens()["soak"]
CELLS = dict(record_goldens.soak_cells())


def test_soak_grid_matches_the_recorded_one():
    assert sorted(SOAK) == sorted(CELLS)


@pytest.mark.parametrize("key", sorted(CELLS))
def test_full_result_matches_at_default_scale(key):
    config = CELLS[key]
    assert (config.population, config.rounds) == (800, 14_000)
    expected = SOAK[key]
    actual = record_goldens.result_digests(config)
    if actual != expected:
        pytest.fail(f"{key}: {record_goldens.first_divergence(expected, actual)}")
