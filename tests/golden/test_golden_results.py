"""Committed golden digests pin every preset's results.

``results.json`` holds, per registered scenario preset, seeds 0-2, at
the default fidelity and at ``protocol``, the SHA-256 of the canonical
``SimulationResult.to_dict()`` without its ``config`` block, plus one
digest per result key.  This module recomputes every cell; a mismatch
names the first diverging key.  Regenerate with
``PYTHONPATH=src python scripts/record_goldens.py`` — which refuses to
overwrite a changed digest unless ``CACHE_SCHEMA_VERSION`` was bumped.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.exec.cache import CACHE_SCHEMA_VERSION

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

spec = importlib.util.spec_from_file_location(
    "record_goldens", REPO_ROOT / "scripts" / "record_goldens.py"
)
record_goldens = importlib.util.module_from_spec(spec)
spec.loader.exec_module(record_goldens)

GOLDENS = record_goldens.load_goldens()
CELLS = dict(record_goldens.grid_cells())


def test_recorded_schema_version_matches_the_code():
    """Digests recorded under another cache schema are stale."""
    assert GOLDENS["cache_schema_version"] == CACHE_SCHEMA_VERSION


def test_grid_covers_every_registered_preset():
    """A new or removed preset must regenerate the goldens."""
    assert sorted(GOLDENS["cells"]) == sorted(CELLS)


@pytest.mark.parametrize("key", sorted(CELLS))
def test_cell_matches_golden(key):
    expected = GOLDENS["cells"][key]
    actual = record_goldens.result_digests(CELLS[key])
    if actual != expected:
        pytest.fail(f"{key}: {record_goldens.first_divergence(expected, actual)}")


class TestRecordScript:
    """The regeneration guard and the divergence report."""

    def test_first_divergence_names_the_first_differing_key(self):
        expected = {"result": "a", "keys": {"deaths": "1", "metrics.series": "2"}}
        actual = {"result": "b", "keys": {"deaths": "1", "metrics.series": "3"}}
        assert record_goldens.first_divergence(expected, actual) == (
            "first diverging key: metrics.series"
        )

    def test_changed_cells_ignores_added_and_removed_keys(self):
        old = {"cells": {"a": 1, "b": 2}, "soak": {"s": 1}}
        new = {"cells": {"a": 1, "c": 3}, "soak": {"s": 9}}
        assert record_goldens.changed_cells(old, new) == ["soak:s"]

    def test_refuses_a_changed_digest_without_a_schema_bump(
        self, tmp_path, monkeypatch
    ):
        stale = dict(GOLDENS, soak={"paper/default/seed0": {"result": "x"}})
        path = tmp_path / "results.json"
        path.write_text(record_goldens.json.dumps(stale))
        # Skip the (slow) simulations: only the guard is under test.
        monkeypatch.setattr(
            record_goldens, "result_digests", lambda config: {"result": "y"}
        )
        assert record_goldens.record(path) == 1
        assert record_goldens.json.loads(path.read_text()) == stale

    def test_overwrites_a_changed_digest_after_a_schema_bump(
        self, tmp_path, monkeypatch
    ):
        stale = dict(GOLDENS, soak={"paper/default/seed0": {"result": "x"}})
        path = tmp_path / "results.json"
        path.write_text(record_goldens.json.dumps(stale))
        monkeypatch.setattr(
            record_goldens, "result_digests", lambda config: {"result": "y"}
        )
        monkeypatch.setattr(
            record_goldens, "CACHE_SCHEMA_VERSION", CACHE_SCHEMA_VERSION + 1
        )
        assert record_goldens.record(path) == 0
        written = record_goldens.json.loads(path.read_text())
        assert written["cache_schema_version"] == CACHE_SCHEMA_VERSION + 1
        assert written["soak"]["paper/default/seed0"] == {"result": "y"}
