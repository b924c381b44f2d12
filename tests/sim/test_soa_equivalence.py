"""``abstract_soa`` reproduces the retired object-graph engine's results.

The golden digests in ``tests/golden/results.json`` were recorded from
the object-graph ``abstract`` engine, the default fidelity before
``abstract_soa`` replaced it; both engines agreed on every cell when the
file was written.  ``tests/golden/test_golden_results.py`` checks the
default engine as it runs at those sizes — the scalar toggle kernel.
This module forces the vectorised swarm-scale branch
(``_VECTOR_POPULATION = 1``) through the same default-fidelity cells,
so both kernel branches stay pinned to the recorded results of the
engine they replaced.  It also keeps the cache contract of the switch:
a default config serialises exactly as an ``abstract`` config did.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.exec import config_digest
from repro.scenarios import available_scenarios, scenario_by_name
from repro.sim.config import DEFAULT_FIDELITY
from repro.sim.engine import run_simulation
from repro.sim.engine_soa import SoaSimulation

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

spec = importlib.util.spec_from_file_location(
    "record_goldens", REPO_ROOT / "scripts" / "record_goldens.py"
)
record_goldens = importlib.util.module_from_spec(spec)
spec.loader.exec_module(record_goldens)

GOLDENS = record_goldens.load_goldens()
CELLS = dict(record_goldens.grid_cells())

#: ``config_digest`` of the shrunk ``paper`` preset at the default
#: fidelity, recorded while the default was still ``abstract``.
PINNED_SHRUNK_PAPER_DIGEST = (
    "fc7d5245e05b5d8ce0cf6db11185e79061e612c64bc8bf89cb19694ed4d94d83"
)


@pytest.fixture
def vector_kernel(monkeypatch):
    """Force the vectorised branch on micro populations."""
    monkeypatch.setattr(SoaSimulation, "_VECTOR_POPULATION", 1)


def _shrunk(name: str):
    return scenario_by_name(name).with_population(120).with_rounds(900)


@pytest.mark.parametrize("name", available_scenarios())
@pytest.mark.parametrize("seed", record_goldens.SEEDS)
def test_every_preset_matches_abstract(name, seed, vector_kernel):
    key = f"{name}/default/seed{seed}"
    expected = GOLDENS["cells"][key]
    actual = record_goldens.result_digests(CELLS[key])
    if actual != expected:
        pytest.fail(f"{key}: {record_goldens.first_divergence(expected, actual)}")


def test_full_result_dict_matches_on_paper_preset(monkeypatch):
    """Beyond the recorded seeds: both branches agree on the whole result."""
    config = _shrunk("paper").with_seed(7).build()
    scalar = run_simulation(config).to_dict()
    monkeypatch.setattr(SoaSimulation, "_VECTOR_POPULATION", 1)
    assert run_simulation(config).to_dict() == scalar


class TestDigestInvariant:
    """Default configs hash exactly as the ``abstract`` default did."""

    @pytest.mark.parametrize("name", available_scenarios())
    def test_abstract_configs_omit_fidelity_keys(self, name):
        config = scenario_by_name(name).with_fidelity(DEFAULT_FIDELITY).build()
        data = config.to_dict()
        for key in ("fidelity", "link_profile", "round_seconds",
                    "archive_bytes", "fairness_factor"):
            assert key not in data

    def test_abstract_digest_is_the_default_digest(self):
        """The default digest is the one the ``abstract`` default had."""
        scenario = _shrunk("paper")
        assert config_digest(scenario.build()) == PINNED_SHRUNK_PAPER_DIGEST
        assert config_digest(
            scenario.with_fidelity(DEFAULT_FIDELITY).build()
        ) == PINNED_SHRUNK_PAPER_DIGEST
