"""``abstract_soa`` reproduces the retired object-graph engine's results.

The golden digests in ``tests/golden/results.json`` were recorded from
the object-graph ``abstract`` engine, the default fidelity before
``abstract_soa`` replaced it; both engines agreed on every cell when the
file was written.  ``tests/golden/test_golden_results.py`` checks the
default engine as it runs at those sizes — the scalar toggle kernel.
This module forces the vectorised swarm-scale branch
(``_VECTOR_POPULATION = 1``) through the same default-fidelity cells,
so both kernel branches stay pinned to the recorded results of the
engine they replaced.  A few cells outside the grid pin paths the grid
never reaches — a data-needing strategy under the vector kernel, and
the array pool fill under the scalar kernel (pools of 64 or more).  It
also keeps the cache contract of the switch: a default config
serialises exactly as an ``abstract`` config did.
"""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

import pytest

from repro.exec import config_digest
from repro.exec.cache import canonical_json
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
#: fidelity.  Recorded while the default was still ``abstract`` (cache
#: schema 2: ``fc7d5245...``) and re-pinned by the schema-3 bump, which
#: changed only the schema field of the hashed payload.
PINNED_SHRUNK_PAPER_DIGEST = (
    "f42fbac9682e22907c5c67e8e170c30c7b7a3c007475a26db7c0da19f73083ac"
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


#: Cells outside the golden grid -> (config, SHA-256 of the canonical
#: ``to_dict()`` minus ``config``), the digests recorded with the CSR
#: owners slab and pair-list recruitment the owner matrix replaced.
#: ``oracle`` drives ``_fill_pool_small`` plus ``_describe_candidate``
#: (Candidate descriptors); ``code48`` (n = 96, quota 1.5 x n) asks for
#: pools of 64 or more, so the scalar kernel also runs the array fill
#: ``_fill_pool_fast``.
EXTRA_CELLS = {
    "oracle": (
        _shrunk("paper").with_selection("oracle").with_seed(0),
        "0d22e3a8b4aa08042503e52310f5c9fde2dd5ac71df8e81eac87b07490f9c31d",
    ),
    "code48": (
        _shrunk("paper").with_code(48, 48).with_quota(144).with_seed(0),
        "eb8f2b7ce4afc36747f7366b802b2c52e952cd3af739f36b521a25529e7a20d4",
    ),
}


def _run_audited(config):
    simulation = SoaSimulation(config)
    result = simulation.run().to_dict()
    assert simulation.audit() == []
    return result


@pytest.mark.parametrize("name", sorted(EXTRA_CELLS))
def test_extra_cell_matches_on_both_kernels(name, monkeypatch):
    scenario, expected = EXTRA_CELLS[name]
    config = scenario.build()
    fast_fills = []
    fill = SoaSimulation._fill_pool_fast

    def counted(self, *args):
        fast_fills.append(self._vector_kernel)
        return fill(self, *args)

    monkeypatch.setattr(SoaSimulation, "_fill_pool_fast", counted)
    scalar = _run_audited(config)
    if name == "code48":
        assert False in fast_fills, "the scalar kernel never ran the array fill"
    monkeypatch.setattr(SoaSimulation, "_VECTOR_POPULATION", 1)
    assert _run_audited(config) == scalar
    del scalar["config"]
    digest = hashlib.sha256(canonical_json(scalar).encode("utf-8")).hexdigest()
    assert digest == expected


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
