"""``abstract_soa`` reproduces the retired object-graph engine's results.

The golden digests in ``tests/golden/results.json`` were recorded from
the object-graph ``abstract`` engine, the default fidelity before
``abstract_soa`` replaced it; both engines agreed on every cell when the
file was written.  ``tests/golden/test_golden_results.py`` checks the
default engine as it runs at those sizes — the scalar toggle kernel.
This module forces the vectorised swarm-scale branch
(``_VECTOR_POPULATION = 1``) through the same default-fidelity cells,
so both kernel branches stay pinned to the recorded results of the
engine they replaced.  A few cells outside the grid pin recruitment
paths the grid never reaches — a data-needing strategy, large pools,
the baselines' uniform acceptance and a custom acceptance rule — on
both kernels.  It also keeps the cache contract of the switch: a default config
serialises exactly as an ``abstract`` config did.
"""

from __future__ import annotations

import hashlib
import importlib.util
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.core.acceptance import ACCEPTANCE_RULES, AcceptancePolicy
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


class _SubclassedAgeRule(AcceptancePolicy):
    """The paper's rule as a plain subclass, registered under a new name.

    Recruitment runs the ``accepts`` it inherits, so a rule resolved
    through the registry draws and decides exactly like the built-in.
    """


#: Registry name of :class:`_SubclassedAgeRule`, registered only while
#: an extra cell runs.
CUSTOM_RULE = "test-subclassed-age"


@contextmanager
def _custom_rule_registered():
    ACCEPTANCE_RULES.register(CUSTOM_RULE)(_SubclassedAgeRule)
    try:
        yield
    finally:
        ACCEPTANCE_RULES.unregister(CUSTOM_RULE)


#: Cells outside the golden grid -> (scenario factory, SHA-256 of the
#: canonical ``to_dict()`` minus ``config``).  ``oracle`` and ``code48``
#: were recorded with the CSR owners slab and pair-list recruitment the
#: owner matrix replaced; the other two were recorded with the scalar
#: pool fill that ``_fill_pool`` absorbed.  ``oracle`` fills the pool's
#: true-remaining-lifetime column (``_remaining``); ``code48`` (n = 96,
#: quota 1.5 x n) asks for pools of 64 or more; ``uniform-random`` is
#: the baselines' pairing (:mod:`repro.baselines.comparison`), which
#: takes no acceptance draws; ``custom-rule`` runs a registered subclass
#: of the paper's rule (the rule is the paper's, so its digest is the
#: plain ``paper`` cell's).
EXTRA_CELLS = {
    "oracle": (
        lambda: _shrunk("paper").with_selection("oracle").with_seed(0),
        "0d22e3a8b4aa08042503e52310f5c9fde2dd5ac71df8e81eac87b07490f9c31d",
    ),
    "code48": (
        lambda: _shrunk("paper").with_code(48, 48).with_quota(144).with_seed(0),
        "eb8f2b7ce4afc36747f7366b802b2c52e952cd3af739f36b521a25529e7a20d4",
    ),
    "uniform-random": (
        lambda: _shrunk("paper")
        .with_acceptance("uniform")
        .with_selection("random")
        .with_seed(0),
        "cae8829dc7a30d9b6d1a1356fb3d3d384f700682ee96d9526142b32b161ec912",
    ),
    "custom-rule": (
        lambda: _shrunk("paper").with_acceptance(CUSTOM_RULE).with_seed(0),
        "67288294e50983abf516a668705930e54d76ff608012e704b7866b4272ef36ba",
    ),
}


def _run_audited(config):
    simulation = SoaSimulation(config)
    result = simulation.run().to_dict()
    assert simulation.audit() == []
    return result


@pytest.mark.parametrize("name", sorted(EXTRA_CELLS))
def test_extra_cell_matches_on_both_kernels(name, monkeypatch):
    make_scenario, expected = EXTRA_CELLS[name]
    fills = []
    fill = SoaSimulation._fill_pool

    def counted(self, *args):
        fills.append(self._vector_kernel)
        return fill(self, *args)

    monkeypatch.setattr(SoaSimulation, "_fill_pool", counted)
    with _custom_rule_registered():
        config = make_scenario().build()
        scalar = _run_audited(config)
        assert False in fills, "the scalar kernel never ran the pool fill"
        monkeypatch.setattr(SoaSimulation, "_VECTOR_POPULATION", 1)
        assert _run_audited(config) == scalar
        assert True in fills, "the vector kernel never ran the pool fill"
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
