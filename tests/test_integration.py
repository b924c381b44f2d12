"""Cross-module integration tests.

These tie the layers together: the simulator against the analytic churn
model, the public API surface, and the examples as executable
documentation.
"""

import math
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.baselines.proactive import estimate_churn, measured_churn
from repro.churn.profiles import PAPER_PROFILES
from repro.sim.config import SimulationConfig
from repro.sim.engine import run_simulation
from repro.sim.engine_soa import SoaSimulation

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


class TestPublicApi:
    def test_top_level_exports(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_quickstart_snippet_from_readme(self):
        result = repro.run_simulation(
            repro.SimulationConfig.scaled(population=60, rounds=400, seed=0)
        )
        rates = result.repair_rates()
        assert set(rates) == {
            "Newcomers", "Young peers", "Old peers", "Elder peers",
        }


class TestSimulatorVsAnalyticChurn:
    def test_measured_death_rate_matches_profile_mix(self):
        """The engine's churn must agree with the closed-form estimate."""
        config = SimulationConfig(
            population=400,
            rounds=4000,
            data_blocks=8,
            parity_blocks=8,
            repair_threshold=10,
            quota=24,
            seed=1,
        )
        result = run_simulation(config)
        peer_rounds = config.population * config.rounds
        measured = measured_churn(result.deaths, peer_rounds, config.total_blocks)
        analytic = estimate_churn(PAPER_PROFILES, config.total_blocks)
        # The uniform-lifetime mixture is not exactly exponential, and the
        # population starts synchronised, so allow a generous band.
        ratio = (
            measured.departure_rate_per_peer / analytic.departure_rate_per_peer
        )
        assert 0.4 < ratio < 2.5

    def test_profile_mix_respected_in_population(self):
        config = SimulationConfig(
            population=600, rounds=200, data_blocks=8, parity_blocks=8,
            repair_threshold=10, quota=24, seed=2,
        )
        simulation = SoaSimulation(config)
        simulation.run()
        state = simulation.state
        counts = {}
        for peer_id in range(state.n_observers, state.count):
            if state.alive[peer_id]:
                name = config.profiles[state.profile[peer_id]].name
                counts[name] = counts.get(name, 0) + 1
        total = sum(counts.values())
        # Short horizon: the alive mix still tracks the draw mix.
        assert counts["Erratic"] / total == pytest.approx(0.35, abs=0.08)
        assert counts["Durable"] / total == pytest.approx(0.10, abs=0.06)


class TestLongRunConsistency:
    def test_audit_clean_across_knob_matrix(self):
        """Every knob combination must keep the incremental state exact."""
        for knobs in (
            dict(grace_rounds=24),
            dict(proactive_rate=0.02),
            dict(adaptive_thresholds=True),
            dict(acceptance_rule="uniform", selection_strategy="random"),
            dict(staggered_join_rounds=150),
        ):
            config = SimulationConfig(
                population=70,
                rounds=900,
                data_blocks=8,
                parity_blocks=8,
                repair_threshold=10,
                quota=24,
                seed=4,
                **knobs,
            )
            simulation = SoaSimulation(config)
            simulation.run()
            assert simulation.audit() == [], f"violations under {knobs}"

    def test_conservation_of_blocks(self):
        """Sum of hosted blocks equals sum of holder links."""
        config = SimulationConfig(
            population=100, rounds=1500, data_blocks=8, parity_blocks=8,
            repair_threshold=10, quota=24, seed=5,
        )
        simulation = SoaSimulation(config)
        simulation.run()
        state = simulation.state
        alive = [peer_id for peer_id in range(state.count) if state.alive[peer_id]]
        hosted = sum(state.quota_used[peer_id] for peer_id in alive)
        held = sum(
            len(state.holders[peer_id])
            for peer_id in alive
            if peer_id >= state.n_observers
        )
        assert hosted == held
        assert hosted == sum(len(state.owners_row(peer_id)) for peer_id in alive)


@pytest.mark.slow
@pytest.mark.parametrize(
    "script",
    ["home_backup.py", "churn_explorer.py"],
)
def test_examples_run_clean(script):
    """The fast examples are executable documentation: they must pass."""
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip()


@pytest.mark.slow
def test_observer_example_runs_clean():
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES / "observer_study.py"), "--scale", "quick"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    assert "Baby" in completed.stdout


def test_math_of_scaling_is_self_consistent():
    """The quick preset's dimensionless ratios equal the paper's."""
    from repro.experiments.common import FULL, QUICK

    paper = FULL.config()
    quick = QUICK.config()
    assert paper.data_blocks / paper.total_blocks == pytest.approx(
        quick.data_blocks / quick.total_blocks
    )
    assert paper.quota / paper.total_blocks == pytest.approx(
        quick.quota / quick.total_blocks
    )
    paper_slack = (paper.repair_threshold - paper.data_blocks) / (
        paper.total_blocks - paper.data_blocks
    )
    quick_slack = (quick.repair_threshold - quick.data_blocks) / (
        quick.total_blocks - quick.data_blocks
    )
    assert math.isclose(paper_slack, quick_slack, abs_tol=0.05)
