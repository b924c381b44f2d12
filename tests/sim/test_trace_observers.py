"""Tests for result export helpers and observer utilities."""

import pytest

from repro.sim.config import PAPER_OBSERVERS, ObserverSpec, SimulationConfig
from repro.sim.engine import run_simulation
from repro.sim.engine_soa import SoaSimulation
from repro.sim.observers import observer_table, scaled_observers
from repro.sim.trace import (
    category_loss_rows,
    observer_series_rows,
    rates_rows,
    result_summary,
    series_to_csv,
    threshold_sweep_rows,
)


@pytest.fixture(scope="module")
def result():
    config = SimulationConfig(
        population=60,
        rounds=500,
        data_blocks=8,
        parity_blocks=8,
        repair_threshold=10,
        quota=24,
        seed=2,
        observers=(ObserverSpec("Baby", 1),),
    )
    return run_simulation(config)


class TestObserverHelpers:
    def test_observer_table_wording(self):
        table = observer_table(PAPER_OBSERVERS)
        assert table["Elder"] == "3 month(s)"
        assert table["Senior"] == "1 month(s)"
        assert table["Adult"] == "1 week(s)"
        assert table["Teenager"] == "1 day(s)"
        assert table["Baby"] == "1 hour(s)"

    def test_scaled_observers_shrink(self):
        scaled = scaled_observers(0.5)
        by_name = {spec.name: spec.fixed_age for spec in scaled}
        assert by_name["Elder"] == 1080
        assert by_name["Baby"] == 1  # floored at one round

    def test_scaled_observers_validation(self):
        with pytest.raises(ValueError):
            scaled_observers(0)

    def test_build_observer_peer(self):
        """The engine builds each observer spec into a pinned, immortal peer."""
        config = SimulationConfig(
            population=4, rounds=10, observers=(ObserverSpec("Senior", 720),)
        )
        simulation = SoaSimulation(config)
        state = simulation.state
        assert state.n_observers == 1
        assert state.fixed_age[0] == 720
        assert state.death[0] is None
        assert state.observer_name[0] == "Senior"
        assert simulation._observer_name(0) == "Senior"
        assert simulation._age(0, 5_000) == 720
        assert simulation._online_pos[0] == -1  # never a candidate


class TestTraceExports:
    def test_result_summary_fields(self, result):
        summary = result_summary(result)
        assert summary["population"] == 60
        assert summary["k"] == 8
        assert summary["n"] == 16
        assert summary["total_repairs"] == result.metrics.total_repairs
        assert summary["wall_clock_seconds"] > 0

    def test_rates_rows_shape(self, result):
        rows = rates_rows(result)
        assert len(rows) == 4
        assert all(len(row) == 6 for row in rows)

    def test_series_to_csv(self):
        text = series_to_csv(["a", "b"], [[1, 2], [3, 4]])
        assert text == "a,b\n1,2\n3,4\n"

    def test_series_to_csv_validates(self):
        with pytest.raises(ValueError):
            series_to_csv(["a"], [[1, 2]])

    def test_observer_series_rows(self, result):
        rows = observer_series_rows(result, ["Baby"])
        assert rows, "sampled series must not be empty"
        assert all(len(row) == 2 for row in rows)
        # Cumulative: last >= first.
        assert rows[-1][1] >= rows[0][1]

    def test_category_loss_rows(self, result):
        rows = category_loss_rows(result)
        assert all(len(row) == 5 for row in rows)  # round + 4 categories

    def test_threshold_sweep_rows(self, result):
        header, rows = threshold_sweep_rows({10: result}, metric="repairs")
        assert header[0] == "threshold"
        assert rows[0][0] == 10
        assert len(rows[0]) == 5

    def test_threshold_sweep_rows_bad_metric(self, result):
        with pytest.raises(ValueError):
            threshold_sweep_rows({10: result}, metric="happiness")
