"""End-to-end tests of the figure drivers at a test-sized scale.

These are the executable versions of DESIGN.md section 8 ("expected
shapes"): each driver runs a miniature sweep and its shape check must
pass.
"""

import pytest

#: Miniature sweeps still cost tens of seconds each; the CI smoke lane
#: (-m "not slow") skips this module and the full tier-1 job runs it.
pytestmark = pytest.mark.slow

from repro.experiments.ablation_adaptive import (
    check_shape as check_a5,
    run_ablation_adaptive,
)
from repro.experiments.ablation_grace import run_ablation_grace
from repro.experiments.ablation_proactive import run_ablation_proactive
from repro.experiments.ablation_quota import run_ablation_quota
from repro.experiments.ablation_selection import (
    check_shape as check_a1,
    run_ablation_selection,
)
from repro.experiments.common import ExperimentScale
from repro.experiments.fidelity_compare import (
    check_shape as check_fidelity,
    run_fidelity_compare,
)
from repro.experiments.fig1_repairs_by_threshold import (
    check_shape as check_fig1,
    run_figure1,
)
from repro.experiments.fig2_losses_by_threshold import run_figure2
from repro.experiments.fig3_observer_repairs import (
    check_shape as check_fig3,
    run_figure3,
)
from repro.experiments.fig4_cumulative_losses import (
    check_shape as check_fig4,
    run_figure4,
)
from repro.sim.config import DEFAULT_FIDELITY

#: Smaller than QUICK: the test suite must stay fast.  The code width
#: stays at n = 32 (narrower codes lose the stratification signal in
#: placement luck) but the population, horizon and seed count shrink.
#: 240 peers is the floor where figure 3's age stratification stays
#: readable: below that, the observers' archives hover at the repair
#: threshold and single recruitment streaks dominate the totals.
TEST_SCALE = ExperimentScale(
    name="quick",  # reuse the lenient shape thresholds
    population=240,
    rounds=3000,
    data_blocks=16,
    parity_blocks=16,
    time_scale=0.12,
    seeds=(0, 1),
)


@pytest.fixture(scope="module")
def fig1_result():
    return run_figure1(scale=TEST_SCALE, paper_thresholds=(132, 148, 180))


@pytest.fixture(scope="module")
def fig3_result():
    return run_figure3(scale=TEST_SCALE)


class TestFigure1:
    def test_sweep_covers_mapped_thresholds(self, fig1_result):
        assert len(fig1_result.thresholds) >= 2

    def test_shape_checks_pass(self, fig1_result):
        assert check_fig1(fig1_result) == []

    def test_rates_increase_with_threshold(self, fig1_result):
        lowest = fig1_result.thresholds[0]
        highest = fig1_result.thresholds[-1]
        total_low = sum(
            fig1_result.rates[lowest][c].mean for c in fig1_result.categories
        )
        total_high = sum(
            fig1_result.rates[highest][c].mean for c in fig1_result.categories
        )
        assert total_high > total_low

    def test_render_produces_table_and_chart(self, fig1_result):
        text = fig1_result.render()
        assert "threshold" in text
        assert "legend:" in text


class TestFigure2:
    def test_runs_and_renders(self):
        result = run_figure2(scale=TEST_SCALE, paper_thresholds=(132, 180))
        assert "Figure 2" in result.render()
        for threshold in result.thresholds:
            for category in result.categories:
                assert result.rates[threshold][category].mean >= 0


class TestFigure3:
    def test_all_observers_present(self, fig3_result):
        assert set(fig3_result.observer_names) == {
            "Elder", "Senior", "Adult", "Teenager", "Baby",
        }

    def test_shape_checks_pass(self, fig3_result):
        assert check_fig3(fig3_result) == []

    def test_series_are_cumulative(self, fig3_result):
        for name, series in fig3_result.series().items():
            values = [v for _, v in series]
            assert values == sorted(values), name

    def test_render(self, fig3_result):
        assert "Baby" in fig3_result.render()


class TestFigure4:
    def test_runs_and_checks(self):
        result = run_figure4(scale=TEST_SCALE)
        assert check_fig4(result) == []
        finals = result.final_losses()
        assert set(finals) == set(result.categories)

    def test_series_non_negative(self):
        result = run_figure4(scale=TEST_SCALE)
        for series in result.series().values():
            assert all(v >= 0 for _, v in series)


class TestFidelityCompare:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fidelity_compare(scale=TEST_SCALE, seeds=(0,))

    def test_both_fidelities_present(self, result):
        assert set(result.by_fidelity) == {DEFAULT_FIDELITY, "protocol"}

    def test_shape_checks_pass(self, result):
        assert check_fidelity(result) == []

    def test_protocol_extras_reported(self, result):
        extras = result.protocol_extras()
        assert extras["transfers_completed"] > 0
        assert extras["messages_sent"] > 0

    def test_render_compares_side_by_side(self, result):
        text = result.render()
        assert DEFAULT_FIDELITY in text and "protocol" in text
        assert "protocol metric" in text
        assert "legend:" in text

    def test_csv_has_one_column_per_fidelity(self, result):
        header = result.to_csv().splitlines()[0]
        assert header == f"round,{DEFAULT_FIDELITY},protocol"


class TestAblations:
    def test_selection_ablation(self):
        result = run_ablation_selection(
            scale=TEST_SCALE, strategies=("age", "random"), seeds=(0,)
        )
        assert [o.strategy for o in result.outcomes] == ["age", "random"]
        assert check_a1(result) == []
        assert "A1" in result.render()

    def test_quota_ablation(self):
        result = run_ablation_quota(
            scale=TEST_SCALE, quota_factors=(1.0, 2.0), seeds=(0,)
        )
        rows = result.rows()
        assert len(rows) == 2
        # Tighter quota cannot make starvation rarer.
        starved_tight, starved_loose = rows[0][4], rows[1][4]
        assert starved_tight >= starved_loose
        assert "A2" in result.render()

    def test_grace_ablation(self):
        result = run_ablation_grace(scale=TEST_SCALE, graces=(0, 24), seeds=(0,))
        rows = result.rows()
        assert len(rows) == 2
        # A grace period can only reduce regenerated blocks.
        assert rows[1][2] <= rows[0][2]
        assert "A3" in result.render()

    def test_proactive_ablation(self):
        result = run_ablation_proactive(
            scale=TEST_SCALE, safety_factors=(0.0, 1.0), seeds=(0,)
        )
        rows = result.rows()
        assert len(rows) == 2
        assert result.estimated_rate > 0
        # Proactive top-ups cannot increase reactive repairs.
        assert rows[1][2] <= rows[0][2]
        assert "A4" in result.render()

    def test_adaptive_ablation(self):
        result = run_ablation_adaptive(scale=TEST_SCALE, seeds=(0,))
        rows = {row[0] for row in result.rows()}
        assert rows == {"static", "adaptive"}
        # At this miniature scale total losses are single-digit rare
        # events, so the static-vs-adaptive comparison needs slack; the
        # strict check runs at QUICK scale in bench_ablation_adaptive.
        assert check_a5(result, loss_tolerance=4.0) == []
        assert "A5" in result.render()
