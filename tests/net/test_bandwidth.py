"""Tests for the section 2.2.4 cost model — pinned to the paper's numbers —
and the link scheduler the protocol fidelity backend gates transfers with."""

import dataclasses

import pytest

from repro.net.bandwidth import (
    FTTH,
    KILOBYTE,
    LINK_PROFILES,
    MEGABYTE,
    MODERN_DSL,
    PAPER_DSL,
    CostModel,
    LinkProfile,
    LinkScheduler,
    paper_cost_table,
)


class TestLinkProfiles:
    def test_paper_dsl_rates(self):
        assert PAPER_DSL.download_bps == 256 * KILOBYTE
        assert PAPER_DSL.upload_bps == 32 * KILOBYTE

    def test_modern_dsl_is_four_times_faster(self):
        assert MODERN_DSL.download_bps == 4 * PAPER_DSL.download_bps
        assert MODERN_DSL.upload_bps == 4 * PAPER_DSL.upload_bps

    def test_ftth_symmetric(self):
        assert FTTH.download_bps == FTTH.upload_bps

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkProfile(download_bps=0, upload_bps=1)


class TestCostModel:
    def test_block_size_is_one_megabyte(self):
        model = CostModel()
        assert model.block_size == MEGABYTE

    def test_download_exceeds_512_seconds(self):
        """The paper: delta_download > 512 s on the reference DSL."""
        cost = CostModel().repair_cost(regenerated_blocks=0)
        assert cost.download_seconds == pytest.approx(512.0)

    def test_upload_is_32_seconds_per_block(self):
        """The paper: delta_upload > d x 32 s."""
        model = CostModel()
        one = model.repair_cost(1).upload_seconds
        assert one == pytest.approx(32.0)

    def test_worst_case_repair_is_77_minutes(self):
        """The paper: 'a total repair time should last 69+8 = 77 minutes'."""
        cost = CostModel().repair_cost(regenerated_blocks=128)
        assert cost.total_minutes == pytest.approx(76.8, abs=0.5)
        # Upload dominates ('most of which is taken by the upload').
        assert cost.upload_seconds > cost.download_seconds

    def test_max_repairs_per_day_about_20(self):
        """The paper: 'no more than 20 repair operations per day'."""
        per_day = CostModel().max_repairs_per_day(128)
        assert 18 <= per_day <= 20

    def test_32_archives_need_monthly_repair_rate(self):
        """The paper: with 32 archives and a one-repair-per-day budget,
        'the repair rate should be less than one per month approximatively'."""
        model = CostModel()
        budget = 1.0 / model.max_repairs_per_day(128)  # one repair/day of link
        rate = model.feasible_repair_rate(32, 128, budget_fraction=budget)
        days_between = 1.0 / rate
        assert 28 <= days_between <= 36

    def test_backup_cost(self):
        # 256 blocks of 1 MB at 32 kB/s = 8192 s.
        model = CostModel()
        assert model.backup_cost_seconds(256) == pytest.approx(8192.0)

    def test_restore_cost_equals_download(self):
        model = CostModel()
        assert model.restore_cost_seconds() == pytest.approx(512.0)

    def test_modern_dsl_is_four_times_cheaper(self):
        paper = CostModel(link=PAPER_DSL).repair_cost(128).total_seconds
        modern = CostModel(link=MODERN_DSL).repair_cost(128).total_seconds
        assert paper / modern == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CostModel(archive_size=0)
        with pytest.raises(ValueError):
            CostModel(data_blocks=0)
        model = CostModel()
        with pytest.raises(ValueError):
            model.repair_cost(-1)
        with pytest.raises(ValueError):
            model.feasible_repair_rate(0, 10)
        with pytest.raises(ValueError):
            model.feasible_repair_rate(1, 10, budget_fraction=0)
        with pytest.raises(ValueError):
            model.backup_cost_seconds(10)


class TestLinkProfileRegistry:
    def test_builtin_profiles_registered(self):
        assert LINK_PROFILES.get("paper-dsl") is PAPER_DSL
        assert LINK_PROFILES.get("modern-dsl") is MODERN_DSL
        assert LINK_PROFILES.get("ftth") is FTTH

    def test_unknown_profile_lists_choices(self):
        with pytest.raises(ValueError) as excinfo:
            LINK_PROFILES.get("carrier-pigeon")
        assert "paper-dsl" in str(excinfo.value)


class TestLinkScheduler:
    def test_idle_link_starts_immediately(self):
        scheduler = LinkScheduler(round_seconds=3600)
        transfer = scheduler.schedule(1, seconds=100.0, now_round=2)
        assert transfer.start_second == 2 * 3600
        assert transfer.finish_second == 2 * 3600 + 100
        assert transfer.queue_delay(2 * 3600) == 0.0

    def test_busy_link_queues(self):
        scheduler = LinkScheduler(round_seconds=3600)
        first = scheduler.schedule(1, seconds=5000.0, now_round=0)
        second = scheduler.schedule(1, seconds=1000.0, now_round=0)
        assert second.start_second == first.finish_second
        assert second.queue_delay(0.0) == 5000.0

    def test_links_are_independent(self):
        scheduler = LinkScheduler(round_seconds=3600)
        scheduler.schedule(1, seconds=50_000.0, now_round=0)
        other = scheduler.schedule(2, seconds=10.0, now_round=0)
        assert other.queue_delay(0.0) == 0.0

    def test_finish_round_is_at_least_next_round(self):
        scheduler = LinkScheduler(round_seconds=3600)
        quick = scheduler.schedule(1, seconds=1.0, now_round=4)
        assert scheduler.finish_round(quick, 4) == 5
        slow = scheduler.schedule(2, seconds=2 * 3600 + 1.0, now_round=4)
        assert scheduler.finish_round(slow, 4) == 7

    def test_complete_trims_active_index(self):
        scheduler = LinkScheduler()
        transfer = scheduler.schedule(1, seconds=10.0, now_round=0)
        assert scheduler.in_flight() == 1
        scheduler.complete(transfer)
        assert scheduler.in_flight() == 0
        scheduler.complete(transfer)  # idempotent

    def test_complete_removes_that_exact_transfer(self):
        scheduler = LinkScheduler()
        first = scheduler.schedule(1, seconds=0.0, now_round=0)
        second = scheduler.schedule(1, seconds=0.0, now_round=0)
        assert dataclasses.astuple(first) == dataclasses.astuple(second)
        scheduler.complete(second)
        still_active = scheduler.cancel_peer(1)
        assert len(still_active) == 1
        assert still_active[0] is first
        assert first.cancelled and not second.cancelled

    def test_cancel_on_death_releases_capacity(self):
        """The churn satellite: a transfer in flight when its peer dies
        must cancel cleanly and release the link for the next user."""
        scheduler = LinkScheduler(round_seconds=3600)
        first = scheduler.schedule(1, seconds=50_000.0, now_round=0)
        second = scheduler.schedule(1, seconds=1000.0, now_round=0)
        assert second.queue_delay(0.0) > 0

        cancelled = scheduler.cancel_peer(1)
        assert cancelled == [first, second]
        assert all(transfer.cancelled for transfer in cancelled)
        assert scheduler.in_flight() == 0
        assert scheduler.busy_until(1) == 0.0

        # A fresh peer reusing the id (or the next transfer on the same
        # link) sees an idle link — no capacity leaked to the dead peer.
        fresh = scheduler.schedule(1, seconds=10.0, now_round=3)
        assert fresh.queue_delay(3 * 3600) == 0.0

    def test_cancel_unknown_peer_is_a_noop(self):
        assert LinkScheduler().cancel_peer(42) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkScheduler(round_seconds=0)
        with pytest.raises(ValueError):
            LinkScheduler().schedule(1, seconds=-1.0, now_round=0)


class TestPaperCostTable:
    def test_all_published_numbers(self):
        table = paper_cost_table()
        assert table["download_seconds"] == pytest.approx(512.0)
        assert table["upload_seconds_per_block"] == pytest.approx(32.0)
        assert table["worst_case_total_minutes"] == pytest.approx(76.8, abs=0.5)
        assert table["max_repairs_per_day"] == 18
        assert table["worst_case_upload_minutes"] > table[
            "worst_case_download_minutes"
        ]
