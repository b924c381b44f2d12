"""Tests for the direct-exchange fairness accounting."""

import dataclasses

import pytest

from repro.backup.fairness import ExchangeLedger, GlobalFairness
from repro.net.message import ReleaseNotice, StoreReply, StoreRequest
from repro.sim.config import SimulationConfig
from repro.sim.protocol import ProtocolSimulation


class TestExchangeLedger:
    def test_balances_start_at_zero(self):
        ledger = ExchangeLedger()
        balance = ledger.balance_with(5)
        assert balance.stored_for_partner == 0
        assert balance.stored_by_partner == 0

    def test_debt_direction(self):
        ledger = ExchangeLedger()
        ledger.record_stored_for(5, blocks=3)  # they use my space
        ledger.record_stored_by(5, blocks=1)   # I use theirs
        balance = ledger.balance_with(5)
        assert (balance.stored_for_partner, balance.stored_by_partner) == (3, 1)

    def test_releases_clamp_at_zero(self):
        ledger = ExchangeLedger()
        ledger.record_stored_for(5, blocks=1)
        ledger.record_released_for(5, blocks=10)
        assert ledger.balance_with(5).stored_for_partner == 0
        ledger.record_released_by(5, blocks=10)
        assert ledger.balance_with(5).stored_by_partner == 0

    def test_negative_blocks_rejected(self):
        ledger = ExchangeLedger()
        with pytest.raises(ValueError):
            ledger.record_stored_for(5, blocks=-1)
        with pytest.raises(ValueError):
            ledger.record_stored_by(5, blocks=-1)

    def test_grace_allows_bootstrap(self):
        ledger = ExchangeLedger(grace_blocks=4)
        # A brand-new partner with no reciprocity may store 4 blocks.
        assert not ledger.would_exceed_debt(7, fairness_factor=1.0, extra_blocks=4)
        assert ledger.would_exceed_debt(7, fairness_factor=1.0, extra_blocks=5)

    def test_reciprocity_raises_the_ceiling(self):
        ledger = ExchangeLedger(grace_blocks=0)
        ledger.record_stored_by(7, blocks=10)  # they host 10 for me
        assert not ledger.would_exceed_debt(7, fairness_factor=1.0, extra_blocks=10)
        assert ledger.would_exceed_debt(7, fairness_factor=1.0, extra_blocks=11)

    def test_fairness_factor_scales_ceiling(self):
        ledger = ExchangeLedger(grace_blocks=0)
        ledger.record_stored_by(7, blocks=5)
        assert not ledger.would_exceed_debt(7, fairness_factor=2.0, extra_blocks=10)
        assert ledger.would_exceed_debt(7, fairness_factor=2.0, extra_blocks=11)

    def test_bad_fairness_factor(self):
        with pytest.raises(ValueError):
            ExchangeLedger().would_exceed_debt(1, fairness_factor=0)

    def test_negative_grace_rejected(self):
        with pytest.raises(ValueError):
            ExchangeLedger(grace_blocks=-1)


class TestGlobalFairness:
    def test_hosting_and_placement_accumulate(self):
        fairness = GlobalFairness()
        fairness.record_hosting(1, blocks=6)
        fairness.record_hosting(1)
        fairness.record_placement(1, blocks=3)
        fairness.record_placement(2)
        assert fairness.contributed == {1: 7}
        assert fairness.consumed == {1: 3, 2: 1}

    def test_ratio(self):
        fairness = GlobalFairness()
        fairness.record_hosting(1, blocks=6)
        fairness.record_placement(1, blocks=3)
        assert fairness.ratio(1) == 2.0

    def test_pure_contributor_is_infinite(self):
        fairness = GlobalFairness()
        fairness.record_hosting(1)
        assert fairness.ratio(1) == float("inf")

    def test_inactive_peer_is_neutral(self):
        assert GlobalFairness().ratio(42) == 1.0

    def test_free_riders(self):
        fairness = GlobalFairness()
        fairness.record_hosting(1, 10)
        fairness.record_placement(1, 5)
        fairness.record_hosting(2, 1)
        fairness.record_placement(2, 10)
        assert fairness.free_riders(minimum_ratio=1.0) == [2]

    def test_free_riders_validation(self):
        with pytest.raises(ValueError):
            GlobalFairness().free_riders(minimum_ratio=0)

    def test_gini_zero_for_equal_system(self):
        fairness = GlobalFairness()
        for peer in range(4):
            fairness.record_hosting(peer, 10)
            fairness.record_placement(peer, 10)
        assert fairness.gini_coefficient() == pytest.approx(0.0, abs=1e-9)

    def test_gini_positive_for_skewed_system(self):
        fairness = GlobalFairness()
        fairness.record_hosting(0, 100)
        fairness.record_placement(0, 1)
        fairness.record_hosting(1, 1)
        fairness.record_placement(1, 100)
        assert fairness.gini_coefficient() > 0.3

    def test_gini_trivial_systems(self):
        assert GlobalFairness().gini_coefficient() == 0.0
        single = GlobalFairness()
        single.record_hosting(1, 5)
        assert single.gini_coefficient() == 0.0


def idle_swarm(fairness_factor=None, peers=10, quota=100):
    """A protocol simulation with ``peers`` joined, online, idle peers."""
    base = SimulationConfig.scaled(
        population=peers, rounds=10, data_blocks=4, parity_blocks=4, seed=1
    )
    config = dataclasses.replace(
        base, fidelity="protocol", quota=quota, fairness_factor=fairness_factor
    )
    simulation = ProtocolSimulation(config)
    for _ in range(peers):
        simulation._spawn_peer(0)
    return simulation


def store_request(simulation, owner, holder, index, payload=b"x"):
    return StoreRequest(
        sender=owner, recipient=holder,
        archive_id=simulation._archive_id(owner),
        block_index=index, payload=payload,
    )


class TestClientEnforcement:
    """Enforcement by the storing peer, through the protocol fidelity's
    holder-side store handler."""

    def test_debtor_gets_refused(self):
        swarm = idle_swarm(fairness_factor=1.0)
        owner, target = 0, 1
        # Hammer one partner without reciprocating: the first blocks fit
        # the bootstrap grace, then the per-partner ceiling refuses.
        replies = [
            swarm.transport.send(store_request(swarm, owner, target, index))
            for index in range(10)
        ]
        assert all(isinstance(reply, StoreReply) for reply in replies)
        assert replies[0].accepted
        refusals = sum(1 for reply in replies if not reply.accepted)
        assert refusals > 0
        assert swarm.metrics.protocol["fairness_refusals"] == refusals
        balance = swarm._ledgers[target].balance_with(owner)
        assert balance.stored_for_partner > balance.stored_by_partner
        assert len(swarm._stores[target]) == 10 - refusals

    def test_no_enforcement_without_factor(self):
        swarm = idle_swarm()
        accepted = 0
        for index in range(20):
            reply = swarm.transport.send(store_request(swarm, 0, 1, index))
            if isinstance(reply, StoreReply) and reply.accepted:
                accepted += 1
        assert accepted == 20
        assert "fairness_refusals" not in swarm.metrics.protocol

    def test_swarm_validates_factor(self):
        with pytest.raises(ValueError):
            idle_swarm(fairness_factor=0)

    def test_ledgers_symmetric_after_backup(self):
        swarm = idle_swarm(fairness_factor=1.0)
        owner, holders = 0, range(1, 9)
        for index, holder in enumerate(holders):
            reply = swarm.transport.send(
                store_request(swarm, owner, holder, index, payload=b"q" * 7)
            )
            assert reply.accepted
        for holder in holders:
            held = swarm._ledgers[holder].balance_with(owner).stored_for_partner
            credited = swarm._ledgers[owner].balance_with(holder).stored_by_partner
            assert held == credited == len(swarm._stores[holder]) == 1
        # A release settles both sides of the partnership.
        swarm.transport.send(ReleaseNotice(
            sender=owner, recipient=1,
            archive_id=swarm._archive_id(owner), block_index=0,
        ))
        assert swarm._ledgers[1].balance_with(owner).stored_for_partner == 0
        assert swarm._ledgers[owner].balance_with(1).stored_by_partner == 0
        assert len(swarm._stores[1]) == 0
