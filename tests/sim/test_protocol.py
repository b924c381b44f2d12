"""Tests for the protocol fidelity backend (PR 5).

Covers the acceptance criteria of the fidelity-backend refactor:

* default-fidelity config dicts and cache digests are byte-identical to
  the previous release (pinned digests), protocol-mode digests differ;
* same-seed protocol runs are byte-identical after serialization;
* the data plane (block stores, manifests, links, pending transfers)
  stays mutually consistent under churn (extended audit);
* bandwidth gating: repairs complete strictly later than they start,
  and a constrained uplink produces real queueing delay;
* fairness enforcement refuses stores once the cap binds.
"""

import dataclasses
import json

import pytest

from repro.exec.cache import canonical_json, config_digest
from repro.sim.config import DEFAULT_FIDELITY, SimulationConfig
from repro.sim.engine import SimulationResult, run_simulation
from repro.sim.engine_soa import SoaSimulation
from repro.sim.fidelity import FIDELITY_BACKENDS, available_fidelities, simulation_for
from repro.sim.metrics import MetricsCollector
from repro.sim.protocol import ProtocolSimulation

#: Digests of well-known default-fidelity configs, pinned at cache
#: schema 3 (re-pinned by that bump; the configs serialise as before).
#: If either changes, the on-disk result cache silently orphans every
#: entry ever written — the exact failure mode invariant 3 of
#: docs/ARCHITECTURE.md exists to prevent.  Only a deliberate
#: ``CACHE_SCHEMA_VERSION`` bump may move them.
PINNED_DEFAULT_DIGEST = (
    "65dd2106536717d246ca8093d56bad1d22257b6817b73db6cd91f9aae247616e"
)
PINNED_PAPER_DIGEST = (
    "141b708fb24da8ecb1f9248351c363732274c6377ed201e38636c30a65ab6d60"
)


def protocol_config(**overrides):
    defaults = dict(
        population=80,
        rounds=500,
        data_blocks=8,
        parity_blocks=8,
        seed=3,
    )
    defaults.update(overrides)
    base = SimulationConfig.scaled(**defaults)
    return dataclasses.replace(base, fidelity="protocol")


class TestDigestStability:
    def test_default_abstract_digest_pinned(self):
        assert config_digest(SimulationConfig()) == PINNED_DEFAULT_DIGEST

    def test_paper_abstract_digest_pinned(self):
        assert config_digest(SimulationConfig.paper()) == PINNED_PAPER_DIGEST

    def test_abstract_to_dict_has_no_fidelity_keys(self):
        data = SimulationConfig().to_dict()
        for key in ("fidelity", "link_profile", "round_seconds",
                    "archive_bytes", "fairness_factor",
                    "impairment_profile", "retry_budget",
                    "retry_backoff_base", "retry_backoff_cap"):
            assert key not in data

    def test_protocol_digest_differs(self):
        default = SimulationConfig.scaled(population=80, rounds=500)
        protocol = dataclasses.replace(default, fidelity="protocol")
        assert config_digest(default) != config_digest(protocol)

    def test_protocol_knobs_enter_the_digest(self):
        base = protocol_config()
        assert config_digest(base) != config_digest(
            dataclasses.replace(base, link_profile="ftth")
        )
        assert config_digest(base) != config_digest(
            dataclasses.replace(base, fairness_factor=1.0)
        )
        assert config_digest(base) != config_digest(
            dataclasses.replace(base, archive_bytes=2 * base.archive_bytes)
        )
        assert config_digest(base) != config_digest(
            dataclasses.replace(base, impairment_profile="loss10")
        )
        assert config_digest(base) != config_digest(
            dataclasses.replace(base, retry_budget=5)
        )

    def test_protocol_config_round_trips(self):
        config = protocol_config(fairness_factor=2.0)
        rebuilt = SimulationConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        )
        assert rebuilt == config


class TestFidelityRegistry:
    def test_builtins_registered(self):
        assert set(available_fidelities()) == {"abstract_soa", "protocol"}
        assert DEFAULT_FIDELITY == "abstract_soa"

    def test_removed_abstract_fidelity_fails_with_choices(self):
        with pytest.raises(ValueError) as excinfo:
            SimulationConfig(fidelity="abstract")
        assert "abstract_soa" in str(excinfo.value)

    def test_unknown_fidelity_fails_fast_with_choices(self):
        with pytest.raises(ValueError) as excinfo:
            SimulationConfig(fidelity="quantum")
        assert "protocol" in str(excinfo.value)

    def test_simulation_for_dispatches(self):
        assert isinstance(
            simulation_for(protocol_config()), ProtocolSimulation
        )
        assert isinstance(
            simulation_for(SimulationConfig.scaled(population=50, rounds=100)),
            SoaSimulation,
        )
        assert FIDELITY_BACKENDS.get("protocol") is ProtocolSimulation

    def test_protocol_rejects_proactive(self):
        with pytest.raises(ValueError):
            ProtocolSimulation(protocol_config(proactive_rate=0.01))


class TestProtocolDeterminism:
    def test_same_seed_byte_identical(self):
        first = run_simulation(protocol_config())
        second = run_simulation(protocol_config())
        assert canonical_json(first.to_dict()) == canonical_json(
            second.to_dict()
        )

    def test_different_seeds_diverge(self):
        a = run_simulation(protocol_config(seed=1))
        b = run_simulation(protocol_config(seed=2))
        assert canonical_json(a.to_dict()) != canonical_json(b.to_dict())

    def test_shares_churn_trajectory_with_abstract(self):
        """Same seed => same joins/deaths as the default fidelity."""
        default = run_simulation(
            SimulationConfig.scaled(
                population=80, rounds=500, data_blocks=8, parity_blocks=8,
                seed=3,
            )
        )
        protocol = run_simulation(protocol_config())
        assert protocol.deaths == default.deaths
        assert protocol.peers_created == default.peers_created


class TestVectorKernel:
    """Protocol on the swarm-scale branch: vector toggles, one pool fill.

    Forcing ``_VECTOR_POPULATION`` to 1 runs the vectorised toggle
    kernel over the numpy state columns on a micro config, with the
    same ``_fill_pool`` recruitment; the whole result must equal the
    scalar-kernel run.
    The impaired cell adds retries and restore probes on top.
    """

    @pytest.mark.parametrize("impairment", ["clean", "loss10"])
    def test_matches_the_scalar_kernel(self, impairment, monkeypatch):
        from repro.scenarios import scenario_by_name

        config = (
            scenario_by_name("lossy_dsl")
            .with_population(60)
            .with_rounds(2000)
            .with_seed(1)
            .build()
        )
        config = dataclasses.replace(config, impairment_profile=impairment)
        fills = []
        fill = SoaSimulation._fill_pool

        def counted(self, *args):
            fills.append(self._vector_kernel)
            return fill(self, *args)

        monkeypatch.setattr(SoaSimulation, "_fill_pool", counted)

        def run():
            simulation = ProtocolSimulation(config)
            result = simulation.run().to_dict()
            assert simulation.audit() == []
            return simulation, result

        scalar_sim, scalar = run()
        assert not scalar_sim._vector_kernel
        monkeypatch.setattr(SoaSimulation, "_VECTOR_POPULATION", 1)
        vector_sim, vector = run()
        assert vector_sim._vector_kernel
        assert False in fills, "the scalar kernel never ran the pool fill"
        assert True in fills, "the vector kernel never ran the pool fill"
        assert vector == scalar
        protocol = scalar["metrics"]["protocol"]
        assert protocol["transfers_completed"] > 0
        if impairment != "clean":
            assert protocol["retries"] > 0
            assert protocol["restore_attempts"] > 0


class TestProtocolRun:
    def test_places_and_repairs(self):
        result = run_simulation(protocol_config(rounds=800))
        assert result.metrics.total_placements > 0
        assert result.metrics.total_repairs > 0
        protocol = result.metrics.protocol
        assert protocol["transfers_completed"] > 0
        assert protocol["messages_sent"] > 0
        assert result.metrics.protocol_series  # sampled each census

    def test_audit_clean_after_run(self):
        simulation = ProtocolSimulation(protocol_config(rounds=800))
        simulation.run()
        assert simulation.audit() == []

    def test_audit_clean_with_observers_and_grace(self):
        from repro.sim.config import ObserverSpec

        config = dataclasses.replace(
            protocol_config(rounds=600),
            observers=(ObserverSpec("Baby", 1), ObserverSpec("Elder", 400)),
            grace_rounds=12,
        )
        simulation = ProtocolSimulation(config)
        result = simulation.run()
        assert simulation.audit() == []
        # Observers keep the core engine's instantaneous path but still
        # accumulate their figure-3 counters.
        assert set(result.observer_totals()) <= {"Baby", "Elder"}

    def test_repairs_complete_strictly_later_than_started(self):
        """Bandwidth gating: archive links materialise only on completion."""
        result = run_simulation(protocol_config(rounds=800))
        protocol = result.metrics.protocol
        assert protocol["transfers_started"] >= protocol["transfers_completed"]
        assert protocol["transfer_seconds"] > 0

    def test_block_stores_respect_quota(self):
        simulation = ProtocolSimulation(protocol_config(rounds=600, quota=12))
        simulation.run()
        for store in simulation._stores.values():
            assert len(store) <= 12

    def test_transfer_cancelled_when_owner_dies_under_churn(self):
        """Long transfers + churn: cancellation releases the link cleanly."""
        config = dataclasses.replace(
            protocol_config(rounds=1200, seed=7),
            archive_bytes=2 * 1024 * 1024 * 1024,  # 2 GB: multi-round repairs
        )
        simulation = ProtocolSimulation(config)
        result = simulation.run()
        assert simulation.audit() == []
        protocol = result.metrics.protocol
        # Churn against multi-round transfers must produce cancellations
        # (owner deaths) and mid-flight recruit losses at this seed/scale.
        assert protocol.get("transfers_cancelled", 0) > 0
        assert protocol.get("blocks_cancelled", 0) > 0
        # The dead owner's in-flight transfer released its link time.
        assert protocol.get("link_seconds_released", 0) > 0
        # Cancelled transfers released their links: the only occupied
        # links left are the transfers still legitimately in flight at
        # the horizon cut, one per pending owner.
        assert simulation.links.in_flight() == len(simulation._pending)
        for owner_id in simulation._pending:
            assert simulation.state.alive[owner_id]

    def test_constrained_uplink_produces_queueing(self):
        config = dataclasses.replace(
            protocol_config(rounds=800),
            archive_bytes=512 * 1024 * 1024,
        )
        result = run_simulation(config)
        assert result.metrics.protocol["queue_delay_seconds"] > 0


class TestFairnessEnforcement:
    def test_fairness_cap_refuses_stores(self):
        result = run_simulation(
            protocol_config(rounds=800, fairness_factor=1.0, seed=5)
        )
        assert result.metrics.protocol.get("fairness_refusals", 0) > 0

    def test_no_fairness_counter_without_the_knob(self):
        result = run_simulation(protocol_config(rounds=400))
        assert "fairness_refusals" not in result.metrics.protocol

    @pytest.mark.parametrize("impairment", ["clean", "loss10"])
    @pytest.mark.parametrize("factor", [None, 1.0])
    def test_ledgers_symmetric_with_stores(self, factor, impairment):
        """Both sides of every partnership count the blocks actually held.

        The owner's manifest names one block per holder; the pairwise
        balance, read from the holder's store from either side, must
        count exactly that block, and no store may hold a block its
        owner's manifest does not name.
        """
        config = protocol_config(
            population=120, rounds=1500, seed=1,
            fairness_factor=factor, impairment_profile=impairment,
        )
        simulation = ProtocolSimulation(config)
        simulation.run()
        assert simulation.audit() == []
        alive = simulation.state.alive
        pairs = 0
        for owner_id, manifest in simulation._manifest.items():
            if not alive[owner_id]:
                continue
            for holder_id, index in manifest.items():
                hosted, _ = simulation._exchange_balance(holder_id, owner_id)
                _, credited = simulation._exchange_balance(owner_id, holder_id)
                assert hosted == credited == 1
                assert simulation._stores[holder_id].holds(
                    owner_id, simulation._archive_id(owner_id), index
                )
                pairs += 1
        assert pairs > 0
        for holder_id, store in simulation._stores.items():
            for owner_id in store.owners():
                assert alive[owner_id]
                assert holder_id in simulation._manifest[owner_id]


@pytest.mark.slow
class TestExecutorEquivalence:
    """Protocol cells obey invariant 2: byte-identical across backends."""

    def test_serial_process_distributed_identical(self, tmp_path):
        from repro.exec import ExperimentSpec, ResultCache, SweepExecutor

        config = protocol_config(rounds=400)

        def spec():
            return ExperimentSpec(
                name="protocol-equivalence",
                build=lambda params: config,
                seeds=(0, 1),
            )

        serial = SweepExecutor(backend="serial").run(spec())
        process = SweepExecutor(workers=2, backend="process").run(spec())
        distributed = SweepExecutor(
            backend="distributed", cache=ResultCache(tmp_path)
        ).run(spec())
        expected = [canonical_json(r.to_dict()) for r in serial.results]
        assert [
            canonical_json(r.to_dict()) for r in process.results
        ] == expected
        assert [
            canonical_json(r.to_dict()) for r in distributed.results
        ] == expected


class TestProtocolSerialization:
    def test_result_round_trip_preserves_protocol_metrics(self):
        result = run_simulation(protocol_config(rounds=600))
        first = canonical_json(result.to_dict())
        rebuilt = SimulationResult.from_dict(json.loads(first))
        assert canonical_json(rebuilt.to_dict()) == first
        assert rebuilt.metrics.protocol == result.metrics.protocol
        assert rebuilt.metrics.protocol_series == result.metrics.protocol_series

    def test_abstract_metrics_payload_shape_unchanged(self):
        result = run_simulation(
            SimulationConfig.scaled(population=60, rounds=300)
        )
        data = result.metrics.to_dict()
        assert "protocol" not in data
        assert "protocol_series" not in data

    def test_metrics_from_dict_tolerates_legacy_payloads(self):
        """A pre-PR-5 cache payload (no protocol keys) still loads."""
        result = run_simulation(
            SimulationConfig.scaled(population=60, rounds=300)
        )
        payload = result.metrics.to_dict()
        rebuilt = MetricsCollector.from_dict(payload)
        assert rebuilt.protocol == {}
        assert rebuilt.protocol_series == []


class TestCancelledTransfer:
    def test_cancelled_transfer_never_completes_a_refiled_one(self):
        """A cancelled completion whose round comes first is skipped.

        The owner's in-flight placement is cancelled and a new one is
        filed for the same owner; the owner's busy uplink puts the new
        completion later.  When the stale round passes, the new
        transfer must still be pending, and it completes at its own
        round.
        """
        config = dataclasses.replace(
            protocol_config(rounds=1200, seed=7),
            archive_bytes=2 * 1024 * 1024 * 1024,  # multi-round transfers
        )
        simulation = ProtocolSimulation(config)
        simulation.config = dataclasses.replace(config, rounds=40)
        simulation.run()
        now = simulation.round
        owner_id, pending = next(
            (owner_id, pending)
            for owner_id, pending in sorted(simulation._pending.items())
            if pending.kind == "placement"
        )
        stale_round = pending.finish
        del simulation._pending[owner_id]
        simulation._cancel_pending(pending, release_blocks=True)
        simulation._run_placement(owner_id, now)
        refiled = simulation._pending[owner_id]
        fresh_round = refiled.finish
        assert now < stale_round < fresh_round

        completed = simulation.metrics.protocol.get("transfers_completed", 0)
        simulation.config = dataclasses.replace(config, rounds=stale_round)
        simulation.run()
        assert simulation.state.alive[owner_id]
        assert simulation._pending.get(owner_id) is refiled

        simulation.config = dataclasses.replace(config, rounds=fresh_round)
        simulation.run()
        assert owner_id not in simulation._pending
        assert (
            simulation.metrics.protocol["transfers_completed"] > completed
        )
        assert simulation.audit() == []


class TestFetchMiss:
    def test_released_block_is_neither_a_source_nor_clean(self):
        """A holder whose store lost the block answers a fetch with a miss.

        The owner's manifest still names the holder, so the repair's
        download phase asks it; the miss must not count as a source, and
        the audit must name the missing block.
        """
        simulation = ProtocolSimulation(protocol_config(rounds=800))
        simulation.run()
        assert simulation.audit() == []
        state = simulation.state
        # An owner whose first holder is online: the download phase asks
        # that holder first, before it can have k sources.
        owner_id, holder_id = next(
            (owner_id, holder_id)
            for owner_id in range(state.n_observers, state.count)
            if state.alive[owner_id]
            for holder_id in state.holders[owner_id][:1]
            if state.online[holder_id]
        )
        assert holder_id in simulation._collect_blocks(owner_id)
        index = simulation._manifest[owner_id][holder_id]
        archive_id = simulation._archive_id(owner_id)
        store = simulation._stores[holder_id]
        assert store.release(owner_id, archive_id, index)
        assert not store.holds(owner_id, archive_id, index)
        assert simulation._manifest[owner_id][holder_id] == index

        assert holder_id not in simulation._collect_blocks(owner_id)
        assert (
            f"peer {owner_id}: block {index} missing from holder "
            f"{holder_id}'s store"
        ) in simulation.audit()
