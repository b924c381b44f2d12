"""Protocol-backend behaviour under network impairment (PR 8).

The unit layer (``tests/net/test_impairment.py``) pins the sampler and
transport semantics; these tests exercise the full retry machinery
inside :class:`repro.sim.protocol.ProtocolSimulation`:

* scripted drop schedules produce the exact counters they script;
* an exhausted retry budget degrades gracefully (``gave_up``) instead
  of wedging the maintenance loop;
* churn during a retry window cancels cleanly (audit verifies no retry
  state outlives its owner);
* impaired runs stay byte-identical across all sweep-executor backends;
* the clean profile leaves the metrics payload untouched.
"""

import dataclasses

import pytest

from repro.exec.cache import canonical_json
from repro.net.impairment import (
    IMPAIRMENT_PROFILES,
    ScriptedImpairment,
    drop_schedule,
)
from repro.sim.config import SimulationConfig
from repro.sim.engine import run_simulation
from repro.sim.protocol import ProtocolSimulation


def impaired_config(profile="loss30_delay50ms_jitter5ms", **overrides):
    defaults = dict(
        population=80,
        rounds=500,
        data_blocks=8,
        parity_blocks=8,
        seed=3,
    )
    defaults.update(overrides)
    base = SimulationConfig.scaled(**defaults)
    return dataclasses.replace(
        base, fidelity="protocol", impairment_profile=profile
    )


@pytest.fixture
def scripted_profile():
    """Register a scripted profile for the test, then remove it."""

    def _register(name, script):
        profile = ScriptedImpairment(name=name, script=script)
        IMPAIRMENT_PROFILES.register(name, profile)
        registered.append(name)
        return profile

    registered = []
    yield _register
    for name in registered:
        IMPAIRMENT_PROFILES.unregister(name)


class TestScriptedSchedules:
    def test_every_exchange_dropped_gives_up_gracefully(
        self, scripted_profile
    ):
        """A black-hole link: nothing places, yet the run completes."""
        scripted_profile("test-blackhole", drop_schedule(True))
        simulation = ProtocolSimulation(
            impaired_config("test-blackhole", rounds=200)
        )
        result = simulation.run()
        assert simulation.audit() == []
        protocol = result.metrics.protocol
        assert protocol["drops"] > 0
        assert protocol["retries"] > 0
        assert protocol["gave_up"] > 0
        # Every recruitment round-trip was lost before any recipient
        # effect, so no archive ever placed and none could be repaired.
        assert result.metrics.total_placements == 0
        assert result.metrics.total_repairs == 0
        assert protocol.get("transfers_started", 0) == 0

    def test_drop_counter_matches_the_transport(self, scripted_profile):
        """The metrics counter and the transport counter agree exactly."""
        scripted_profile("test-every-third", drop_schedule(True, False, False))
        simulation = ProtocolSimulation(
            impaired_config("test-every-third", rounds=300)
        )
        result = simulation.run()
        assert simulation.audit() == []
        protocol = result.metrics.protocol
        assert protocol["drops"] == simulation.transport.dropped_messages
        assert protocol["drops"] > 0
        # Two delivered exchanges per drop: the loop still makes progress.
        assert result.metrics.total_placements > 0

    def test_budget_exhaustion_reenqueues_the_operation(
        self, scripted_profile
    ):
        """Giving up is a deferral, not a deletion: checks keep firing."""
        scripted_profile("test-blackhole-budget", drop_schedule(True))
        config = dataclasses.replace(
            impaired_config("test-blackhole-budget", rounds=150),
            retry_budget=1,
        )
        simulation = ProtocolSimulation(config)
        result = simulation.run()
        assert simulation.audit() == []
        protocol = result.metrics.protocol
        # With a budget of one, each cycle is attempt + one retry, so
        # the loop gives up once per retry and keeps re-enqueueing.
        assert protocol["gave_up"] >= protocol["retries"] // 2
        assert protocol["gave_up"] > 1
        # Retry state may straddle the horizon cut, but only for owners
        # still alive to use it (the audit enforces the same hygiene).
        for owner_id in simulation._attempts:
            assert simulation.state.alive[owner_id]


class TestRetryUnderChurn:
    def test_mid_retry_churn_cancels_cleanly(self):
        """Heavy loss + churn: peers die inside their backoff windows."""
        simulation = ProtocolSimulation(
            impaired_config(rounds=800, seed=7)
        )
        result = simulation.run()
        # The audit's retry-hygiene check: no _attempts entry may
        # reference a dead or departed owner.
        assert simulation.audit() == []
        protocol = result.metrics.protocol
        assert protocol["drops"] > 0
        assert protocol["retries"] > 0
        assert result.deaths > 0

    def test_departed_owner_forgets_retry_state(self, scripted_profile):
        scripted_profile("test-blackhole-churn", drop_schedule(True))
        simulation = ProtocolSimulation(
            impaired_config("test-blackhole-churn", rounds=800, seed=7)
        )
        result = simulation.run()
        assert result.deaths > 0
        assert simulation.audit() == []
        for owner_id in simulation._attempts:
            assert owner_id < simulation.state.count
            assert simulation.state.alive[owner_id]


class TestImpairedDeterminism:
    def test_same_seed_byte_identical(self):
        first = run_simulation(impaired_config())
        second = run_simulation(impaired_config())
        assert canonical_json(first.to_dict()) == canonical_json(
            second.to_dict()
        )

    def test_clean_profile_leaves_the_payload_untouched(self):
        """R002 by construction: no impairment counters unless impaired."""
        result = run_simulation(impaired_config("clean"))
        protocol = result.metrics.protocol
        for counter in ("drops", "retries", "timeouts", "gave_up",
                        "impairment_delay_seconds"):
            assert counter not in protocol
        assert result.metrics.total_repairs > 0

    def test_clean_profile_matches_pre_impairment_trajectory(self):
        """The clean profile consumes zero draws from the new stream."""
        clean = run_simulation(impaired_config("clean"))
        baseline = run_simulation(
            dataclasses.replace(
                impaired_config("clean"), retry_budget=7
            )
        )
        # retry knobs are inert on a clean link: same bytes out.
        assert canonical_json(clean.metrics.to_dict()) == canonical_json(
            baseline.metrics.to_dict()
        )


@pytest.mark.slow
class TestImpairedExecutorEquivalence:
    """Invariant 2 holds with the impairment layer active."""

    def test_serial_process_distributed_identical(self, tmp_path):
        from repro.exec import ExperimentSpec, ResultCache, SweepExecutor

        config = impaired_config(rounds=400)

        def spec():
            return ExperimentSpec(
                name="impaired-equivalence",
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
        # The impaired cells actually exercised the machinery.
        assert all(
            r.metrics.protocol.get("drops", 0) > 0 for r in serial.results
        )
