"""Tests for the netem-style impairment layer (PR 8).

Covers the fault-injection building blocks in isolation:

* profile validation and the registry of netem-mirroring presets;
* sampler semantics — iid loss, delay + jitter, Gilbert-Elliott burst
  correlation — as pure functions of the injected draw sequence;
* scripted profiles replaying deterministic drop schedules;
* transport integration: drops raise ``DroppedMessageError`` before any
  recipient-side effect, latency accumulates per round trip;
* LinkScheduler latency semantics: propagation delay defers completion
  without occupying the link, and block legs are priced at the pairwise
  gated rate ``min(sender uplink, receiver downlink)``.
"""

import pytest

from repro.net.bandwidth import CostModel, LinkProfile, LinkScheduler
from repro.net.impairment import (
    CLEAN_OUTCOME,
    IMPAIRMENT_PROFILES,
    ImpairmentOutcome,
    ImpairmentProfile,
    ScriptedImpairment,
    drop_schedule,
)
from repro.net.message import FetchReply, FetchRequest, ReleaseNotice
from repro.net.transport import DroppedMessageError, InMemoryTransport


class FakeDraws:
    """Replays a fixed uniform sequence (cycling), counting consumption."""

    def __init__(self, values):
        self.values = list(values)
        self.used = 0

    def next_uniform(self):
        value = self.values[self.used % len(self.values)]
        self.used += 1
        return value


class TestProfiles:
    def test_netem_matrix_presets_registered(self):
        names = IMPAIRMENT_PROFILES.names()
        for name in ("clean", "loss10", "delay10ms",
                     "loss30_delay50ms_jitter5ms", "satellite_burst"):
            assert name in names

    def test_clean_detection(self):
        assert IMPAIRMENT_PROFILES.get("clean").is_clean
        assert not IMPAIRMENT_PROFILES.get("loss10").is_clean
        assert not IMPAIRMENT_PROFILES.get("delay10ms").is_clean
        assert not IMPAIRMENT_PROFILES.get("satellite_burst").is_clean

    def test_probability_bounds_validated(self):
        with pytest.raises(ValueError):
            ImpairmentProfile(loss_probability=1.5)

    def test_jitter_wider_than_delay_rejected(self):
        with pytest.raises(ValueError):
            ImpairmentProfile(delay_seconds=0.01, jitter_seconds=0.02)

    def test_burst_state_needs_exit(self):
        with pytest.raises(ValueError):
            ImpairmentProfile(burst_enter=0.1, burst_exit=0.0)


class TestSampler:
    def test_iid_loss_follows_the_draw(self):
        profile = ImpairmentProfile(loss_probability=0.5)
        sampler = profile.sampler(FakeDraws([0.49, 0.51]))
        assert sampler.sample().dropped
        assert not sampler.sample().dropped

    def test_delay_and_jitter_consume_draws(self):
        profile = ImpairmentProfile(delay_seconds=0.05, jitter_seconds=0.01)
        draws = FakeDraws([0.0, 0.5, 1.0 - 1e-9])
        sampler = profile.sampler(draws)
        low = sampler.sample().delay_seconds
        mid = sampler.sample().delay_seconds
        high = sampler.sample().delay_seconds
        assert low == pytest.approx(0.04)
        assert mid == pytest.approx(0.05)
        assert high == pytest.approx(0.06, abs=1e-6)
        assert draws.used == 3  # no loss configured: one draw per sample

    def test_same_draws_same_outcomes(self):
        profile = IMPAIRMENT_PROFILES.get("loss30_delay50ms_jitter5ms")
        values = [0.7, 0.2, 0.9, 0.1, 0.5, 0.3, 0.8, 0.6]
        first = [profile.sampler(FakeDraws(values)).sample()
                 for _ in range(1)]
        runs = []
        for _ in range(2):
            sampler = profile.sampler(FakeDraws(values))
            runs.append([sampler.sample() for _ in range(6)])
        assert runs[0] == runs[1]
        assert first  # silence unused warning-by-intent

    def test_gilbert_elliott_burst_correlation(self):
        profile = ImpairmentProfile(
            loss_probability=0.0,
            burst_enter=1.0,
            burst_exit=0.001,
            burst_loss_probability=1.0,
        )
        # Transition draw 0.5 < enter=1.0 -> bad state; loss draw 0.5 <
        # burst loss 1.0 -> dropped; exit draw 0.9 >= 0.001 keeps the
        # burst alive, so the loss repeats: correlated, not iid.
        sampler = profile.sampler(FakeDraws([0.5, 0.5, 0.9, 0.5]))
        assert sampler.sample().dropped
        assert sampler.sample().dropped

    def test_good_state_uses_base_loss(self):
        profile = ImpairmentProfile(
            loss_probability=0.0,
            burst_enter=0.01,
            burst_exit=0.5,
            burst_loss_probability=1.0,
        )
        # Transition draw 0.9 >= enter: stays good; base loss is zero so
        # no loss draw is consumed and the exchange delivers.
        draws = FakeDraws([0.9])
        sampler = profile.sampler(draws)
        assert sampler.sample() == CLEAN_OUTCOME
        assert draws.used == 1


class TestScriptedProfile:
    def test_script_cycles(self):
        profile = ScriptedImpairment(
            name="scripted", script=drop_schedule(True, False)
        )
        sampler = profile.sampler(None)
        outcomes = [sampler.sample().dropped for _ in range(5)]
        assert outcomes == [True, False, True, False, True]

    def test_empty_script_rejected(self):
        with pytest.raises(ValueError):
            ScriptedImpairment(name="scripted", script=())

    def test_clean_detection_inspects_the_script(self):
        assert ScriptedImpairment(name="s", script=(CLEAN_OUTCOME,)).is_clean
        lossy = ScriptedImpairment(name="s", script=drop_schedule(True))
        assert not lossy.is_clean


class TestTransportIntegration:
    def _transport(self):
        transport = InMemoryTransport()
        received = []

        def handler(message):
            received.append(message)
            if isinstance(message, FetchRequest):
                return FetchReply(
                    sender=2,
                    recipient=message.sender,
                    archive_id=message.archive_id,
                    block_index=message.block_index,
                    found=True,
                )
            return None

        transport.register(1, lambda message: None)
        transport.register(2, handler)
        return transport, received

    def _fetch(self):
        return FetchRequest(sender=1, recipient=2, archive_id="a1",
                            block_index=0)

    def test_drop_raises_before_any_recipient_effect(self):
        transport, received = self._transport()
        profile = ScriptedImpairment(name="s", script=drop_schedule(True))
        transport.set_impairment(profile.sampler(None))
        with pytest.raises(DroppedMessageError):
            transport.send(self._fetch())
        assert received == []  # the handler never ran
        assert transport.dropped_messages == 1

    def test_round_trip_latency_is_doubled(self):
        transport, _ = self._transport()
        profile = ScriptedImpairment(
            name="s",
            script=(ImpairmentOutcome(dropped=False, delay_seconds=0.05),),
        )
        transport.set_impairment(profile.sampler(None))
        reply = transport.send(self._fetch())
        assert isinstance(reply, FetchReply)
        assert transport.last_delay_seconds == pytest.approx(0.10)

    def test_one_way_latency_for_replyless_exchanges(self):
        transport, _ = self._transport()
        profile = ScriptedImpairment(
            name="s",
            script=(ImpairmentOutcome(dropped=False, delay_seconds=0.05),),
        )
        transport.set_impairment(profile.sampler(None))
        notice = ReleaseNotice(sender=1, recipient=2, archive_id="a1",
                               block_index=0)
        assert transport.send(notice) is None
        assert transport.last_delay_seconds == pytest.approx(0.05)

    def test_clearing_the_sampler_restores_the_perfect_link(self):
        transport, _ = self._transport()
        profile = ScriptedImpairment(name="s", script=drop_schedule(True))
        transport.set_impairment(profile.sampler(None))
        transport.set_impairment(None)
        assert transport.send(self._fetch()) is not None
        assert transport.last_delay_seconds == 0.0


class TestSchedulerLatency:
    def test_latency_defers_completion_not_the_link(self):
        links = LinkScheduler(round_seconds=3600.0)
        first = links.schedule(1, 100.0, 0, latency_seconds=30.0)
        assert first.link_release_second == pytest.approx(100.0)
        assert first.finish_second == pytest.approx(130.0)
        # The next transfer queues behind the bytes, not the latency.
        second = links.schedule(1, 50.0, 0)
        assert second.start_second == pytest.approx(100.0)
        assert links.busy_until(1) == pytest.approx(150.0)

    def test_negative_latency_rejected(self):
        links = LinkScheduler()
        with pytest.raises(ValueError):
            links.schedule(1, 10.0, 0, latency_seconds=-1.0)

    def test_latency_shifts_the_completion_round(self):
        links = LinkScheduler(round_seconds=100.0)
        plain = links.schedule(1, 150.0, 0)
        assert links.finish_round(plain, 0) == 2
        delayed = links.schedule(2, 150.0, 0, latency_seconds=60.0)
        assert links.finish_round(delayed, 0) == 3


class TestDownlinkGating:
    def test_gated_rate_is_the_uplink_on_asymmetric_dsl(self):
        model = CostModel()
        assert model.peer_transfer_bps == model.link.upload_bps
        assert model.block_transfer_seconds() == pytest.approx(
            model.block_size / model.link.upload_bps
        )

    def test_starved_downlink_gates_the_transfer(self):
        link = LinkProfile(
            download_bps=1024, upload_bps=8192, name="starved-down"
        )
        model = CostModel(archive_size=1024 * 128, data_blocks=128, link=link)
        assert model.peer_transfer_bps == 1024
        assert model.block_transfer_seconds() == pytest.approx(1.0)
