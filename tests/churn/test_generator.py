"""Tests for the standalone churn-trace generator."""

import numpy as np
import pytest

from repro.churn.generator import (
    ChurnEvent,
    ChurnTraceGenerator,
    draw_profile,
    observed_lifetimes,
)
from repro.churn.profiles import PAPER_PROFILES, Profile


class TestChurnEvent:
    def test_valid_kinds(self):
        for kind in ("join", "leave", "online", "offline"):
            assert ChurnEvent(1, 2, kind).kind == kind

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            ChurnEvent(1, 2, "vanish")


class TestDrawProfile:
    def test_respects_proportions(self):
        rng = np.random.default_rng(0)
        counts = {p.name: 0 for p in PAPER_PROFILES}
        for _ in range(8000):
            counts[draw_profile(rng, PAPER_PROFILES).name] += 1
        for profile in PAPER_PROFILES:
            assert counts[profile.name] / 8000 == pytest.approx(
                profile.proportion, abs=0.03
            )


class TestGenerator:
    def make(self, **kwargs):
        defaults = dict(population=50, horizon=5000, seed=3)
        defaults.update(kwargs)
        return ChurnTraceGenerator(**defaults)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChurnTraceGenerator(population=0, horizon=10)
        with pytest.raises(ValueError):
            ChurnTraceGenerator(population=10, horizon=0)

    def test_population_is_maintained(self):
        generator = self.make()
        traces = generator.generate()
        # Departed peers are replaced, so trace count >= population.
        assert len(traces) >= 50
        initial = [t for t in traces if t.join_round == 0]
        assert len(initial) == 50

    def test_replacements_join_when_predecessor_leaves(self):
        traces = self.make().generate()
        join_rounds = sorted(t.join_round for t in traces if t.join_round > 0)
        leave_rounds = sorted(
            t.leave_round for t in traces
            if t.leave_round is not None and t.leave_round < 5000
        )
        assert join_rounds == leave_rounds

    def test_events_are_chronological_per_peer(self):
        for trace in self.make().generate():
            rounds = [event.round for event in trace.events]
            assert rounds == sorted(rounds)

    def test_first_event_is_join(self):
        for trace in self.make().generate():
            if trace.events:
                assert trace.events[0].kind == "join"
                assert trace.events[0].round == trace.join_round

    def test_leave_event_matches_lifetime(self):
        for trace in self.make().generate():
            leaves = [e for e in trace.events if e.kind == "leave"]
            if leaves:
                assert leaves[0].round == trace.leave_round

    def test_determinism(self):
        a = self.make(seed=11).generate()
        b = self.make(seed=11).generate()
        assert [(t.peer_id, t.join_round, t.lifetime) for t in a] == [
            (t.peer_id, t.join_round, t.lifetime) for t in b
        ]

    def test_different_seeds_differ(self):
        a = self.make(seed=1).generate()
        b = self.make(seed=2).generate()
        assert [t.lifetime for t in a] != [t.lifetime for t in b]


class TestObservedLifetimes:
    def test_excludes_censored(self):
        durable_only = (
            Profile("OnlyDurable", 1.0, None, 0.9),
        )
        generator = ChurnTraceGenerator(
            population=10, horizon=100, profiles=durable_only, seed=0
        )
        traces = generator.generate()
        assert observed_lifetimes(traces, 100).size == 0

    def test_includes_completed(self):
        short = (Profile("Short", 1.0, (5, 10), 0.9),)
        generator = ChurnTraceGenerator(
            population=20, horizon=1000, profiles=short, seed=0
        )
        traces = generator.generate()
        lifetimes = observed_lifetimes(traces, 1000)
        assert lifetimes.size > 0
        assert np.all(lifetimes >= 5)
        assert np.all(lifetimes <= 10)
        assert not np.any(np.isinf(lifetimes))
