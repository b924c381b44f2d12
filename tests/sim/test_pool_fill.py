"""The pool fill against a chunk-at-a-time brute-force reference.

``SoaSimulation._fill_pool`` evaluates a continuing fill's chunks in
one array pass over a stamped skip set and walks the chunk boundaries
afterwards.  Its contract is the plain loop below: one chunk of
``pool_chunk_size(needed)`` selection draws at a time, first occurrence
in the fill only, holders, owner and quota-full candidates skipped, the
rule's acceptance draws for every filtered candidate, evaluation cut at
the acceptance that fills the pool.  Every returned id and age, every
``record_pool`` count and both streams' positions must match it, fill
after fill, with draw blocks small enough that windows keep running
into the edges of both streams' blocks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.scenarios import scenario_by_name
from repro.sim.config import ObserverSpec
from repro.sim.engine_soa import SoaSimulation
from repro.sim.rng import DEFAULT_BLOCK, BatchedDraws, pool_chunk_size

#: Draw-block size of the selection stream: a few chunks per block.
BLOCK = 64

#: ``(selection, acceptance)`` draw blocks: small ones that cut windows
#: at block edges, and the engine's own (the regime the benchmark runs,
#: where most fills end in one plain chunk).
BLOCKS = [
    pytest.param((BLOCK, BLOCK), id=str(BLOCK)),
    pytest.param((BLOCK, 9), id="9"),
    pytest.param((DEFAULT_BLOCK, DEFAULT_BLOCK), id=str(DEFAULT_BLOCK)),
]


class _CountedDraws(BatchedDraws):
    """Block-buffered draws that count the pool fill's window peeks."""

    __slots__ = ("peeks",)

    def __init__(self, rng, block):
        super().__init__(rng, block)
        self.peeks = 0

    def peek(self, n):
        self.peeks += 1
        return super().peek(n)


def reference_fill(simulation, owner_id, now, target_size, max_examined):
    """The one-chunk-at-a-time fill, with Python sets for the skip set."""
    state = simulation.state
    n_online = simulation._online_size
    items = simulation._online_items[:n_online].tolist()
    quota = simulation.config.quota
    ids, ages = [], []
    examined = 0
    if n_online:
        budget = 8 * n_online + 64
        owner_age = simulation._age(owner_id, now)
        skip = set(state.holders[owner_id]) | {owner_id}
        check_quota = owner_id >= state.n_observers
        draws = simulation.acceptance.draws_per_candidate
        while budget > 0 and examined < max_examined and len(ids) < target_size:
            needed = target_size - len(ids)
            chunk = min(pool_chunk_size(needed), budget)
            budget -= chunk
            fresh = []
            for uniform in simulation._selection_draws.take_array(chunk).tolist():
                candidate = items[min(int(uniform * n_online), n_online - 1)]
                if candidate in skip:
                    continue
                skip.add(candidate)
                if check_quota and state.quota_used[candidate] >= quota:
                    continue
                fresh.append(candidate)
            fresh_ages = np.array(
                [now - state.join[candidate] for candidate in fresh], dtype=np.int64
            )
            uniforms = simulation._acceptance_draws.take_array(draws * len(fresh))
            accepted = simulation.acceptance.accepts(owner_age, fresh_ages, uniforms)
            for position, ok in enumerate(accepted.tolist()):
                if not ok:
                    continue
                ids.append(fresh[position])
                ages.append(int(fresh_ages[position]))
                if len(ids) == target_size:
                    examined += position + 1
                    break
            else:
                examined += len(fresh)
    simulation.metrics.record_pool(examined, len(ids))
    return np.array(ids, dtype=np.int64), np.array(ages, dtype=np.int64)


def _simulation(population, rule, observers, seed, blocks=(BLOCK, BLOCK), watch=None):
    scenario = (
        scenario_by_name("paper")
        .with_population(population)
        .with_rounds(40)
        .with_acceptance(rule)
        .with_seed(seed)
    )
    if observers:
        scenario = scenario.observers(
            [
                ObserverSpec(name="young", fixed_age=5),
                ObserverSpec(name="old", fixed_age=900),
            ]
        )
    simulation = SoaSimulation(scenario.build())
    if watch is not None:
        watch(simulation)
    simulation.run()
    selection_block, acceptance_block = blocks
    simulation._selection_draws = _CountedDraws(
        simulation.rng.selection, selection_block
    )
    simulation._acceptance_draws = BatchedDraws(
        simulation.rng.acceptance, acceptance_block
    )
    pools = []
    record = simulation.metrics.record_pool

    def record_pool(examined, accepted):
        pools.append((examined, accepted))
        record(examined, accepted)

    simulation.metrics.record_pool = record_pool
    return simulation, pools


def _streams(simulation):
    return [
        (draws._position, draws._np_buffer.tolist(), draws._rng.bit_generator.state)
        for draws in (simulation._selection_draws, simulation._acceptance_draws)
    ]


def _tighten(cases, simulations):
    """Give each simulation the same quota-tight state.

    From a third to most peers at the quota (a few one below), so fills
    often outlast their first chunk; ages spread past the rule's cap,
    so acceptance often says no and fills walk many chunks of their
    windows.
    """
    first = simulations[0]
    count = first.state.count
    tight = cases.random(count) < cases.uniform(0.3, 0.8)
    levels = first.config.quota - (cases.random(count) < 0.1)
    joins = first.round - cases.integers(0, 3 * first.config.age_cap, count)
    for simulation in simulations:
        simulation.state.quota_used[:count][tight] = levels[tight]
        simulation.state.join[:] = joins.tolist()
        simulation.state._join_np[:count] = joins


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("rule", ["age", "uniform"])
@pytest.mark.parametrize("blocks", BLOCKS)
def test_fill_matches_the_chunk_at_a_time_reference(seed, rule, blocks):
    """A short, odd acceptance block cuts windows inside a chunk's draws."""
    cases = np.random.default_rng(seed)
    population = int(cases.integers(20, 301))
    observers = bool(seed % 2)
    engine, engine_pools = _simulation(population, rule, observers, seed, blocks)
    reference, reference_pools = _simulation(
        population, rule, observers, seed, blocks
    )
    state = engine.state
    _tighten(cases, (engine, reference))
    now = engine.round
    owners = [p for p in range(state.count) if state.alive[p]]
    for _ in range(40):
        owner_id = int(cases.choice(owners))
        target_size = int(cases.integers(1, 16))
        max_examined = int(cases.integers(1, 400))
        got = engine._fill_pool(owner_id, now, target_size, max_examined)
        expected = reference_fill(reference, owner_id, now, target_size, max_examined)
        assert got[0].tolist() == expected[0].tolist()
        assert got[1].tolist() == expected[1].tolist()
        assert engine_pools == reference_pools
        assert _streams(engine) == _streams(reference)
        # Direct draws between fills, as ``strategy.order`` makes them:
        # they only match if neither stream was refilled early.
        count = int(cases.integers(0, 4))
        assert (
            engine.rng.selection.random(count).tolist()
            == reference.rng.selection.random(count).tolist()
        )
        # Commit some of the pool as holders, so later fills skip them.
        for simulation, ids in ((engine, got[0]), (reference, expected[0])):
            for holder_id in ids[:2].tolist():
                simulation.state.holders[owner_id].append(holder_id)
    assert engine.metrics.pool_examined == reference.metrics.pool_examined
    assert len(engine_pools) == 40


def test_quota_tight_fills_run_windows():
    """The reference cases above reach the continuation windows."""
    engine, pools = _simulation(250, "age", True, 3)
    state = engine.state
    state.quota_used[: state.count] = engine.config.quota
    state.quota_used[: state.count : 9] = 0
    for owner_id in range(2, 40):
        engine._fill_pool(owner_id, engine.round, 4, 10_000)
    assert engine._selection_draws.peeks > 20
    assert all(accepted == 4 for _, accepted in pools)


def _watch_quota(simulation, seen):
    """Check every selection and commit of ``simulation`` against quota.

    A normal owner's chosen ids must all be below their quota when
    ``_select_candidates`` returns them, and at most at it once
    ``_recruit`` has committed them: the commit re-checks nothing.
    ``seen`` counts the checked ids.
    """
    state = simulation.state
    quota = simulation.config.quota
    select = simulation._select_candidates
    recruit = simulation._recruit

    def select_candidates(owner_id, now, needed):
        chosen = select(owner_id, now, needed)
        if owner_id >= state.n_observers:
            assert (state.quota_used[chosen] < quota).all(), (owner_id, now)
            seen.append(len(chosen))
        return chosen

    def recruit_partners(owner_id, now, needed):
        added = recruit(owner_id, now, needed)
        if added and owner_id >= state.n_observers:
            committed = state.holders[owner_id][-added:]
            assert (state.quota_used[committed] <= quota).all(), (owner_id, now)
        return added

    simulation._select_candidates = select_candidates
    simulation._recruit = recruit_partners


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
def test_selected_partners_are_below_their_quota(seed, vector, monkeypatch):
    """The invariant that lets ``_recruit`` commit without a quota mask.

    Every fill of a run on either toggle kernel, then fills on the
    quota-tight state the reference comparison builds: each id handed
    to a normal owner is below its quota, and the commit keeps it at
    most at the quota.
    """
    if vector:
        monkeypatch.setattr(SoaSimulation, "_VECTOR_POPULATION", 0)
    cases = np.random.default_rng(seed)
    population = int(cases.integers(20, 301))
    seen = []
    engine, _ = _simulation(
        population,
        "age",
        bool(seed % 2),
        seed,
        watch=lambda simulation: _watch_quota(simulation, seen),
    )
    assert engine._vector_kernel is vector
    assert engine.audit() == []
    assert sum(seen) > 0
    run_checked = sum(seen)
    state = engine.state
    # Tighten without lowering a counter below the links a peer holds:
    # its owner row must keep room for every commit the counter allows.
    held = state.quota_used[: state.count].copy()
    _tighten(cases, (engine,))
    counters = state.quota_used[: state.count]
    np.maximum(counters, held, out=counters)
    owners = [p for p in range(state.count) if state.alive[p]]
    for _ in range(40):
        owner_id = int(cases.choice(owners))
        engine._recruit(owner_id, engine.round, int(cases.integers(1, 16)))
    assert sum(seen) > run_checked
