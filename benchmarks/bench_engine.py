"""Engine hot-loop benchmark: the paper workload, end to end.

This is the perf-trajectory anchor for the simulation engines themselves
(event queue, recruitment loop, visibility flips) — the figure and
ablation benches above it measure whole experiments, which mixes in
executor and analysis cost.  Workloads on the ``paper`` scenario preset:

* ``soa-quick`` / ``soa-default-scale`` — the default ``abstract_soa``
  engine at quick size (250 peers, 3 000 rounds) and at the ``default``
  experiment scale (800 peers, 14 000 rounds: the configuration whose
  wall clock ``BENCH_engine.json`` tracks commit over commit).  Both
  are the CI ``bench-smoke`` regression gate
  (``scripts/check_bench_regression.py``);
* ``soa-swarm-quick`` — the default engine above its 50 000-peer
  vector cut-over (50 000 peers joining over 12 rounds, 60 rounds):
  the vectorised toggle branch, the array pool fill and the owner
  matrix, the swarm-scale paths the other quick benches never reach;
* ``protocol-quick`` / ``protocol-default-scale`` — the same workloads
  at the ``protocol`` fidelity: every repair is a real store/fetch
  exchange gated by the bandwidth model, so these track the
  message-level overhead relative to the default engine;
* ``protocol-impaired-quick`` — the protocol quick workload under the
  worst netem preset (30% loss, 50 ms ± 5 ms), so the impairment
  sampler, drop handling and retry/backoff machinery have their own
  trajectory line: the delta against ``protocol-quick`` is the price of
  fault injection.

Run with ``--bench-json BENCH_engine.json`` to append trajectory
records (see ``conftest.py`` for the format).
"""

from __future__ import annotations

import pytest

from repro.scenarios import scenario_by_name
from repro.sim.engine import run_simulation


@pytest.mark.scenario("paper-protocol-quick")
def test_engine_paper_protocol_quick(run_once):
    config = (
        scenario_by_name("paper")
        .with_population(250)
        .with_rounds(3000)
        .with_fidelity("protocol")
        .build()
    )
    result = run_once(run_simulation, config)
    assert result.final_round == 3000
    assert result.metrics.protocol["transfers_completed"] > 0
    assert result.metrics.total_repairs > 0


@pytest.mark.scenario("paper-protocol-impaired-quick")
def test_engine_paper_protocol_impaired_quick(run_once):
    config = (
        scenario_by_name("paper")
        .with_population(250)
        .with_rounds(3000)
        .with_fidelity("protocol")
        .with_impairment("loss30_delay50ms_jitter5ms")
        .build()
    )
    result = run_once(run_simulation, config)
    assert result.final_round == 3000
    assert result.metrics.protocol["drops"] > 0
    assert result.metrics.protocol["retries"] > 0
    assert result.metrics.total_repairs > 0


@pytest.mark.scenario("paper-soa-quick")
def test_engine_paper_soa_quick(run_once):
    config = (
        scenario_by_name("paper")
        .with_population(250)
        .with_rounds(3000)
        .with_fidelity("abstract_soa")
        .build()
    )
    result = run_once(run_simulation, config)
    assert result.final_round == 3000
    assert result.metrics.total_placements > 0


@pytest.mark.scenario("paper-soa-swarm-quick")
def test_engine_paper_soa_swarm_quick(run_once):
    config = (
        scenario_by_name("paper")
        .with_population(50_000)
        .with_rounds(60)
        .with_staggered_join(12)
        .with_fidelity("abstract_soa")
        .build()
    )
    result = run_once(run_simulation, config)
    assert result.final_round == 60
    assert result.metrics.total_placements >= 50_000
    assert result.metrics.total_repairs > 0


@pytest.mark.scenario("paper-soa-default-scale")
def test_engine_paper_soa_default_scale(run_once):
    config = (
        scenario_by_name("paper")
        .with_population(800)
        .with_rounds(14000)
        .with_fidelity("abstract_soa")
        .build()
    )
    result = run_once(run_simulation, config)
    assert result.final_round == 14000
    assert result.metrics.total_repairs > 0
    assert result.deaths > 0


@pytest.mark.scenario("paper-protocol-default-scale")
def test_engine_paper_protocol_default_scale(run_once):
    config = (
        scenario_by_name("paper")
        .with_population(800)
        .with_rounds(14000)
        .with_fidelity("protocol")
        .build()
    )
    result = run_once(run_simulation, config)
    assert result.final_round == 14000
    assert result.metrics.protocol["transfers_completed"] > 0
