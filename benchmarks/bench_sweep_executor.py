"""Benchmark the sweep executor: serial, process-pool and distributed.

Not a paper artifact — this measures the execution subsystem itself:
the parallel speedup the process-pool and distributed backends buy on
a multi-core host, and that they buy it without changing a single byte
of the results.  The workload is a small threshold sweep (4 cells) of
the event-driven simulator, the same cell shape every figure runs, plus
a suite of one-cell specs planned on one executor (``all`` in
miniature).
"""

import multiprocessing

from repro.exec import (
    ExperimentSpec,
    ResultCache,
    SweepExecutor,
    canonical_json,
)
from repro.sim.config import SimulationConfig

#: Enough cells to keep two workers busy, small enough for CI.
CELL_SEEDS = (0, 1)
CELL_THRESHOLDS = (18, 20)


def _bench_spec() -> ExperimentSpec:
    base = SimulationConfig.scaled(
        population=250, rounds=2500, data_blocks=16, parity_blocks=16
    )
    return ExperimentSpec(
        name="bench-sweep",
        build=lambda params: base.with_threshold(params["threshold"]),
        grid={"threshold": CELL_THRESHOLDS},
        seeds=CELL_SEEDS,
    )


def test_sweep_executor_serial(run_once):
    """Baseline: all cells in-process, one after the other."""
    sweep = run_once(SweepExecutor(workers=1).run, _bench_spec())
    assert len(sweep) == 4
    assert sweep.stats.simulated == 4


def test_sweep_executor_two_workers(run_once):
    """Process-pool backend; compare wall clock against the serial run."""
    sweep = run_once(SweepExecutor(workers=2).run, _bench_spec())
    assert len(sweep) == 4
    assert sweep.stats.simulated == 4


def _suite_specs():
    """Three one-cell specs and a repeat of the first (a shared cell)."""
    base = SimulationConfig.scaled(
        population=250, rounds=2500, data_blocks=16, parity_blocks=16
    )
    specs = [
        ExperimentSpec(
            name=f"bench-suite-{threshold}",
            build=lambda params, threshold=threshold: base.with_threshold(
                threshold
            ),
            seeds=(0,),
        )
        for threshold in CELL_THRESHOLDS + (22,)
    ]
    return specs + specs[:1]


def _planned_suite():
    executor = SweepExecutor(workers=2)
    specs = _suite_specs()
    executor.plan(specs)
    return [executor.run(spec) for spec in specs]


def test_sweep_executor_planned_specs_two_workers(run_once):
    """Planned one-cell specs share one pool pass; run one by one, each
    would simulate its single cell in-process."""
    sweeps = run_once(_planned_suite)
    assert [sweep.stats.simulated for sweep in sweeps] == [1, 1, 1, 0]


def _drain_bench_cells(cache_dir: str) -> None:
    """Helper-process entry point for the distributed benchmark."""
    SweepExecutor(
        cache=ResultCache(cache_dir),
        backend="distributed",
        worker_id="bench-helper",
        poll_interval=0.05,
    ).run(_bench_spec())


def test_sweep_executor_distributed_two_workers(run_once, tmp_path):
    """Distributed backend: this process plus one worker process
    sharing a cache directory — the multi-host topology in miniature."""
    cache_dir = str(tmp_path / "cache")
    helper = multiprocessing.Process(
        target=_drain_bench_cells, args=(cache_dir,)
    )

    def sharded_sweep():
        helper.start()
        try:
            return SweepExecutor(
                cache=ResultCache(cache_dir),
                backend="distributed",
                worker_id="bench-main",
                poll_interval=0.05,
            ).run(_bench_spec())
        finally:
            helper.join(timeout=300)

    sweep = run_once(sharded_sweep)
    assert len(sweep) == 4
    assert sweep.stats.simulated + sweep.stats.cache_hits == 4


def test_sweep_executor_backends_agree(tmp_path):
    """The speedup is free: serialized results are byte-identical."""
    serial = SweepExecutor(workers=1).run(_bench_spec())
    pooled = SweepExecutor(workers=2).run(_bench_spec())
    distributed = SweepExecutor(
        cache=ResultCache(tmp_path / "cache"),
        backend="distributed",
        poll_interval=0.05,
    ).run(_bench_spec())
    serial_bytes = [canonical_json(r.to_dict()) for r in serial.results]
    pooled_bytes = [canonical_json(r.to_dict()) for r in pooled.results]
    shard_bytes = [canonical_json(r.to_dict()) for r in distributed.results]
    assert serial_bytes == pooled_bytes
    assert serial_bytes == shard_bytes
