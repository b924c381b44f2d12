"""Executor tests: backend determinism, caching, progress, reduction.

The load-bearing guarantee: one spec produces byte-identical serialized
results through the serial backend, the process-pool backend and a
cache round trip.
"""

import pytest

from repro.exec import (
    EXECUTION_BACKENDS,
    ExecutionBackend,
    ExperimentSpec,
    ResultCache,
    SweepExecutor,
    canonical_json,
    run_experiment,
)
from repro.sim.config import SimulationConfig


def small_config():
    return SimulationConfig(
        population=40,
        rounds=250,
        data_blocks=8,
        parity_blocks=8,
        repair_threshold=10,
        quota=24,
        seed=0,
    )


def small_spec(reduce=None):
    base = small_config()
    return ExperimentSpec(
        name="exec-test",
        build=lambda params: base.with_threshold(params["threshold"]),
        grid={"threshold": (9, 11)},
        seeds=(0, 1),
        reduce=reduce,
    )


def serialized(sweep):
    return [canonical_json(result.to_dict()) for result in sweep.results]


class TestBackendDeterminism:
    def test_serial_and_pool_results_byte_identical(self):
        serial = SweepExecutor(workers=1).run(small_spec())
        pooled = SweepExecutor(workers=2).run(small_spec())
        assert serialized(serial) == serialized(pooled)

    def test_worker_count_does_not_change_results(self):
        two = SweepExecutor(workers=2).run(small_spec())
        four = SweepExecutor(workers=4).run(small_spec())
        assert serialized(two) == serialized(four)

    def test_results_align_with_cells(self):
        sweep = SweepExecutor(workers=2).run(small_spec())
        for cell, result in sweep:
            assert result.config.repair_threshold == cell.param("threshold")
            assert result.config.seed == cell.seed

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            SweepExecutor(workers=0)


class TestBackendRegistry:
    def test_shipped_backends_registered(self):
        for name in ("serial", "process", "distributed"):
            assert name in EXECUTION_BACKENDS
            assert issubclass(EXECUTION_BACKENDS.get(name), ExecutionBackend)

    def test_backend_resolution_follows_worker_count(self):
        assert SweepExecutor().backend_name == "serial"
        assert SweepExecutor(workers=4).backend_name == "process"

    def test_explicit_backend_overrides_worker_count(self):
        assert SweepExecutor(workers=4, backend="serial").backend_name == "serial"

    def test_unknown_backend_rejected_with_choices(self):
        with pytest.raises(ValueError) as error:
            SweepExecutor(backend="carrier-pigeon")
        assert "serial" in str(error.value)

    def test_explicit_serial_backend_runs(self):
        sweep = SweepExecutor(backend="serial").run(small_spec())
        assert sweep.stats.simulated == 4

    def test_user_registered_backend_is_resolved(self):
        calls = []

        @EXECUTION_BACKENDS.register("recording-serial")
        class RecordingSerial(ExecutionBackend):
            name = "recording-serial"

            def execute(self, executor, cells, pending, digests, finish):
                calls.append(len(pending))
                EXECUTION_BACKENDS.get("serial")().execute(
                    executor, cells, pending, digests, finish
                )

        try:
            sweep = SweepExecutor(backend="recording-serial").run(small_spec())
        finally:
            EXECUTION_BACKENDS.unregister("recording-serial")
        assert calls == [4]
        assert sweep.stats.simulated == 4


class TestCache:
    def test_cold_run_simulates_everything(self, tmp_path):
        executor = SweepExecutor(cache=ResultCache(tmp_path))
        sweep = executor.run(small_spec())
        assert sweep.stats.simulated == 4
        assert sweep.stats.cache_hits == 0

    def test_warm_rerun_simulates_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = SweepExecutor(cache=cache).run(small_spec())
        second = SweepExecutor(cache=cache).run(small_spec())
        assert second.stats.simulated == 0
        assert second.stats.cache_hits == 4
        assert serialized(first) == serialized(second)

    def test_cache_shared_across_overlapping_specs(self, tmp_path):
        # Figures 1 and 2 share their sweep cells; the cache models that.
        cache = ResultCache(tmp_path)
        SweepExecutor(cache=cache).run(small_spec())
        base = small_config()
        overlapping = ExperimentSpec(
            name="other-name",  # the name does not affect cache keys
            build=lambda params: base.with_threshold(params["threshold"]),
            grid={"threshold": (11, 13)},
            seeds=(0, 1),
        )
        sweep = SweepExecutor(cache=cache).run(overlapping)
        assert sweep.stats.cache_hits == 2   # threshold 11, both seeds
        assert sweep.stats.simulated == 2    # threshold 13, both seeds

    def test_changed_parameter_misses_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepExecutor(cache=cache).run(small_spec())
        changed = ExperimentSpec(
            name="exec-test",
            build=lambda params: small_config()
            .with_threshold(params["threshold"]),
            grid={"threshold": (9, 11)},
            seeds=(2,),  # new seed = new cell content
        )
        sweep = SweepExecutor(cache=cache).run(changed)
        assert sweep.stats.simulated == 2

    def test_corrupted_entry_behaves_like_miss(self, tmp_path):
        from repro.exec import config_digest

        cache = ResultCache(tmp_path)
        spec = small_spec()
        SweepExecutor(cache=cache).run(spec)
        victim = config_digest(spec.cells()[0].config)
        cache.path_for(victim).write_text("{ truncated", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="corrupt result-cache entry"):
            sweep = SweepExecutor(cache=cache).run(spec)
        assert sweep.stats.simulated == 1
        assert sweep.stats.cache_hits == 3

    def test_memo_shares_cells_without_disk_cache(self):
        # Figures 1 and 2 share one executor: the second sweep over the
        # same cells must not re-simulate even with no cache directory.
        executor = SweepExecutor()
        first = executor.run(small_spec())
        second = executor.run(small_spec())
        assert first.stats.simulated == 4
        assert second.stats.simulated == 0
        assert second.stats.cache_hits == 4
        assert serialized(first) == serialized(second)

    def test_memo_is_per_executor(self):
        SweepExecutor().run(small_spec())
        fresh = SweepExecutor().run(small_spec())
        assert fresh.stats.simulated == 4

    def test_digest_salted_with_code_version(self, monkeypatch):
        # A schema bump must invalidate every existing entry, so stale
        # results can never be served after simulator changes.
        from repro.exec import cache as cache_module
        from repro.exec import config_digest

        spec = small_spec()
        before = config_digest(spec.cells()[0].config)
        monkeypatch.setattr(
            cache_module,
            "CACHE_SCHEMA_VERSION",
            cache_module.CACHE_SCHEMA_VERSION + 1,
        )
        assert config_digest(spec.cells()[0].config) != before

    def test_executor_accumulates_stats(self, tmp_path):
        executor = SweepExecutor(cache=ResultCache(tmp_path))
        executor.run(small_spec())
        executor.run(small_spec())
        assert executor.stats.simulated == 4
        assert executor.stats.cache_hits == 4
        assert executor.stats.cells == 8


class TestProgressAndReduce:
    def test_progress_callback_sees_every_cell(self):
        seen = []
        executor = SweepExecutor(
            progress=lambda done, total, cell, source: seen.append(
                (done, total, source)
            )
        )
        executor.run(small_spec())
        assert len(seen) == 4
        assert [entry[0] for entry in seen] == [1, 2, 3, 4]
        assert all(entry[1] == 4 for entry in seen)
        assert all(entry[2] == "run" for entry in seen)

    def test_progress_reports_cache_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepExecutor(cache=cache).run(small_spec())
        seen = []
        SweepExecutor(
            cache=cache,
            progress=lambda done, total, cell, source: seen.append(source),
        ).run(small_spec())
        assert seen == ["cache"] * 4

    def test_run_experiment_applies_reducer(self):
        artifact = run_experiment(
            small_spec(reduce=lambda sweep: sorted(sweep.by_axis("threshold")))
        )
        assert artifact == [9, 11]

    def test_run_experiment_without_reducer_returns_sweep(self):
        sweep = run_experiment(small_spec())
        assert len(sweep) == 4

    def test_by_axis_unknown_axis_rejected(self):
        sweep = SweepExecutor().run(small_spec())
        with pytest.raises(ValueError):
            sweep.by_axis("quota")
