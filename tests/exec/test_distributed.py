"""Distributed backend tests: leases, failure modes, byte-identity.

The load-bearing guarantees, straight from the ISSUE-4 acceptance
criteria: a sweep sharded across concurrent worker processes over a
shared cache directory is byte-identical to the serial backend; two
workers racing for one cell produce exactly one winner; a worker killed
mid-cell loses only that cell (its lease expires and the cell re-runs);
and a resumed sweep reuses every published cell.
"""

import json
import multiprocessing
import os
import threading
import time
from pathlib import Path

import pytest

from repro.exec import (
    ExperimentSpec,
    LeaseDirectory,
    ResultCache,
    SweepExecutor,
    canonical_json,
    config_digest,
)
from repro.exec import executor as executor_module
from repro.exec.executor import _execute_cell
from repro.sim.config import SimulationConfig

DIGEST = "ab" * 32  # any digest-shaped key; leases never parse it


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


def small_spec():
    base = small_config()
    return ExperimentSpec(
        name="dist-test",
        build=lambda params: base.with_threshold(params["threshold"]),
        grid={"threshold": (9, 11)},
        seeds=(0, 1),
    )


def serialized(sweep):
    return [canonical_json(result.to_dict()) for result in sweep.results]


def _drain(cache_dir, out_path, worker_id, lease_ttl=30.0):
    """Child-process entry point: run the shared sweep, dump stats.

    Module-level so ``multiprocessing`` can pickle it; the spec is
    rebuilt locally because specs carry lambdas.
    """
    sweep = SweepExecutor(
        cache=ResultCache(cache_dir),
        backend="distributed",
        worker_id=worker_id,
        lease_ttl=lease_ttl,
        poll_interval=0.05,
    ).run(small_spec())
    Path(out_path).write_text(
        json.dumps(
            {
                "worker": worker_id,
                "simulated": sweep.stats.simulated,
                "cache_hits": sweep.stats.cache_hits,
                "results": serialized(sweep),
            }
        ),
        encoding="utf-8",
    )


class TestLeaseDirectory:
    def test_acquire_blocks_second_worker(self, tmp_path):
        first = LeaseDirectory(tmp_path, worker_id="w1")
        second = LeaseDirectory(tmp_path, worker_id="w2")
        assert first.try_acquire(DIGEST)
        assert not second.try_acquire(DIGEST)

    def test_release_frees_the_cell(self, tmp_path):
        first = LeaseDirectory(tmp_path, worker_id="w1")
        second = LeaseDirectory(tmp_path, worker_id="w2")
        assert first.try_acquire(DIGEST)
        first.release(DIGEST)
        assert second.try_acquire(DIGEST)

    def test_racing_claims_have_exactly_one_winner(self, tmp_path):
        contenders = 8
        barrier = threading.Barrier(contenders)
        wins = []

        def contend(worker_id):
            leases = LeaseDirectory(tmp_path, worker_id=worker_id)
            barrier.wait()
            if leases.try_acquire(DIGEST):
                wins.append(worker_id)

        threads = [
            threading.Thread(target=contend, args=(f"w{i}",))
            for i in range(contenders)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(wins) == 1

    def test_expired_lease_is_stolen(self, tmp_path):
        dead = LeaseDirectory(tmp_path, worker_id="dead", ttl=0.05)
        live = LeaseDirectory(tmp_path, worker_id="live")
        assert dead.try_acquire(DIGEST)
        time.sleep(0.15)  # expiry judged by the TTL recorded in the lease
        assert live.try_acquire(DIGEST)
        info = live.read(DIGEST)
        assert info is not None and info.worker_id == "live"

    def test_release_does_not_clobber_a_stolen_lease(self, tmp_path):
        # A worker wrongly presumed dead (paused > ttl) must not delete
        # the lease of whoever stole its cell.
        dead = LeaseDirectory(tmp_path, worker_id="dead", ttl=0.05)
        live = LeaseDirectory(tmp_path, worker_id="live")
        assert dead.try_acquire(DIGEST)
        time.sleep(0.15)
        assert live.try_acquire(DIGEST)
        dead.release(DIGEST)
        info = live.read(DIGEST)
        assert info is not None and info.worker_id == "live"

    def test_heartbeat_keeps_the_lease_alive(self, tmp_path):
        holder = LeaseDirectory(tmp_path, worker_id="holder", ttl=0.3)
        rival = LeaseDirectory(tmp_path, worker_id="rival")
        assert holder.try_acquire(DIGEST)
        with holder.heartbeating(DIGEST, interval=0.05):
            time.sleep(0.6)  # two full TTLs — dead without heartbeats
            assert not rival.try_acquire(DIGEST)
        info = rival.read(DIGEST)
        assert info is not None and info.worker_id == "holder"

    def test_corrupt_lease_is_reclaimed(self, tmp_path):
        leases = LeaseDirectory(tmp_path, worker_id="w1")
        path = leases.path_for(DIGEST)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{ not json", encoding="utf-8")
        assert leases.read(DIGEST) is None
        assert leases.try_acquire(DIGEST)

    def test_held_tracks_acquire_and_release(self, tmp_path):
        leases = LeaseDirectory(tmp_path, worker_id="w1")
        assert leases.held() == []
        leases.try_acquire(DIGEST)
        assert leases.held() == [DIGEST]
        leases.release(DIGEST)
        assert leases.held() == []

    def test_heartbeat_preserves_acquired_at(self, tmp_path):
        leases = LeaseDirectory(tmp_path, worker_id="w1")
        leases.try_acquire(DIGEST)
        acquired = leases.read(DIGEST).acquired_at
        time.sleep(0.05)
        leases.heartbeat(DIGEST)
        info = leases.read(DIGEST)
        assert info.acquired_at == acquired
        assert info.heartbeat_at > acquired

    def test_invalid_ttl_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            LeaseDirectory(tmp_path, ttl=0)


class TestDistributedBackend:
    def test_requires_a_cache(self):
        with pytest.raises(ValueError):
            SweepExecutor(backend="distributed")

    def test_single_worker_matches_serial_byte_identical(self, tmp_path):
        serial = SweepExecutor().run(small_spec())
        distributed = SweepExecutor(
            cache=ResultCache(tmp_path),
            backend="distributed",
            poll_interval=0.05,
        ).run(small_spec())
        assert serialized(serial) == serialized(distributed)
        assert distributed.stats.simulated == 4

    def test_pooled_distributed_matches_serial(self, tmp_path):
        # workers > 1 composes local pooling with distributed leasing:
        # this participant claims up to `workers` leases and runs them
        # on a process pool, still byte-identical to serial.
        serial = SweepExecutor().run(small_spec())
        pooled = SweepExecutor(
            workers=2,
            cache=ResultCache(tmp_path),
            backend="distributed",
            poll_interval=0.05,
        ).run(small_spec())
        assert pooled.stats.simulated == 4
        assert serialized(serial) == serialized(pooled)
        # Everything published, every lease released.
        assert ResultCache(tmp_path).entry_count() == 4
        assert list(ResultCache(tmp_path).lease_root.glob("*.lease")) == []

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the recording wrapper reaches pool workers only by fork",
    )
    def test_each_pooled_cell_runs_in_a_fresh_process(
        self, monkeypatch, tmp_path
    ):
        # A reused worker carries the heap of its earlier cells, so a
        # participant's peak memory would depend on which cells it ran.
        log = tmp_path / "pids"
        execute = executor_module._execute_cell

        def recording(config_payload):
            with open(log, "a", encoding="utf-8") as out:
                out.write(f"{os.getpid()}\n")
            return execute(config_payload)

        monkeypatch.setattr(executor_module, "_execute_cell", recording)
        SweepExecutor(
            workers=2,
            cache=ResultCache(tmp_path / "cache"),
            backend="distributed",
            poll_interval=0.05,
        ).run(small_spec())
        pids = log.read_text(encoding="utf-8").split()
        assert len(pids) == small_spec().cell_count
        assert len(set(pids)) == len(pids)
        assert str(os.getpid()) not in pids

    def test_resumed_sweep_reuses_every_published_cell(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = SweepExecutor(
            cache=cache, backend="distributed", poll_interval=0.05
        ).run(small_spec())
        resumed = SweepExecutor(
            cache=cache, backend="distributed", poll_interval=0.05
        ).run(small_spec())
        assert resumed.stats.simulated == 0
        assert resumed.stats.cache_hits == 4
        assert serialized(first) == serialized(resumed)

    def test_crashed_workers_cell_is_reclaimed_and_rerun(self, tmp_path):
        # A worker that died mid-cell leaves a lease that stops
        # heartbeating; after its recorded TTL any worker re-runs it.
        cache = ResultCache(tmp_path)
        victim = small_spec().cells()[0]
        stale = LeaseDirectory(
            cache.lease_root, worker_id="crashed", ttl=0.05
        )
        assert stale.try_acquire(config_digest(victim.config))
        time.sleep(0.15)
        sweep = SweepExecutor(
            cache=cache, backend="distributed", poll_interval=0.05
        ).run(small_spec())
        assert sweep.stats.simulated == 4
        assert serialized(sweep) == serialized(SweepExecutor().run(small_spec()))

    def test_waits_for_a_live_peers_result(self, tmp_path):
        # A cell leased by a live (heartbeating) peer is never stolen;
        # its published result is picked up as a cache hit.
        cache = ResultCache(tmp_path)
        cell = small_spec().cells()[0]
        digest = config_digest(cell.config)
        peer = LeaseDirectory(cache.lease_root, worker_id="peer", ttl=5.0)
        assert peer.try_acquire(digest)

        def compute_and_publish():
            payload = _execute_cell(cell.config.to_dict())
            time.sleep(0.3)
            cache.store(digest, payload)
            peer.release(digest)

        thread = threading.Thread(target=compute_and_publish)
        thread.start()
        try:
            sweep = SweepExecutor(
                cache=cache, backend="distributed", poll_interval=0.02
            ).run(small_spec())
        finally:
            thread.join()
        assert sweep.stats.simulated == 3
        assert sweep.stats.cache_hits == 1
        assert serialized(sweep) == serialized(SweepExecutor().run(small_spec()))


class TestMultiProcessSharding:
    def test_two_workers_share_the_sweep_and_agree_with_serial(
        self, tmp_path
    ):
        # The acceptance criterion: >= 2 concurrent worker processes
        # over one shared cache dir, byte-identical to serial, no cell
        # simulated twice.
        serial = SweepExecutor().run(small_spec())
        outs = [tmp_path / "w1.json", tmp_path / "w2.json"]
        workers = [
            multiprocessing.Process(
                target=_drain,
                args=(str(tmp_path / "cache"), str(out), f"w{i}"),
            )
            for i, out in enumerate(outs, start=1)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0
        reports = [
            json.loads(out.read_text(encoding="utf-8")) for out in outs
        ]
        for report in reports:
            assert report["results"] == serialized(serial)
        assert sum(report["simulated"] for report in reports) == 4

    def test_killed_worker_loses_no_published_cells(self, tmp_path):
        # Kill a worker mid-sweep; whatever it published stays
        # published, its in-flight lease expires, and a resumed sweep
        # simulates only what is genuinely missing.
        cache_dir = tmp_path / "cache"
        cache = ResultCache(cache_dir)
        worker = multiprocessing.Process(
            target=_drain,
            args=(str(cache_dir), str(tmp_path / "w.json"), "victim", 0.5),
        )
        worker.start()
        deadline = time.time() + 60  # replint: disable=R001 (polls real lease wall-clock)
        while cache.entry_count() < 1 and time.time() < deadline:  # replint: disable=R001
            time.sleep(0.02)
        worker.terminate()
        worker.join(timeout=30)
        published = cache.entry_count()
        assert published >= 1

        resumed = SweepExecutor(
            cache=cache, backend="distributed", poll_interval=0.05
        ).run(small_spec())
        assert resumed.stats.cache_hits >= published
        assert resumed.stats.cache_hits + resumed.stats.simulated == 4
        assert serialized(resumed) == serialized(
            SweepExecutor().run(small_spec())
        )
