"""Coordinator-less distributed sweep backend over a shared cache directory.

Any number of worker processes — on one host or on many hosts sharing a
mount (NFS or anything with atomic ``link``/``rename``) — run the same
:class:`~repro.exec.spec.ExperimentSpec` against the same
:class:`~repro.exec.cache.ResultCache` directory.  There is no network
protocol and no dedicated coordinator: the shared filesystem is the
whole control plane.

* **Claiming.**  A worker claims a cell by writing its lease payload
  to a private file and hard-linking it to
  ``<cache>/leases/<digest>.lease``; ``link(2)`` succeeds for exactly
  one contender, and the lease is only ever visible with full content.
  The content-addressed config digest doubles as the queue key, so
  every worker derives an identical work list from the spec alone.
* **Heartbeating.**  While simulating, a daemon thread rewrites the
  lease every ``ttl / 4`` seconds.  A lease whose heartbeat is older
  than its recorded ``ttl`` is *abandoned*: any worker may steal it by
  renaming it aside (one ``rename`` winner) and re-claiming, so a
  killed worker loses only the cell it was computing.
* **Publishing.**  Finished payloads go through
  :meth:`ResultCache.store` (atomic write + rename) *before* the lease
  is released; other workers pick them up as cache hits.

Correctness never rests on the leases.  Cells are deterministic
functions of their config digest and the cache store is atomic and
last-writer-wins over identical bytes, so the worst a lease race or a
clock-skewed steal can cost is duplicated work — never divergent
results.  That is the invariant that makes cells location-transparent:
serial, process-pool and distributed executions of one spec are
byte-identical (see ``tests/exec/test_distributed.py``).

Operational notes: ``ttl`` must comfortably exceed both one cell's
heartbeat gap and cross-host clock skew (the default of 60 s assumes
NTP-sane hosts); on NFSv3 mount with actimeo small enough that lease
mtimes propagate faster than ``ttl``.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from .executor import (
    EXECUTION_BACKENDS,
    ExecutionBackend,
    _execute_cell,
    _execute_indexed,
)

#: Seconds without a heartbeat before a lease counts as abandoned.
DEFAULT_LEASE_TTL = 60.0

#: Seconds a worker sleeps between passes when every remaining cell is
#: leased out to live peers.
DEFAULT_POLL_INTERVAL = 0.2


def default_worker_id() -> str:
    """A worker identity unique per process: ``<hostname>-<pid>``."""
    return f"{socket.gethostname()}-{os.getpid()}"


@dataclass(frozen=True)
class LeaseInfo:
    """The decoded content of one lease file."""

    worker_id: str
    pid: int
    host: str
    acquired_at: float
    heartbeat_at: float
    ttl: float

    def expired(self, now: Optional[float] = None) -> bool:
        """True once the holder has missed heartbeats for a full TTL.

        Expiry is judged against the TTL *recorded in the lease* (the
        holder's own promise), so workers with different settings agree
        on when a lease is dead.
        """
        now = time.time() if now is None else now  # replint: disable=R001 (lease liveness is wall-clock by design)
        return now > self.heartbeat_at + self.ttl


class LeaseDirectory:
    """Atomic cell leases in a shared directory.

    One instance per worker: ``worker_id`` identifies this process in
    lease files, ``ttl`` is the abandonment promise it records in the
    leases it takes.  All methods are safe under concurrent use from
    any number of workers on any number of hosts sharing the directory.
    """

    def __init__(
        self,
        root: Union[str, Path],
        worker_id: Optional[str] = None,
        ttl: float = DEFAULT_LEASE_TTL,
    ):
        if ttl <= 0:
            raise ValueError(f"lease ttl must be positive, got {ttl}")
        self.root = Path(root)
        self.worker_id = worker_id or default_worker_id()
        self.ttl = float(ttl)
        # acquired_at of leases this worker currently holds, so
        # heartbeats preserve the original acquisition time.
        self._held: Dict[str, float] = {}

    def path_for(self, digest: str) -> Path:
        """Where the lease file of one cell digest lives."""
        return self.root / f"{digest}.lease"

    # ------------------------------------------------------------------
    # Claim / release
    # ------------------------------------------------------------------
    def try_acquire(self, digest: str) -> bool:
        """Claim one cell; True when this worker now holds the lease.

        A fresh cell is claimed by hard-linking a fully-written lease
        payload into place (exactly one winner among racing workers).
        A lease whose heartbeat expired — its worker was killed or
        lost the mount — is stolen: the stale file is renamed aside
        (again one winner) and the claim retried.
        """
        path = self.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Read before writing: polling workers retry leased cells every
        # poll interval, and a live lease must cost one read — not a
        # write-temp/link/unlink cycle of shared-mount metadata traffic.
        info = self.read(digest)
        if info is not None and not info.expired():
            return False
        if info is None:
            # Free (or vanished mid-read): race the claim directly.
            if self._create(digest, path):
                return True
            info = self.read(digest)  # lost the race — to whom?
            if info is not None and not info.expired():
                return False
        # Abandoned (or unreadable) lease: steal it.  Renaming to a
        # unique tombstone arbitrates concurrent stealers — rename(2)
        # succeeds for exactly one of them, the rest lose the source.
        tombstone = path.with_name(f"{path.name}.stale-{uuid.uuid4().hex}")  # replint: disable=R001 (unique cross-host tombstone name)
        try:
            os.rename(path, tombstone)
        except OSError:
            return False  # another worker stole or released it first
        try:
            os.unlink(tombstone)
        except OSError:
            pass
        return self._create(digest, path)

    def release(self, digest: str) -> None:
        """Drop this worker's lease on a cell.

        If the lease was stolen while we were (wrongly presumed) dead,
        the file now belongs to another worker and is left alone.
        """
        self._held.pop(digest, None)
        info = self.read(digest)
        if info is not None and info.worker_id != self.worker_id:
            return
        try:
            os.unlink(self.path_for(digest))
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Heartbeat
    # ------------------------------------------------------------------
    def heartbeat(self, digest: str) -> None:
        """Refresh the heartbeat timestamp of a lease this worker holds."""
        path = self.path_for(digest)
        temp = path.with_name(f"{path.name}.hb-{uuid.uuid4().hex}")  # replint: disable=R001 (unique cross-host temp name)
        temp.write_text(self._payload(digest), encoding="utf-8")
        os.replace(temp, path)

    @contextmanager
    def heartbeating(
        self, digest: str, interval: Optional[float] = None
    ) -> Iterator[None]:
        """Context manager beating a held lease from a daemon thread.

        The default interval, ``ttl / 4``, gives a live worker three
        missed beats of slack before anyone may steal its cell.
        """
        interval = interval if interval is not None else self.ttl / 4.0
        stop = threading.Event()

        def beat() -> None:
            while not stop.wait(interval):
                try:
                    self.heartbeat(digest)
                except OSError:
                    pass  # mount hiccup; the next beat retries

        thread = threading.Thread(
            target=beat, name=f"lease-heartbeat-{digest[:8]}", daemon=True
        )
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def read(self, digest: str) -> Optional[LeaseInfo]:
        """The current lease on a cell, or None if free/corrupt."""
        try:
            raw = json.loads(
                self.path_for(digest).read_text(encoding="utf-8")
            )
            return LeaseInfo(
                worker_id=str(raw["worker_id"]),
                pid=int(raw["pid"]),
                host=str(raw["host"]),
                acquired_at=float(raw["acquired_at"]),
                heartbeat_at=float(raw["heartbeat_at"]),
                ttl=float(raw["ttl"]),
            )
        except (OSError, ValueError, TypeError, KeyError):
            return None

    def held(self) -> List[str]:
        """Digests of the leases this worker believes it holds."""
        return sorted(self._held)

    # ------------------------------------------------------------------
    def _payload(self, digest: str) -> str:
        now = time.time()  # replint: disable=R001 (lease heartbeats are wall-clock by design)
        acquired = self._held.get(digest, now)
        return json.dumps(
            {
                "worker_id": self.worker_id,
                "pid": os.getpid(),
                "host": socket.gethostname(),
                "acquired_at": acquired,
                "heartbeat_at": now,
                "ttl": self.ttl,
            },
            sort_keys=True,
        )

    def _create(self, digest: str, path: Path) -> bool:
        # Write-then-link, the classic NFS-safe claim: the payload is
        # written to a private file first and hard-linked into place,
        # so the lease only ever becomes visible with full content.
        # (A bare O_CREAT|O_EXCL + write is NOT enough — a peer reading
        # between creation and write sees an empty "corrupt" lease and
        # steals the cell, duplicating work.)  link(2) fails with
        # EEXIST for all but exactly one contender.
        temp = path.with_name(f"{path.name}.claim-{uuid.uuid4().hex}")  # replint: disable=R001 (unique cross-host temp name)
        self._held[digest] = time.time()  # replint: disable=R001 (lease acquisition is wall-clock by design)
        try:
            temp.write_text(self._payload(digest), encoding="utf-8")
            try:
                os.link(temp, path)
            except FileExistsError:
                self._held.pop(digest, None)
                return False
        except BaseException:
            self._held.pop(digest, None)
            raise
        finally:
            try:
                os.unlink(temp)
            except OSError:
                pass
        return True


@EXECUTION_BACKENDS.register("distributed")
class DistributedBackend(ExecutionBackend):
    """Cells sharded across every worker pointed at one cache directory.

    Each participant loops over its remaining cells: anything another
    worker already published loads from the cache; anything unclaimed
    is leased, simulated under a heartbeat, stored, released.  When all
    remaining cells are leased to live peers the worker sleeps
    ``poll_interval`` and rescans — which is also how it notices (and
    reclaims) cells whose worker died.  The loop ends when every cell
    of the spec has a result, so the caller always receives the full
    sweep regardless of how many peers helped.

    ``workers > 1`` composes the two axes of parallelism: this
    participant claims up to ``workers`` leases at a time and runs
    them on a local process pool, one fresh worker process per cell
    (never hoarding more cells than it can actually compute), while
    other hosts shard the rest.
    """

    name = "distributed"

    def execute(self, executor, cells, pending, digests, finish):
        cache = executor.cache
        if cache is None:  # SweepExecutor.__init__ already enforces this
            raise ValueError("distributed backend requires a result cache")
        leases = LeaseDirectory(
            cache.lease_root,
            worker_id=executor.worker_id,
            ttl=executor.lease_ttl or DEFAULT_LEASE_TTL,
        )
        poll = (
            executor.poll_interval
            if executor.poll_interval is not None
            else DEFAULT_POLL_INTERVAL
        )
        if executor.workers > 1 and len(pending) > 1:
            self._drain_pooled(
                executor, cells, pending, digests, finish, cache,
                leases, poll,
            )
        else:
            self._drain_sequential(
                executor, cells, pending, digests, finish, cache,
                leases, poll,
            )

    # ------------------------------------------------------------------
    def _drain_sequential(
        self, executor, cells, pending, digests, finish, cache, leases, poll
    ):
        remaining = list(pending)
        while remaining:
            progressed = False
            deferred: List[int] = []
            for i in remaining:
                digest = digests[i]
                payload = cache.load(digest)
                if payload is not None:  # published by a peer
                    finish(i, payload, source="cache", store=False)
                    progressed = True
                    continue
                if not leases.try_acquire(digest):
                    deferred.append(i)  # a live peer is on it
                    continue
                try:
                    # Re-check under the lease: the cell's worker may
                    # have published and released between our cache
                    # probe and our claim.
                    payload = cache.load(digest)
                    if payload is None:
                        with leases.heartbeating(
                            digest, executor.heartbeat_interval
                        ):
                            payload = _execute_cell(
                                cells[i].config.to_dict()
                            )
                        cache.store(digest, payload)
                        source = "run"
                    else:
                        source = "cache"
                finally:
                    leases.release(digest)
                finish(i, payload, source=source, store=False)
                progressed = True
            remaining = deferred
            if remaining and not progressed:
                time.sleep(poll)

    def _drain_pooled(
        self, executor, cells, pending, digests, finish, cache, leases, poll
    ):
        import queue
        from contextlib import ExitStack
        from multiprocessing import Pool

        remaining = list(pending)
        # Cell index -> (async result, digest, lease stack); the pool's
        # callbacks post finished indices to ``done``.
        in_flight: Dict[int, tuple] = {}
        done = queue.SimpleQueue()
        # One cell per worker process, as in ProcessBackend: a reused
        # worker would carry the heap its earlier cells grew.
        with Pool(
            min(executor.workers, len(pending)), maxtasksperchild=1
        ) as pool:
            try:
                while remaining or in_flight:
                    progressed = False
                    deferred: List[int] = []
                    for i in remaining:
                        digest = digests[i]
                        # Probe the cache before the capacity gate so
                        # peer-published results are collected even
                        # while our own pool is saturated.
                        payload = cache.load(digest)
                        if payload is not None:
                            finish(i, payload, source="cache", store=False)
                            progressed = True
                            continue
                        if len(in_flight) >= executor.workers:
                            deferred.append(i)
                            continue
                        if not leases.try_acquire(digest):
                            deferred.append(i)
                            continue
                        payload = cache.load(digest)  # re-check (above)
                        if payload is not None:
                            leases.release(digest)
                            finish(i, payload, source="cache", store=False)
                            progressed = True
                            continue
                        stack = ExitStack()
                        stack.enter_context(
                            leases.heartbeating(
                                digest, executor.heartbeat_interval
                            )
                        )
                        result = pool.apply_async(
                            _execute_indexed,
                            ((i, cells[i].config.to_dict()),),
                            callback=lambda _, i=i: done.put(i),
                            error_callback=lambda _, i=i: done.put(i),
                        )
                        in_flight[i] = (result, digest, stack)
                        progressed = True
                    remaining = deferred
                    if not in_flight:
                        if remaining and not progressed:
                            time.sleep(poll)
                        continue
                    try:
                        i = done.get(timeout=poll if remaining else None)
                    except queue.Empty:
                        continue
                    result, digest, stack = in_flight.pop(i)
                    try:
                        _, payload = result.get()
                        # Publish before releasing, same as the
                        # sequential path, so no peer can reclaim a
                        # cell whose result exists.
                        cache.store(digest, payload)
                    finally:
                        stack.close()
                        leases.release(digest)
                    finish(i, payload, source="run", store=False)
                pool.close()
                pool.join()
            finally:
                for _, digest, stack in in_flight.values():
                    stack.close()
                    leases.release(digest)
