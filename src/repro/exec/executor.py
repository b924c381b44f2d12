"""The sweep executor: registered serial/process/distributed backends.

One :class:`SweepExecutor` turns an
:class:`~repro.exec.spec.ExperimentSpec` into a
:class:`~repro.exec.spec.SweepResult`.  How the pending (cache-missed)
cells actually execute is an :class:`ExecutionBackend` resolved by name
through the :data:`EXECUTION_BACKENDS` registry — the same convention
every other swappable component follows (see :mod:`repro.registry`):

* ``serial`` runs cells in-process, one after the other;
* ``process`` fans cells out over a :mod:`multiprocessing` pool on this
  host, one fresh worker process per cell;
* ``distributed`` (:mod:`repro.exec.distributed`) shards cells across
  worker processes on any number of hosts sharing a cache directory.

Every cell — cached, serial, pooled or remote — travels through the
same serialized representation (``SimulationResult.to_dict()``), which
guarantees bit-identical results regardless of backend, worker count or
cache temperature:

* the serial backend round-trips each result through the dict form;
* the process-pool backend ships config dicts to workers and result
  dicts back (no pickling of live simulator objects);
* the cache stores exactly those dicts as canonical JSON, and the
  distributed backend publishes results through nothing but the cache.

Cells are independent simulations, so execution order never affects the
outcome; results are always reassembled in spec cell order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from multiprocessing import Pool
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..registry import Registry
from ..sim.config import SimulationConfig
from ..sim.engine import SimulationResult, run_simulation
from .cache import ResultCache, config_digest
from .spec import Cell, ExperimentSpec, SweepResult

#: Progress callback signature: (cells done, cells total, cell, source)
#: where source is ``"cache"`` or ``"run"``.
ProgressCallback = Callable[[int, int, Cell, str], None]

#: Cell-completion callback handed to backends:
#: ``finish(index, payload, source="run", store=True)``.
FinishCallback = Callable[..., None]

#: How a ``SweepExecutor`` executes its pending cells, by stable name.
#: ``serial`` and ``process`` live in this module; importing
#: :mod:`repro.exec` also registers ``distributed``.
EXECUTION_BACKENDS: Registry = Registry("execution backend")


@dataclass
class ExecutionStats:
    """What one ``run()`` (or an executor lifetime) actually did."""

    simulated: int = 0
    cache_hits: int = 0
    wall_clock_seconds: float = 0.0

    @property
    def cells(self) -> int:
        """Total cells accounted for."""
        return self.simulated + self.cache_hits

    def merge(self, other: "ExecutionStats") -> None:
        """Accumulate another run's stats into this one."""
        self.simulated += other.simulated
        self.cache_hits += other.cache_hits
        self.wall_clock_seconds += other.wall_clock_seconds


def _execute_cell(config_payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry point: config dict in, result dict out.

    Module-level (not a closure) so the process-pool backend can pickle
    it; the dict round trip keeps worker transport identical to the
    cache format.
    """
    config = SimulationConfig.from_dict(config_payload)
    return run_simulation(config).to_dict()


def _execute_indexed(task: Tuple[int, Dict[str, Any]]) -> Tuple[int, Dict[str, Any]]:
    """Pool entry point: ``(index, config dict)`` in, ``(index, result dict)`` out."""
    index, config_payload = task
    return index, _execute_cell(config_payload)


class ExecutionBackend:
    """Strategy executing the pending cells of one :meth:`SweepExecutor.run`.

    Backends receive the owning executor (for ``workers``, ``cache`` and
    the distributed knobs), the full cell list, the indices still to
    execute, the per-index config digests, and a ``finish`` callback::

        finish(index, payload, source="run", store=True)

    ``source`` is ``"run"`` for a cell this process simulated and
    ``"cache"`` for one loaded from the shared cache; ``store=False``
    skips the executor's own cache write for backends that already
    published the payload themselves.
    """

    name = "abstract"

    def execute(
        self,
        executor: "SweepExecutor",
        cells: List[Cell],
        pending: List[int],
        digests: Dict[int, str],
        finish: FinishCallback,
    ) -> None:
        raise NotImplementedError


@EXECUTION_BACKENDS.register("serial")
class SerialBackend(ExecutionBackend):
    """All pending cells in-process, one after the other."""

    name = "serial"

    def execute(self, executor, cells, pending, digests, finish):
        for i in pending:
            finish(i, _execute_cell(cells[i].config.to_dict()))


@EXECUTION_BACKENDS.register("process")
class ProcessBackend(ExecutionBackend):
    """Cells fanned out over a process pool on this host.

    Each worker runs one cell and exits; the pool replaces it with a
    fresh one.  A long-lived worker keeps the heap its earlier cells
    grew, so its peak memory would depend on which cells the scheduler
    happened to hand it before; a fresh worker's peak is the parent's
    footprint plus its own cell's.
    """

    name = "process"

    def execute(self, executor, cells, pending, digests, finish):
        if executor.workers == 1 or len(pending) <= 1:
            # Degenerate case: a pool of one (or one cell) is just the
            # serial loop without the process-spawn overhead.
            SerialBackend().execute(executor, cells, pending, digests, finish)
            return
        max_workers = min(executor.workers, len(pending))
        tasks = [(i, cells[i].config.to_dict()) for i in pending]
        with Pool(max_workers, maxtasksperchild=1) as pool:
            for i, payload in pool.imap_unordered(_execute_indexed, tasks):
                finish(i, payload)
            pool.close()
            pool.join()


class SweepExecutor:
    """Runs sweep cells through a named execution backend, with caching.

    Parameters
    ----------
    workers:
        Maximum concurrent simulations for the ``process`` backend.
        ``1`` (default) executes in-process.
    cache:
        Optional :class:`~repro.exec.cache.ResultCache`.  When present,
        cells whose config digest is already stored load from disk
        instead of simulating, and fresh results are stored back.
        Mandatory for the ``distributed`` backend, whose workers have no
        other channel.
    progress:
        Optional callback invoked after every finished cell with
        ``(done, total, cell, source)``.  Cells that a planned pass
        (see :meth:`plan`) executes for a later run are reported when
        that run collects them.
    backend:
        Execution backend name (see :data:`EXECUTION_BACKENDS`).
        ``None`` (default) picks ``process`` when ``workers > 1`` and
        ``serial`` otherwise, preserving the historical behaviour.
    worker_id:
        Stable identity of this worker in the ``distributed`` backend's
        lease files (default: ``<hostname>-<pid>``).
    lease_ttl:
        Seconds without a heartbeat before a ``distributed`` lease is
        considered abandoned and its cell reclaimable.
    poll_interval:
        Seconds the ``distributed`` backend sleeps between passes when
        every remaining cell is leased to other workers.
    heartbeat_interval:
        Seconds between ``distributed`` lease heartbeats (default:
        ``lease_ttl / 4``).

    Independently of the on-disk cache, the executor memoises every
    cell it runs for its own lifetime, so sweeps sharing cells within
    one executor (figures 1 and 2 run the same threshold grid) cost one
    set of simulations even with the disk cache disabled.  Commands
    that run several specs announce them with :meth:`plan`, and the
    first run executes all of their cells in one backend pass.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        progress: Optional[ProgressCallback] = None,
        backend: Optional[str] = None,
        worker_id: Optional[str] = None,
        lease_ttl: Optional[float] = None,
        poll_interval: Optional[float] = None,
        heartbeat_interval: Optional[float] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if backend is not None:
            EXECUTION_BACKENDS.check(backend)
        if backend == "distributed" and cache is None:
            raise ValueError(
                "the distributed backend publishes results through the "
                "shared result cache; construct the executor with a "
                "ResultCache on a directory all workers can reach"
            )
        self.workers = workers
        self.cache = cache
        self.progress = progress
        self.backend = backend
        self.worker_id = worker_id
        self.lease_ttl = lease_ttl
        self.poll_interval = poll_interval
        self.heartbeat_interval = heartbeat_interval
        #: Cumulative stats across every run() of this executor.
        self.stats = ExecutionStats()
        # In-process memo (digest -> payload) for this executor's lifetime.
        self._memo: Dict[str, Dict[str, Any]] = {}
        # Specs announced by plan() that no run() has executed yet.
        self._planned: List[ExperimentSpec] = []
        # digest -> source of cells a planned pass finished that no
        # run() has collected yet.
        self._unclaimed: Dict[str, str] = {}

    @property
    def backend_name(self) -> str:
        """The resolved backend: explicit, else implied by ``workers``."""
        if self.backend is not None:
            return self.backend
        return "process" if self.workers > 1 else "serial"

    # ------------------------------------------------------------------
    def plan(self, specs: Iterable[ExperimentSpec]) -> None:
        """Announce specs that later :meth:`run` calls will execute.

        The next ``run`` executes the pending cells of its own spec and
        of every planned spec in one backend pass (one process pool, one
        distributed drain), so no worker idles while another finishes
        the last cell of one experiment before the next one starts.
        ``run`` calls for the planned specs are then served from the
        memo.  Each cell still counts as simulated in the first run
        that collects it, so per-run and cumulative stats read the same
        as unplanned runs.
        """
        self._planned.extend(specs)

    def run(self, spec: ExperimentSpec) -> SweepResult:
        """Execute every cell of ``spec`` and return the aligned results."""
        started = time.perf_counter()
        cells = spec.cells()
        total = len(cells)
        # The first run after plan() also executes the planned specs'
        # cells; they come after this spec's own, in plan order.
        planned, self._planned = self._planned, []
        batch = cells + [cell for other in planned for cell in other.cells()]
        payloads: List[Optional[Dict[str, Any]]] = [None] * total
        run_stats = ExecutionStats()
        done = 0

        def collect(i: int, payload: Dict[str, Any], source: str) -> None:
            nonlocal done
            payloads[i] = payload
            if source == "run":
                run_stats.simulated += 1
            else:
                run_stats.cache_hits += 1
            done += 1
            self._notify(done, total, cells[i], source)

        pending: List[int] = []
        digests: Dict[int, str] = {}
        queued = set()
        for i, cell in enumerate(batch):
            digest = config_digest(cell.config)
            digests[i] = digest
            if digest in queued:
                continue  # a duplicate of a pending cell: collected below
            payload = self._memo.get(digest)
            source = "cache"
            if payload is not None:
                if i < total:
                    source = self._unclaimed.pop(digest, source)
            elif self.cache is not None:
                payload = self.cache.load(digest)
                if payload is not None:
                    self._memo[digest] = payload
            if payload is None:
                queued.add(digest)
                pending.append(i)
            elif i < total:
                collect(i, payload, source)

        def finish(
            i: int,
            payload: Dict[str, Any],
            source: str = "run",
            store: bool = True,
        ) -> None:
            self._memo[digests[i]] = payload
            if store and self.cache is not None:
                self.cache.store(digests[i], payload)
            if i < total:
                collect(i, payload, source)
            else:
                self._unclaimed[digests[i]] = source

        if pending:
            backend = EXECUTION_BACKENDS.get(self.backend_name)()
            backend.execute(self, batch, pending, digests, finish)

        for i in range(total):
            if payloads[i] is None:
                collect(i, self._memo[digests[i]], "cache")
        results = [
            SimulationResult.from_dict(payload) for payload in payloads
        ]
        run_stats.wall_clock_seconds = time.perf_counter() - started
        self.stats.merge(run_stats)
        return SweepResult(
            spec=spec, cells=cells, results=results, stats=run_stats
        )

    # ------------------------------------------------------------------
    def _notify(self, done: int, total: int, cell: Cell, source: str) -> None:
        if self.progress is not None:
            self.progress(done, total, cell, source)


def run_experiment(
    spec: ExperimentSpec, executor: Optional[SweepExecutor] = None
) -> Any:
    """Execute a spec and apply its reducer (if any).

    The one entry point every experiment module funnels through: with a
    ``reduce`` callable the artifact comes back, otherwise the raw
    :class:`~repro.exec.spec.SweepResult`.
    """
    executor = executor if executor is not None else SweepExecutor()
    sweep = executor.run(spec)
    if spec.reduce is None:
        return sweep
    return spec.reduce(sweep)
