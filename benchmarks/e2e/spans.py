"""Outside-in span tracing for the end-to-end benchmark.

The benchmark never edits the program to trace it.  Instead a traced
sample replaces the methods at each layer boundary — on the simulation
instance, or on a class for the sweep layers — with a wrapper that
records one span per call: which layer it belongs to, which layer
called it, and how long it took.  Spans are folded into an in-memory
table keyed by ``(parent layer, layer)`` holding calls, total time and
self time, where self time is the span's duration minus the time its
child spans cover.  The wrappers time their own bookkeeping too and
charge it to no layer.  Counters are bumped at the same boundaries,
from the call's arguments and result.

Layers are named after the modules they time:

=========  ==============================================================
events     ``EventQueue`` scheduling and popping (``sim/events.py``)
toggle     the per-round session toggle kernel
checks     check, placement, repair, death, join and top-up handlers
recruit    partner recruitment and pool fill
census     the periodic population census
transport  ``InMemoryTransport.send`` (``net/transport.py``)
store      the holder-side store decision (``backup/store`` use)
link       ``LinkScheduler`` and transfer completion (``net/bandwidth.py``)
exec       ``SweepExecutor``, its backends, digests and result decoding
cache      ``ResultCache`` loads and stores
analysis   ``run_experiment`` minus its sweep: the figure reducers
=========  ==============================================================
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Parent-layer name of a span with no enclosing span.
ROOT = "-"

LAYERS = (
    "events",
    "toggle",
    "checks",
    "recruit",
    "census",
    "transport",
    "store",
    "link",
    "exec",
    "cache",
    "analysis",
)

#: Counters bumped by the wrappers' hooks (reported as 0 when a layer
#: never runs on a workload).
COUNTERS = (
    "events.toggles_filed",
    "events.cancels",
    "toggle.peers",
    "checks.repairs",
    "checks.placements",
    "checks.deaths",
    "recruit.examined",
    "recruit.accepted",
    "transport.failed",
    "store.refused",
    "link.cancelled",
    "link.queue_wait_sim_s",
    "exec.cells",
    "exec.simulated",
    "exec.cache_hits",
    "cache.store.bytes",
    "cache.load.hits",
)

Hook = Callable[["Tracer", tuple, object], None]


class Tracer:
    """Wraps layer-boundary callables and aggregates their spans.

    ``clock`` is the time source, injectable so tests can script it.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: ``(parent layer, layer) -> [calls, total seconds, self seconds]``
        self.rows: Dict[tuple, List[float]] = {}
        self.counts: Dict[str, float] = defaultdict(float)
        self.totals: Dict[str, float] = defaultdict(float)
        # Open spans, innermost last, above a root sentinel:
        # [layer, child seconds, total key, name].
        self._stack: List[list] = [[ROOT, 0.0, None, None]]
        #: Seconds spent in the wrappers themselves, outside every span.
        self._bookkeeping = [0.0]
        self._undo: List[tuple] = []

    def caller(self) -> Optional[str]:
        """Name of the innermost open span (the caller, inside a hook)."""
        return self._stack[-1][3]

    def wrap(
        self,
        owner: object,
        attr: str,
        layer: str,
        hook: Optional[Hook] = None,
        total: Optional[str] = None,
        error: Optional[str] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``hook(tracer, args, result)`` runs after a successful call;
        ``total`` names an entry of :attr:`totals` the span's duration
        adds to (unless its direct caller adds to the same one);
        ``error`` names a counter bumped when the call raises.
        """
        static = vars(owner).get(attr)
        original = getattr(owner, attr)
        name = getattr(original, "__qualname__", attr)
        stack, rows, totals, clock = self._stack, self.rows, self.totals, self.clock
        counts, bookkeeping = self.counts, self._bookkeeping
        # This wrapper's rows by parent layer (saves a tuple key per call).
        by_parent: Dict[str, list] = {}

        def traced(*args, **kwargs):
            entered = clock()
            parent = stack[-1]
            frame = [layer, 0.0, total, name]
            stack.append(frame)
            result = None
            raised = False
            start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                row = by_parent.get(parent[0])
                if row is None:
                    row = rows.setdefault((parent[0], layer), [0, 0.0, 0.0])
                    by_parent[parent[0]] = row
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - frame[1]
                if total is not None and parent[2] != total:
                    totals[total] += elapsed
                if raised:
                    if error is not None:
                        counts[error] += 1
                elif hook is not None:
                    hook(self, args, result)
                # The caller's self time excludes this wrapper's own work,
                # which is charged to the tracer instead.
                spent = clock() - entered
                parent[1] += spent
                bookkeeping[0] += spent - elapsed
            return result

        if isinstance(static, (staticmethod, classmethod)):
            traced = staticmethod(traced)
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, static))

    def close(self) -> None:
        """Restore every wrapped attribute (latest wrap first)."""
        while self._undo:
            owner, attr, static = self._undo.pop()
            if static is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, static)

    def snapshot(self, wall_s: float) -> dict:
        """The span table and counters as plain data."""
        return {
            "wall_s": wall_s,
            "bookkeeping_s": self._bookkeeping[0],
            "rows": [
                [parent, layer, int(calls), total, self_s]
                for (parent, layer), (calls, total, self_s) in sorted(self.rows.items())
            ],
            "counts": dict(self.counts),
            "totals": dict(self.totals),
        }


# ----------------------------------------------------------------------
# Installers: which callables form each layer's boundary
# ----------------------------------------------------------------------
def _bump(counter: str, amount: Callable[[tuple, object], float]) -> Hook:
    def hook(tracer: Tracer, args: tuple, result: object) -> None:
        tracer.counts[counter] += amount(args, result)

    return hook


def _one(args, result):
    return 1


def _toggle_filed(tracer: Tracer, args: tuple, result: object) -> None:
    # Small batches are filed one id at a time through schedule_toggle;
    # the batch hook already counted those ids.
    if tracer.caller() != "EventQueue.schedule_toggle_batch":
        tracer.counts["events.toggles_filed"] += 1


def _record_pool(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.counts["recruit.examined"] += args[0]
    tracer.counts["recruit.accepted"] += args[1]


def trace_simulation(tracer: Tracer, sim) -> None:
    """Wrap the layer boundaries of one simulation instance."""
    queue = sim.queue
    tracer.wrap(queue, "pop_until", "events")
    tracer.wrap(queue, "pop_round_batch", "events")
    tracer.wrap(queue, "schedule", "events")
    tracer.wrap(queue, "schedule_toggle", "events", hook=_toggle_filed)
    tracer.wrap(
        queue,
        "schedule_toggle_batch",
        "events",
        hook=_bump("events.toggles_filed", lambda args, result: len(args[0])),
    )
    tracer.wrap(queue, "cancel", "events", hook=_bump("events.cancels", _one))

    tracer.wrap(
        sim,
        "_process_toggle_batch",
        "toggle",
        hook=_bump("toggle.peers", lambda args, result: len(args[1])),
    )

    tracer.wrap(sim, "_handle_check", "checks")
    tracer.wrap(sim, "_run_placement", "checks", hook=_bump("checks.placements", _one))
    tracer.wrap(sim, "_run_repair", "checks", hook=_bump("checks.repairs", _one))
    tracer.wrap(sim, "_handle_death", "checks", hook=_bump("checks.deaths", _one))
    # The object-graph driver dispatches joins through _handle_join;
    # the SoA engine spawns directly.
    tracer.wrap(sim, "_handle_join" if hasattr(sim, "_handle_join") else "_spawn_peer", "checks")
    tracer.wrap(sim, "_handle_top_up", "checks")

    for attr in (
        "_recruit",
        "_select_candidates",
        "_fill_pool",
        "_fill_pool_fast",
        "_fill_pool_small",
        "_fill_pool_generic",
    ):
        if hasattr(sim, attr):
            tracer.wrap(sim, attr, "recruit")
    tracer.wrap(sim.metrics, "record_pool", "recruit", hook=_record_pool)

    tracer.wrap(sim, "_handle_sample", "census")

    transport = getattr(sim, "transport", None)
    if transport is not None:
        tracer.wrap(transport, "send", "transport", error="transport.failed")
        tracer.wrap(
            sim,
            "_handle_store_request",
            "store",
            hook=_bump("store.refused", lambda args, reply: 0 if reply.accepted else 1),
        )
        links = sim.links
        tracer.wrap(
            links,
            "schedule",
            "link",
            hook=_bump(
                "link.queue_wait_sim_s",
                lambda args, transfer: transfer.queue_delay(args[2] * links.round_seconds),
            ),
        )
        tracer.wrap(links, "complete", "link")
        tracer.wrap(
            links,
            "cancel_peer",
            "link",
            hook=_bump("link.cancelled", lambda args, cancelled: len(cancelled)),
        )
        tracer.wrap(sim, "_handle_transfer_done", "link")


def _sweep_stats(tracer: Tracer, args: tuple, sweep) -> None:
    tracer.counts["exec.cells"] += sweep.stats.cells
    tracer.counts["exec.simulated"] += sweep.stats.simulated
    tracer.counts["exec.cache_hits"] += sweep.stats.cache_hits


def _stored_bytes(tracer: Tracer, args: tuple, result: object) -> None:
    cache, digest = args[0], args[1]
    tracer.counts["cache.store.bytes"] += cache.path_for(digest).stat().st_size


def trace_sweep(tracer: Tracer) -> None:
    """Wrap the executor, cache and reducer boundaries (class level).

    Pool workers run the simulations out of process, so a sweep's
    simulation layers show up only as ``exec.backend_wait_s``.
    """
    from repro.exec import cache as cache_module
    from repro.exec import executor as executor_module
    from repro.sim.engine import SimulationResult

    executor = executor_module.SweepExecutor
    tracer.wrap(executor, "run", "exec", hook=_sweep_stats)
    for backend in executor_module.EXECUTION_BACKENDS.names():
        tracer.wrap(
            executor_module.EXECUTION_BACKENDS.get(backend),
            "execute",
            "exec",
            total="exec.backend_wait_s",
        )
    tracer.wrap(executor_module, "config_digest", "exec")
    tracer.wrap(SimulationResult, "from_dict", "exec", total="exec.decode_s")

    cache = cache_module.ResultCache
    tracer.wrap(cache, "store", "cache", hook=_stored_bytes)
    tracer.wrap(
        cache,
        "load",
        "cache",
        total="cache.load.self_s",
        hook=_bump("cache.load.hits", lambda args, payload: payload is not None),
    )

    # Experiment modules bind run_experiment by name at import time.
    run_experiment = executor_module.run_experiment
    for name in sorted(sys.modules):
        module = sys.modules[name]
        if name.startswith("repro.experiments.") and (
            vars(module).get("run_experiment") is run_experiment
        ):
            tracer.wrap(module, "run_experiment", "analysis")


# ----------------------------------------------------------------------
# Per-layer metrics of one traced sample
# ----------------------------------------------------------------------
def layer_metrics(trace: dict) -> Dict[str, float]:
    """Per-layer metrics of one :meth:`Tracer.snapshot` (plus warm phase).

    ``<layer>.share`` and ``trace.unattributed_share`` are fractions of
    the traced wall clock; the unattributed part is time spent outside
    every span (the engine's main loop, CLI rendering) and outside the
    wrappers' own bookkeeping (``trace.self_s``).
    """
    wall = trace["wall_s"]
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    for _parent, layer, layer_calls, _total, layer_self in trace["rows"]:
        calls[layer] += layer_calls
        self_s[layer] += layer_self
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.share"] = self_s[layer] / wall
    counts = trace["counts"]
    for counter in COUNTERS:
        metrics[counter] = counts.get(counter, 0)
    examined = metrics["recruit.examined"]
    metrics["recruit.accept_ratio"] = (
        metrics["recruit.accepted"] / examined if examined else 0.0
    )
    sends = metrics["transport.calls"]
    metrics["transport.fail_ratio"] = metrics["transport.failed"] / sends if sends else 0.0
    totals = trace["totals"]
    metrics["exec.backend_wait_s"] = totals.get("exec.backend_wait_s", 0.0)
    metrics["exec.decode_s"] = totals.get("exec.decode_s", 0.0)
    metrics["trace.wall_s"] = wall
    metrics["trace.self_s"] = trace["bookkeeping_s"]
    attributed = sum(self_s.values()) + trace["bookkeeping_s"]
    metrics["trace.unattributed_share"] = 1.0 - attributed / wall
    # The warm phase is too short to time end to end (see README).
    warm = trace.get("warm") or {"wall_s": 0.0, "totals": {}}
    metrics["warm.wall_s"] = warm["wall_s"]
    for name in ("exec.decode_s", "cache.load.self_s"):
        metrics[f"warm.{name}"] = warm["totals"].get(name, 0.0)
    return metrics
