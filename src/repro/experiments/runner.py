"""Command-line entry point: figures, tables, ablations and scenarios.

Installed as ``repro-experiments``::

    repro-experiments tables
    repro-experiments fig1 --scale quick
    repro-experiments fig3 --scale default --seeds 0 1 2
    repro-experiments all --scale quick --workers 4
    repro-experiments list
    repro-experiments run --scenario flash_crowd --seeds 0 1 2
    repro-experiments profile --scenario paper --sort tottime
    repro-experiments all --backend distributed --cache-dir /mnt/sweep-cache
    repro-experiments worker --scale full --cache-dir /mnt/sweep-cache

Every command is an argparse subcommand with its own ``--help`` and a
copy-pasteable example; ``repro-experiments --help`` lists them all.

Every simulation cell goes through the sweep executor
(:mod:`repro.exec`).  ``--workers N`` fans cells out over a process
pool on this host; ``--backend distributed`` shards them across any
number of worker processes — this one plus every ``repro-experiments
worker`` pointed at the same ``--cache-dir`` (a shared mount for
multi-host runs).  The on-disk result cache (``--cache-dir``, default
``.repro-cache``; disable with ``--no-cache``) makes re-runs only
simulate cells whose parameters changed — running ``all`` twice
simulates nothing the second time, figures 1 and 2 share one threshold
sweep, and a killed run resumes from every cell it finished.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
from typing import List, Optional, Sequence

from ..exec import (
    DEFAULT_CACHE_DIR,
    DEFAULT_LEASE_TTL,
    EXECUTION_BACKENDS,
    ResultCache,
    SweepExecutor,
    default_worker_id,
)
from ..sim.config import DEFAULT_FIDELITY
from . import (
    ablation_adaptive,
    ablation_grace,
    ablation_proactive,
    ablation_quota,
    ablation_selection,
    fidelity_compare,
    fig_impairment,
    fig1_repairs_by_threshold,
    fig2_losses_by_threshold,
    fig3_observer_repairs,
    fig4_cumulative_losses,
    tables,
)
from .common import scale_by_name

#: Experiment registry: name -> (runner, has shape check).
_SIMULATION_EXPERIMENTS = {
    "fig1": (fig1_repairs_by_threshold.run_figure1,
             fig1_repairs_by_threshold.check_shape),
    "fig2": (fig2_losses_by_threshold.run_figure2,
             fig2_losses_by_threshold.check_shape),
    "fig3": (fig3_observer_repairs.run_figure3,
             fig3_observer_repairs.check_shape),
    "fig4": (fig4_cumulative_losses.run_figure4,
             fig4_cumulative_losses.check_shape),
    "ablation-selection": (ablation_selection.run_ablation_selection,
                           ablation_selection.check_shape),
    "ablation-quota": (ablation_quota.run_ablation_quota, None),
    "ablation-grace": (ablation_grace.run_ablation_grace, None),
    "ablation-proactive": (ablation_proactive.run_ablation_proactive, None),
    "ablation-adaptive": (ablation_adaptive.run_ablation_adaptive,
                          ablation_adaptive.check_shape),
    "fig-fidelity": (fidelity_compare.run_fidelity_compare,
                     fidelity_compare.check_shape),
    "fig-impairment": (fig_impairment.run_fig_impairment,
                       fig_impairment.check_shape),
}

#: Spec builders: name -> (scale, seeds) -> spec.  ``all`` and
#: ``worker`` plan their whole spec list up front, so the executor runs
#: every experiment's cells in one backend pass; workers enumerate cells
#: from the specs alone — no artifact rendering.
_SPEC_BUILDERS = {
    "fig1": fig1_repairs_by_threshold.figure1_spec,
    "fig2": fig2_losses_by_threshold.figure2_spec,
    "fig3": fig3_observer_repairs.figure3_spec,
    "fig4": fig4_cumulative_losses.figure4_spec,
    "ablation-selection": ablation_selection.ablation_selection_spec,
    "ablation-quota": ablation_quota.ablation_quota_spec,
    "ablation-grace": ablation_grace.ablation_grace_spec,
    "ablation-proactive": ablation_proactive.ablation_proactive_spec,
    "ablation-adaptive": ablation_adaptive.ablation_adaptive_spec,
    "fig-fidelity": fidelity_compare.fidelity_compare_spec,
    "fig-impairment": fig_impairment.fig_impairment_spec,
}

_EXPERIMENT_HELP = {
    "fig1": "figure 1 — repair rate vs repair threshold, per age category",
    "fig2": "figure 2 — loss rate vs repair threshold, per age category",
    "fig3": "figure 3 — repairs seen by the five fixed-age observers",
    "fig4": "figure 4 — cumulative losses over time",
    "ablation-selection": "A1 — partner-selection strategy comparison",
    "ablation-quota": "A2 — hosting-quota sweep",
    "ablation-grace": "A3 — grace-period sweep",
    "ablation-proactive": "A4 — reactive vs proactive repair",
    "ablation-adaptive": "A5 — static vs adaptive thresholds",
    "fig-fidelity": "default vs protocol fidelity: loss/repair curves "
                    "from one spec on the paper workload",
    "fig-impairment": "protocol fidelity across the netem loss x delay "
                      "matrix: durability and repair latency per "
                      "impairment profile",
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number, got {value}"
        )
    return value


def _executor_flags(parser: argparse.ArgumentParser) -> None:
    """The sweep-executor knobs shared by every simulating command."""
    group = parser.add_argument_group("execution")
    group.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="simulation cells to run concurrently in a local process "
        "pool (results are bit-identical to a serial run; default: 1)",
    )
    group.add_argument(
        "--backend",
        choices=EXECUTION_BACKENDS.names(),
        default=None,
        help="execution backend (default: 'process' when --workers > 1, "
        "else 'serial'; 'distributed' shards cells across every worker "
        "sharing --cache-dir, including 'repro-experiments worker' "
        "processes on other hosts)",
    )
    group.add_argument(
        "--worker-id",
        default=None,
        help="this worker's identity in distributed lease files "
        "(default: <hostname>-<pid>)",
    )
    group.add_argument(
        "--lease-ttl",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="seconds without a heartbeat before a distributed worker's "
        f"cell lease is reclaimed (default: {DEFAULT_LEASE_TTL:g})",
    )
    group.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help="on-disk result cache directory; point every distributed "
        "worker at one shared mount (default: %(default)s)",
    )
    group.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache (incompatible with "
        "--backend distributed)",
    )


def _sweep_flags(parser: argparse.ArgumentParser) -> None:
    """Flags shared by the figure/ablation/'all' sweep commands."""
    parser.add_argument(
        "--scale",
        default="default",
        help="experiment scale preset: quick (seconds), default "
        "(minutes) or full (the paper's exact parameterisation)",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=None,
        help="replication seeds (default: the scale preset's seeds)",
    )
    parser.add_argument(
        "--markdown",
        action="store_true",
        help="emit Markdown tables instead of plain text",
    )
    parser.add_argument(
        "--no-check",
        action="store_true",
        help="skip the qualitative shape checks",
    )
    parser.add_argument(
        "--csv-dir",
        default=None,
        help="also write <experiment>.csv series files into this "
        "directory (figures only)",
    )


def _scenario_flags(parser: argparse.ArgumentParser) -> None:
    """Flags selecting and resizing a registered scenario preset."""
    parser.add_argument(
        "--scenario",
        default=None,
        help="registered scenario preset (see 'repro-experiments list')",
    )
    parser.add_argument(
        "--population",
        type=_positive_int,
        default=None,
        help="override the scenario's peer population",
    )
    parser.add_argument(
        "--rounds",
        type=_positive_int,
        default=None,
        help="override the scenario's simulated rounds",
    )
    parser.add_argument(
        "--fidelity",
        default=None,
        help="override the scenario's simulation backend: "
        f"{DEFAULT_FIDELITY!r} (the default: counters, the figures' "
        "engine) or 'protocol' (real store/fetch exchanges gated by "
        "the bandwidth model); see 'repro-experiments list'",
    )
    parser.add_argument(
        "--impairment",
        default=None,
        help="apply a netem-style link condition to protocol-mode "
        "exchanges (registered impairment profile, e.g. 'loss10' or "
        "'loss30_delay50ms_jitter5ms'); see 'repro-experiments list'",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the figures and tables of 'Optimizing peer-to-peer "
            "backup using lifetime estimations' (Bernard & Le Fessant, "
            "2009), run scenario presets, profile the engine, and shard "
            "sweeps across local or distributed workers."
        ),
        epilog=(
            "run 'repro-experiments <command> --help' for each command's "
            "flags and a copy-pasteable example"
        ),
    )
    commands = parser.add_subparsers(
        dest="experiment",
        metavar="command",
        required=True,
    )

    def command(name, help_text, example, **kwargs):
        sub = commands.add_parser(
            name,
            help=help_text,
            description=help_text,
            epilog=f"example:\n  {example}",
            formatter_class=argparse.RawDescriptionHelpFormatter,
            **kwargs,
        )
        return sub

    for name in sorted(_SIMULATION_EXPERIMENTS):
        sub = command(
            name,
            f"regenerate {_EXPERIMENT_HELP[name]}",
            f"repro-experiments {name} --scale quick --seeds 0 1 2",
        )
        _sweep_flags(sub)
        _executor_flags(sub)

    sub = command(
        "all",
        "regenerate every figure, ablation and table in one cached sweep",
        "repro-experiments all --scale full --workers 8",
    )
    _sweep_flags(sub)
    _executor_flags(sub)

    sub = command(
        "tables",
        "print tables T1-T4 and the cost analysis (no simulation)",
        "repro-experiments tables --markdown",
    )
    sub.add_argument(
        "--markdown",
        action="store_true",
        help="emit Markdown tables instead of plain text",
    )

    command(
        "list",
        "list every registered component: scenarios, selection "
        "strategies, acceptance rules, churn mixes, execution and "
        "fidelity backends, lifetime models, policy presets",
        "repro-experiments list",
    )

    sub = command(
        "lint",
        "run replint, the AST-based invariant linter, over src/repro "
        "(rng discipline, digest stability, registry discipline, "
        "ordered iteration, event-time hygiene); exits non-zero on any "
        "finding",
        "repro-experiments lint --format json",
    )
    from ..lint.cli import add_lint_arguments

    add_lint_arguments(sub)

    sub = command(
        "run",
        "run one registered scenario preset end to end and report its "
        "repair/loss rates",
        "repro-experiments run --scenario flash_crowd --seeds 0 1 2",
    )
    _scenario_flags(sub)
    sub.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=None,
        help="replication seeds (default: the scenario's own seed)",
    )
    _executor_flags(sub)

    sub = command(
        "profile",
        "cProfile one scenario simulation and print the hottest "
        "functions (no executor, no cache: pure engine hot loop)",
        "repro-experiments profile --scenario paper --scale default "
        "--fidelity abstract_soa --mem",
    )
    _scenario_flags(sub)
    sub.add_argument(
        "--scale",
        default=None,
        help="resize the scenario to an experiment scale preset "
        "(quick, default or full) before any --population/--rounds "
        "override",
    )
    sub.add_argument(
        "--sort",
        choices=("cumulative", "tottime", "calls"),
        default=None,
        help="profile sort order (default: cumulative)",
    )
    sub.add_argument(
        "--limit",
        type=_positive_int,
        default=None,
        help="number of profile rows to print (default: 25)",
    )
    sub.add_argument(
        "--mem",
        action="store_true",
        help="also trace memory: tracemalloc peak (Python allocations) "
        "and the process's peak RSS alongside the profile table",
    )

    sub = command(
        "worker",
        "drain sweep cells from a shared cache directory: claim unowned "
        "cells via lease files, simulate them, publish the results; "
        "run any number of these (across hosts) next to "
        "'all --backend distributed'",
        "repro-experiments worker --scale full --cache-dir /mnt/sweep-cache "
        "--worker-id $(hostname)",
    )
    sub.add_argument(
        "--scale",
        default="default",
        help="experiment scale preset the coordinating sweep uses: "
        "quick, default or full",
    )
    sub.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=None,
        help="replication seeds (must match the coordinating sweep; "
        "default: the scale preset's seeds)",
    )
    sub.add_argument(
        "--experiments",
        nargs="+",
        choices=sorted(_SIMULATION_EXPERIMENTS),
        default=None,
        metavar="NAME",
        help="experiments whose cells to drain (default: all of them)",
    )
    sub.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help="shared result-cache directory — the same path (mount) "
        "every participating worker uses (default: %(default)s)",
    )
    sub.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="cells this worker claims and simulates concurrently on "
        "a local process pool (default: 1)",
    )
    sub.add_argument(
        "--worker-id",
        default=None,
        help="this worker's identity in lease files "
        "(default: <hostname>-<pid>)",
    )
    sub.add_argument(
        "--lease-ttl",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="seconds without a heartbeat before another worker's cell "
        f"lease is reclaimed (default: {DEFAULT_LEASE_TTL:g})",
    )

    return parser


def build_executor(args: argparse.Namespace) -> SweepExecutor:
    """The sweep executor implied by the parsed CLI arguments."""
    no_cache = getattr(args, "no_cache", False)
    if getattr(args, "backend", None) == "distributed" and no_cache:
        raise SystemExit(
            "repro-experiments: error: --backend distributed publishes "
            "results through the shared cache; drop --no-cache and point "
            "--cache-dir at a directory every worker shares"
        )
    cache = None if no_cache else ResultCache(args.cache_dir)
    return SweepExecutor(
        workers=getattr(args, "workers", 1),
        cache=cache,
        backend=getattr(args, "backend", None),
        worker_id=args.worker_id,
        lease_ttl=args.lease_ttl,
    )


def render_component_list() -> str:
    """Every registered component, one section per registry."""
    from ..churn.lifetimes import LIFETIME_MODELS
    from ..churn.profiles import CHURN_MIXES
    from ..core.acceptance import ACCEPTANCE_RULES
    from ..core.policy import POLICY_PRESETS
    from ..core.selection import SELECTION_STRATEGIES
    from ..net.bandwidth import KILOBYTE, LINK_PROFILES
    from ..net.impairment import IMPAIRMENT_PROFILES
    from ..scenarios import SCENARIOS
    from ..sim.fidelity import FIDELITY_BACKENDS, available_fidelities

    available_fidelities()  # force built-in backend registration

    lines: List[str] = []

    lines.append("scenarios:")
    for name, scenario in SCENARIOS.items():
        suffix = f" — {scenario.description}" if scenario.description else ""
        lines.append(f"  {name}{suffix}")

    lines.append("selection strategies:")
    lines.extend(f"  {name}" for name in SELECTION_STRATEGIES.names())

    lines.append("acceptance rules:")
    lines.extend(f"  {name}" for name in ACCEPTANCE_RULES.names())

    lines.append("churn mixes:")
    for name, profiles in CHURN_MIXES.items():
        members = "+".join(profile.name for profile in profiles)
        lines.append(f"  {name} ({members})")

    lines.append("execution backends:")
    lines.extend(f"  {name}" for name in EXECUTION_BACKENDS.names())

    lines.append("fidelity backends:")
    for name in FIDELITY_BACKENDS.names():
        marker = " (default)" if name == DEFAULT_FIDELITY else ""
        lines.append(f"  {name}{marker}")

    lines.append("link profiles:")
    for name, link in LINK_PROFILES.items():
        lines.append(
            f"  {name} ({link.download_bps // KILOBYTE} kB/s down, "
            f"{link.upload_bps // KILOBYTE} kB/s up)"
        )

    lines.append("impairment profiles:")
    for name, profile in IMPAIRMENT_PROFILES.items():
        traits: List[str] = []
        if profile.loss_probability:
            traits.append(f"loss {profile.loss_probability:.0%}")
        if profile.delay_seconds:
            delay = f"delay {profile.delay_seconds * 1000:g}ms"
            if profile.jitter_seconds:
                delay += f" ±{profile.jitter_seconds * 1000:g}ms"
            traits.append(delay)
        if profile.bursty:
            traits.append(
                f"bursts to {profile.burst_loss_probability:.0%} loss"
            )
        summary = ", ".join(traits) if traits else "no impairment"
        lines.append(f"  {name} ({summary})")

    lines.append("lifetime models:")
    lines.extend(f"  {name}" for name in LIFETIME_MODELS.names())

    lines.append("repair-policy presets:")
    for name, preset in POLICY_PRESETS.items():
        policy = preset()
        lines.append(f"  {name} (k={policy.k}, n={policy.n}, k'={policy.repair_threshold})")

    return "\n".join(lines)


def _run_scenario(args: argparse.Namespace) -> int:
    """The ``run --scenario NAME`` command: one preset, end to end."""
    scenario = _resolve_scenario(args, "run")
    if scenario is None:
        return 2
    print(scenario.describe())

    executor = build_executor(args)
    seeds = tuple(args.seeds) if args.seeds else (scenario.build().seed or 0,)
    sweep = executor.run(scenario.spec(seeds=seeds))

    count = len(sweep.results)
    repairs = sum(r.metrics.total_repairs for r in sweep.results) / count
    losses = sum(r.metrics.total_losses for r in sweep.results) / count
    deaths = sum(r.deaths for r in sweep.results) / count
    peers = sum(r.peers_created for r in sweep.results) / count
    print(f"\nmeans over {count} seed(s): "
          f"repairs={repairs:.1f} losses={losses:.2f} "
          f"peers_created={peers:.0f} deaths={deaths:.0f}")
    for name in sorted(sweep.results[0].repair_rates()):
        rate = sum(r.repair_rates()[name] for r in sweep.results) / count
        loss = sum(r.loss_rates()[name] for r in sweep.results) / count
        print(f"  {name}: repairs/round/1000 = {rate:.4f}, "
              f"losses/round/1000 = {loss:.4f}")
    observer_totals = sweep.results[0].observer_totals()
    if observer_totals:
        print("observer repairs:")
        # Sorted so the output is identical whether results come from a
        # fresh simulation or the canonical-JSON cache.
        for name in sorted(observer_totals):
            mean = sum(r.observer_totals().get(name, 0) for r in sweep.results) / count
            print(f"  {name}: {mean:.1f}")
    _print_executor_summary(executor)
    return 0


def _scenario_names() -> List[str]:
    from ..scenarios import SCENARIOS

    return SCENARIOS.names()


def _resolve_scenario(args: argparse.Namespace, command: str):
    """The scenario named on the CLI with population/rounds overrides.

    Prints the registered choices and returns ``None`` when no
    ``--scenario`` was given (the caller exits with code 2).
    """
    from ..scenarios import scenario_by_name

    if args.scenario is None:
        print(
            f"{command} requires --scenario NAME; registered scenarios:\n"
            + "\n".join(f"  {name}" for name in _scenario_names()),
        )
        return None
    scenario = scenario_by_name(args.scenario)
    if getattr(args, "scale", None) is not None:
        # Coarse resize first; explicit --population/--rounds still win.
        scale = scale_by_name(args.scale)
        scenario = scenario.with_population(scale.population).with_rounds(
            scale.rounds
        )
    if args.population is not None:
        scenario = scenario.with_population(args.population)
    if args.rounds is not None:
        scenario = scenario.with_rounds(args.rounds)
    if getattr(args, "fidelity", None) is not None:
        scenario = scenario.with_fidelity(args.fidelity)
    if getattr(args, "impairment", None) is not None:
        scenario = scenario.with_impairment(args.impairment)
    return scenario


#: Event-dispatch handlers, mapped to the event kind they execute.  The
#: breakdown takes the largest cumulative time per kind, so a handler
#: that recurses is never double-counted.
_KIND_HANDLERS = {
    "_process_toggle_batch": "toggle",
    "_handle_check": "check",
    "_spawn_peer": "join",
    "_handle_death": "death",
    "_handle_sample": "sample",
    "_handle_top_up": "top-up",
    "_handle_transfer_done": "transfer",
}


def _kind_breakdown(stats) -> List[tuple]:
    """``(kind, seconds, dispatches)`` rows from a profile's handlers.

    Reads the raw ``pstats`` table: each event kind is charged the
    cumulative time of its dispatch handler in ``repro.sim``, which is
    exactly the time the engine's main loop spent inside events of that
    kind (the toggle row is the round-batched kernel, so its dispatch
    count is batches, not individual session flips).
    """
    best = {}
    for (filename, _lineno, funcname), row in stats.stats.items():
        kind = _KIND_HANDLERS.get(funcname)
        if kind is None or "sim" not in pathlib.PurePath(filename).parts:
            continue
        _cc, dispatches, _tottime, cumtime, _callers = row
        if cumtime > best.get(kind, (0.0, 0))[0]:
            best[kind] = (cumtime, dispatches)
    rows = [(kind, seconds, calls) for kind, (seconds, calls) in best.items()]
    rows.sort(key=lambda row: -row[1])
    return rows


def _run_profile(args: argparse.Namespace) -> int:
    """The ``profile --scenario NAME`` command: cProfile one simulation.

    The run goes straight through the fidelity registry's engine for the
    scenario — no executor, no cache — so the profile shows nothing but
    the selected backend's hot loop, and the per-event-kind table at the
    bottom answers "where do the rounds actually go" (toggle vs check vs
    transfer share).  ``--mem`` wraps the run in tracemalloc
    (Python-allocation peak; slows the run, so it is opt-in) and reports
    the process's peak RSS next to the profile table.
    """
    import cProfile
    import pstats

    from ..sim.fidelity import simulation_for

    scenario = _resolve_scenario(args, "profile")
    if scenario is None:
        return 2
    print(scenario.describe())
    config = scenario.build()
    simulation = simulation_for(config)
    if args.mem:
        import tracemalloc

        tracemalloc.start()
    profiler = cProfile.Profile()
    profiler.enable()
    result = simulation.run()
    profiler.disable()
    traced_peak = None
    if args.mem:
        _, traced_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(args.sort or "cumulative")
    stats.print_stats(args.limit or 25)
    kinds = _kind_breakdown(stats)
    if kinds:
        wall = result.wall_clock_seconds
        print("[profile] per-event-kind share (handler cumulative time):")
        for kind, seconds, dispatches in kinds:
            share = 100.0 * seconds / wall if wall else 0.0
            print(
                f"  {kind:<9} {seconds:8.3f}s  {share:5.1f}% of wall"
                f"  ({dispatches} dispatches)"
            )
        remainder = wall - sum(seconds for _, seconds, _ in kinds)
        if wall:
            print(
                f"  {'(loop)':<9} {max(remainder, 0.0):8.3f}s "
                f" {100.0 * max(remainder, 0.0) / wall:5.1f}% of wall"
                "  (queue drain, scheduling, bookkeeping)"
            )
    print(
        f"[profile] {config.population} peers x {config.rounds} rounds "
        f"(fidelity={config.fidelity}): "
        f"{result.wall_clock_seconds:.2f}s wall, "
        f"{result.metrics.total_repairs} repairs, "
        f"{result.deaths} deaths"
    )
    if args.mem:
        print(
            f"[profile] memory: tracemalloc peak "
            f"{traced_peak / 2**20:.1f} MiB, peak RSS {_peak_rss_mib():.1f} MiB"
        )
    return 0


def _peak_rss_mib() -> float:
    """The process's lifetime peak resident set size in MiB.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS.
    """
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - platform specific
        return peak / 2**20
    return peak / 2**10


def _run_worker(args: argparse.Namespace) -> int:
    """The ``worker`` command: drain distributed cells, publish, exit.

    The worker rebuilds the same specs the coordinating sweep runs
    (same scale, same seeds), then drains all of their cells in one
    pass of the ``distributed`` backend: cells already published are
    skipped, free cells are leased and simulated, and cells being
    computed elsewhere are left alone unless their lease expires.  The
    worker exits once every cell of its spec list has a published
    result, so it is safe to start workers before, alongside or after
    the coordinator.
    """
    scale = scale_by_name(args.scale)
    names = args.experiments or sorted(_SIMULATION_EXPERIMENTS)
    seeds = tuple(args.seeds) if args.seeds else ()
    worker_id = args.worker_id or default_worker_id()
    executor = SweepExecutor(
        workers=args.workers,
        cache=ResultCache(args.cache_dir),
        backend="distributed",
        worker_id=worker_id,
        lease_ttl=args.lease_ttl,
    )
    specs = [_SPEC_BUILDERS[name](scale=scale, seeds=seeds) for name in names]
    executor.plan(specs)
    for name, spec in zip(names, specs):
        print(f"[worker {worker_id}] {name}: {spec.cell_count} cells")
        sweep = executor.run(spec)
        print(
            f"[worker {worker_id}] {name} drained: "
            f"{sweep.stats.simulated} simulated, "
            f"{sweep.stats.cache_hits} already published"
        )
    _print_executor_summary(executor)
    return 0


def _print_executor_summary(executor: SweepExecutor) -> None:
    stats = executor.stats
    print(
        f"[executor] {stats.cells} cells: {stats.simulated} simulated, "
        f"{stats.cache_hits} from cache "
        f"({executor.workers} worker(s), {stats.wall_clock_seconds:.1f}s)"
    )


def _run_one(
    name: str,
    scale,
    seeds: Optional[Sequence[int]],
    markdown: bool,
    check: bool,
    csv_dir: Optional[str] = None,
    executor: Optional[SweepExecutor] = None,
) -> List[str]:
    runner, checker = _SIMULATION_EXPERIMENTS[name]
    result = runner(
        scale=scale,
        seeds=tuple(seeds) if seeds else (),
        executor=executor,
    )
    print(result.render(markdown=markdown))
    if csv_dir is not None and hasattr(result, "to_csv"):
        directory = pathlib.Path(csv_dir)
        directory.mkdir(parents=True, exist_ok=True)
        target = directory / f"{name}.csv"
        target.write_text(result.to_csv())
        print(f"(series written to {target})")
    problems: List[str] = []
    if check and checker is not None:
        problems = checker(result)
        if problems:
            print(f"\nshape-check FAILURES for {name}:")
            for problem in problems:
                print(f"  - {problem}")
        else:
            print(f"\nshape checks passed for {name}.")
    return problems


def _run_sweeps(args: argparse.Namespace) -> int:
    """The figure/ablation/'all' commands: cached sweeps plus reports."""
    scale = scale_by_name(args.scale)
    executor = build_executor(args)
    names = (
        sorted(_SIMULATION_EXPERIMENTS)
        if args.experiment == "all"
        else [args.experiment]
    )
    seeds = tuple(args.seeds) if args.seeds else ()
    executor.plan(
        _SPEC_BUILDERS[name](scale=scale, seeds=seeds) for name in names
    )
    failures: List[str] = []
    for name in names:
        print(f"=== {name} (scale={scale.name}) ===")
        failures.extend(
            _run_one(
                name,
                scale,
                args.seeds,
                args.markdown,
                not args.no_check,
                csv_dir=args.csv_dir,
                executor=executor,
            )
        )
        print()
    if args.experiment == "all":
        print(tables.render_all(markdown=args.markdown))
    _print_executor_summary(executor)
    return 1 if failures else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    A reader closing stdout early (``list | head -1``) is a normal end:
    stdout goes to ``os.devnull``, so no flush fails and no traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        code = _dispatch(args)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return code


def _dispatch(args: argparse.Namespace) -> int:
    if args.experiment == "tables":
        print(tables.render_all(markdown=args.markdown))
        return 0
    if args.experiment == "list":
        print(render_component_list())
        return 0
    if args.experiment == "lint":
        from ..lint.cli import run_from_args

        return run_from_args(args)
    if args.experiment == "run":
        return _run_scenario(args)
    if args.experiment == "profile":
        return _run_profile(args)
    if args.experiment == "worker":
        return _run_worker(args)
    return _run_sweeps(args)


if __name__ == "__main__":
    sys.exit(main())
