"""One benchmark sample, in a fresh process: ``run.py`` spawns this file.

Usage (``src`` on ``PYTHONPATH``)::

    python benchmarks/e2e/sample.py WORKLOAD SEED SPAWNED [--trace] [--smoke]

``SPAWNED`` is the parent's ``CLOCK_MONOTONIC`` reading just before it
started this process (the clock is system-wide on Linux), so
``setup_s`` covers interpreter start, imports, config build and engine
construction.  The sample prints one JSON object on its last stdout
line: timings, peak RSS, the work done, a digest of the program's
output, every correctness problem found (an empty list when the
output checks out), and the ``CLOCK_MONOTONIC`` window of the timed
part (``run.py`` matches it against its host-speed probes).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import resource
import shutil
import tempfile
import time
from pathlib import Path

import spans
import workloads

_EXECUTOR_LINE = re.compile(r"^\[executor\] (\d+) cells: (\d+) simulated", re.M)


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def simulation_sample(name: str, seed: int, spawned: float, traced: bool, smoke: bool) -> dict:
    from repro.exec.cache import canonical_json
    from repro.sim.fidelity import simulation_for

    config = workloads.simulation_config(name, seed, smoke)
    sim = simulation_for(config)
    setup_s = _now() - spawned
    tracer = spans.Tracer() if traced else None
    if tracer is not None:
        spans.trace_simulation(tracer, sim)
    started = _now()
    result = sim.run()
    finished = _now()
    wall_s = finished - started
    peak_rss = peak_rss_mib()
    trace = None
    if tracer is not None:
        tracer.close()
        trace = tracer.snapshot(wall_s)

    problems = [f"audit: {problem}" for problem in sim.audit()]
    if result.final_round != config.rounds:
        problems.append(
            f"run stopped at round {result.final_round} of {config.rounds}"
        )
    digest = hashlib.sha256(canonical_json(result.to_dict()).encode("utf-8"))
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mib": peak_rss,
        "peer_rounds": config.population * config.rounds,
        "digest": digest.hexdigest(),
        "problems": problems,
        "trace": trace,
        "window": [started, finished],
    }


def _without_executor_lines(stdout: str) -> str:
    """A CLI report minus its ``[executor]`` lines (which carry timings)."""
    lines = stdout.splitlines(keepends=True)
    return "".join(line for line in lines if not line.startswith("[executor]"))


def _run_cli(main, argv) -> tuple:
    """``(exit code, stdout)`` of one in-process ``repro-experiments`` call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def sweep_sample(seed: int, spawned: float, traced: bool, smoke: bool) -> dict:
    from repro.exec.executor import SweepExecutor
    from repro.experiments import runner

    # Set-up ends when the first sweep starts executing cells.
    sweep_starts = []
    run = SweepExecutor.run

    def marked_run(self, spec):
        if not sweep_starts:
            sweep_starts.append(_now())
        return run(self, spec)

    SweepExecutor.run = marked_run

    cache_dir = tempfile.mkdtemp(prefix="sweep-cache-")
    try:
        argv = workloads.sweep_argv(seed, cache_dir, smoke)
        tracer = spans.Tracer() if traced else None
        if tracer is not None:
            spans.trace_sweep(tracer)
        cold_code, cold_out = _run_cli(runner.main, argv)
        finished = _now()
        wall_s = finished - sweep_starts[0]
        peak_rss = peak_rss_mib()
        trace = None
        if tracer is not None:
            tracer.close()
            trace = tracer.snapshot(wall_s)
            tracer = spans.Tracer()
            spans.trace_sweep(tracer)
        warm_started = time.perf_counter()
        warm_code, warm_out = _run_cli(runner.main, argv)
        warm_wall_s = time.perf_counter() - warm_started
        if tracer is not None:
            tracer.close()
            trace["warm"] = tracer.snapshot(warm_wall_s)

        peer_rounds = 0
        for path in Path(cache_dir).glob("??/*.json"):
            config = json.loads(path.read_text(encoding="utf-8"))["config"]
            peer_rounds += config["population"] * config["rounds"]
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    problems = []
    if cold_code != 0:
        problems.append(f"cold pass exited {cold_code}")
    if warm_code != 0:
        problems.append(f"warm pass exited {warm_code}")
    warm_summary = _EXECUTOR_LINE.search(warm_out)
    if warm_summary is None or warm_summary.group(2) != "0":
        problems.append(
            "warm pass simulated cells instead of reading the cache: "
            + (warm_summary.group(0) if warm_summary else "no [executor] line")
        )
    cold_report = _without_executor_lines(cold_out)
    if _without_executor_lines(warm_out) != cold_report:
        problems.append("warm stdout differs from cold stdout beyond [executor] lines")
    return {
        "setup_s": sweep_starts[0] - spawned,
        "wall_s": wall_s,
        "peak_rss_mib": peak_rss,
        "peer_rounds": peer_rounds,
        "digest": hashlib.sha256(cold_report.encode("utf-8")).hexdigest(),
        "problems": problems,
        "trace": trace,
        "window": [sweep_starts[0], finished],
    }


def peak_rss_mib() -> float:
    """Peak RSS so far of this process or any child it waited for (pool workers)."""
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kib / 1024.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("spawned", type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if workloads.is_simulation(args.workload):
        sample = simulation_sample(
            args.workload, args.seed, args.spawned, args.trace, args.smoke
        )
    else:
        sample = sweep_sample(args.seed, args.spawned, args.trace, args.smoke)
    print(json.dumps(sample))


if __name__ == "__main__":
    main()
