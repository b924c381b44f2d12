"""The repository's end-to-end benchmark (declared in ``BENCHMARK.json``).

Every sample runs in a fresh child process (``sample.py``), one at a
time, and drives the program only through its public entry points:
``simulation_for(config).run()`` and ``audit()`` for the simulation
workloads, ``repro.experiments.runner.main([...])`` for the sweep.  A
traced sample wraps the layer boundaries (``spans.py``) and yields the
per-layer table; timed samples are never traced.

Full run — every workload, samples interleaved round-robin so that a
burst of host noise spreads over all of them, one traced sample each::

    python benchmarks/e2e/run.py --seed 0 [--out results.json] [--smoke]

One workload for a fixed time (the harness form; the last stdout line
is the JSON result, per-layer metrics with ``--trace 1``)::

    python benchmarks/e2e/run.py --workload paper-default --seed 0 \\
        --seconds 10 --trace 0

Both print every metric with its unit, sample count, median and
quartiles, and exit non-zero if any sample's output fails its
correctness checks.  ``src/`` is found next to this directory; no
install is needed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Scratch space for caches and temp files (gitignored, removed after).
SCRATCH = ROOT / ".e2e-scratch"

#: Seconds one child may run before it is killed and counted failed.
SAMPLE_TIMEOUT = 150.0

#: Seconds between host-speed probes while a child runs.
PROBE_INTERVAL = 0.05

#: CPU seconds :func:`probe` takes next to a sample on the reference
#: host (the 2-vCPU container the benchmark was defined on, unloaded).
#: A probe's host speed is this over its measured cost; end-to-end
#: times are reported in reference seconds, measured seconds times the
#: mean host speed while they were measured.
REFERENCE_PROBE_S = 0.0014

#: Seconds the full run may spend sampling, so that with start-up and
#: reporting it ends within ten minutes on a slow host.
FULL_RUN_BUDGET_S = 540.0


def load_declaration() -> dict:
    """``BENCHMARK.json``: workloads, metric units, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ----------------------------------------------------------------------
# Samples
# ----------------------------------------------------------------------
def probe() -> float:
    """CPU seconds of one fixed interpreter kernel: the host's speed now.

    The host is shared, and the same sample has measured 1.8x slower
    for seconds to minutes at a time.  That slowdown is contention for
    the hardware, so it shows in CPU time too, and it differs between
    cores.  The kernel does the kind of work the engines do (dict
    inserts and list stores over about a megabyte of objects) on the
    core a simulation sample is pinned to, so its cost tracks that
    core's speed while the sample runs.  It left less scatter in the
    samples' reference times than the same loop over a 1,024-entry
    table (about a quarter less) or a small numpy kernel.  CPU time,
    not wall time: waiting for the core must not count as slowness.
    ``probe_check.py`` shows that what the sample does to the caches
    barely moves the cost, so the code under test does not cancel its
    own regressions.
    """
    started = time.process_time()
    table: Dict[int, int] = {}
    column = [0] * 32768
    for i in range(9000):
        key = (i * 7919) & 32767
        table[key] = table.get(key, 0) + 1
        column[key] += i & 7
    return time.process_time() - started


def mean_speed(speeds: List[tuple], start: float, end: float) -> float:
    """Mean host speed within ``[start, end]`` (all probes if none fall in it).

    The mean of speeds, not of costs: work done is speed integrated
    over time, and one probe the host stalled cannot swamp the mean.
    """
    inside = [speed for at, speed in speeds if start <= at <= end]
    return statistics.mean(inside or [speed for _, speed in speeds])


class Sampler:
    """Runs samples in child processes, one at a time."""

    def __init__(self, scratch: Path, smoke: bool):
        self.scratch = scratch
        self.smoke = smoke
        self.cpus = os.sched_getaffinity(0)
        #: The core that every simulation sample shares with the probes.
        self.core = {min(self.cpus)}
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + os.pathsep + path if path else src
        # Caches and temp files of the children stay in the checkout.
        self.env["TMPDIR"] = str(scratch)

    def run(self, workload: str, seed: int, traced: bool = False) -> dict:
        """One sample: the child's JSON result plus what the parent saw."""
        flags = [flag for flag, wanted in (("--trace", traced), ("--smoke", self.smoke)) if wanted]
        sample = {"workload": workload, "seed": seed, "traced": traced}
        speeds: List[tuple] = []
        with tempfile.TemporaryFile("w+", dir=self.scratch) as stdout, tempfile.TemporaryFile(
            "w+", dir=self.scratch
        ) as stderr:
            # A simulation shares one core with the probes, which then
            # measure that core's speed.  The sweep's pool uses every
            # core, so the probes visit each core in turn.
            if workloads.is_simulation(workload):
                os.sched_setaffinity(0, self.core)
                cores = [self.core]
            else:
                cores = [{cpu} for cpu in sorted(self.cpus)]
            started = _now()
            child = subprocess.Popen(
                [sys.executable, str(HERE / "sample.py"), workload, str(seed), repr(started), *flags],
                cwd=ROOT,
                env=self.env,
                stdout=stdout,
                stderr=stderr,
                text=True,
                start_new_session=True,
            )
            # A thread blocks in waitpid, so between probes this process
            # sleeps once instead of polling the child on its core.
            exited = threading.Event()
            waiter = threading.Thread(target=lambda: (child.wait(), exited.set()), daemon=True)
            waiter.start()
            killed = False
            try:
                for turn in itertools.count():
                    os.sched_setaffinity(0, cores[turn % len(cores)])
                    speeds.append((_now(), REFERENCE_PROBE_S / probe()))
                    if exited.wait(PROBE_INTERVAL):
                        break
                    if _now() - started > SAMPLE_TIMEOUT:
                        killed = True
                        break
            finally:
                if not exited.is_set():
                    # The whole session: a sweep's pool workers die with it.
                    try:
                        os.killpg(child.pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass  # it ended on its own meanwhile
                waiter.join()
                os.sched_setaffinity(0, self.cpus)
            sample["duration_s"] = _now() - started
            stdout.seek(0)
            stderr.seek(0)
            lines = stdout.read().strip().splitlines()
            errors = stderr.read().strip().splitlines()
        if killed or child.returncode != 0 or not lines:
            reason = f"killed after {SAMPLE_TIMEOUT:.0f}s" if killed else f"exited {child.returncode}"
            sample["problems"] = [f"child {reason}: {' | '.join(errors[-3:])}"]
            return sample
        sample.update(json.loads(lines[-1]))
        sample.setdefault("problems", [])
        sample["speed_setup"] = mean_speed(speeds, started, started + sample["setup_s"])
        if "window" in sample:
            sample["speed_run"] = mean_speed(speeds, *sample["window"])
        return sample


def check_digests(samples: List[dict]) -> None:
    """Samples of one workload and seed, traced or not, must agree."""
    first: Dict[tuple, dict] = {}
    for sample in samples:
        if "digest" not in sample:
            continue
        key = (sample["workload"], sample["seed"])
        reference = first.setdefault(key, sample)
        if sample["digest"] != reference["digest"]:
            sample["problems"].append(
                f"output digest {sample['digest'][:12]} differs from "
                f"{reference['digest'][:12]} of an earlier sample with seed "
                f"{sample['seed']}: the run is not deterministic, or tracing "
                "changed its behaviour"
            )


def failed(sample: dict) -> bool:
    return bool(sample["problems"])


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def summary(values: List[float], unit: str) -> dict:
    """Median and quartiles (``statistics.quantiles``, n=4) of a metric."""
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"unit": unit, "n": len(values), "median": median, "q1": q1, "q3": q3, "values": values}


def reference_wall_s(sample: dict) -> float:
    """The timed part of a sample in reference seconds."""
    return sample["wall_s"] * sample["speed_run"]


def reference_setup_s(sample: dict) -> float:
    """The set-up of a sample in reference seconds."""
    return sample["setup_s"] * sample["speed_setup"]


def end_to_end(samples: List[dict], declared: List[dict]) -> Dict[str, dict]:
    """End-to-end metrics over the timed samples that passed their checks."""
    timed = [s for s in samples if not s["traced"] and not failed(s)]
    values = {
        "wall_s": [reference_wall_s(s) for s in timed],
        # Tracing starts after set-up, so traced samples time it too.
        "setup_s": [reference_setup_s(s) for s in samples if not failed(s)],
        "peak_rss_mib": [s["peak_rss_mib"] for s in timed],
        "peer_rounds_per_s": [s["peer_rounds"] / reference_wall_s(s) for s in timed],
    }
    return {
        metric["name"]: summary(values[metric["name"]], metric["unit"])
        for metric in declared
        if values[metric["name"]]
    }


def per_layer(samples: List[dict], declared: List[dict]) -> Dict[str, dict]:
    """Per-layer metrics over the traced samples (median per metric)."""
    layers = [spans.layer_metrics(s["trace"]) for s in samples if s["traced"] and not failed(s)]
    if not layers:
        return {}
    return {
        metric["name"]: summary([m[metric["name"]] for m in layers], metric["unit"])
        for metric in declared
    }


def trace_overhead(samples: List[dict]) -> Optional[dict]:
    """``trace.overhead_frac``: traced wall over the untraced median, minus 1.

    Against untraced samples of the traced sample's own seed, since
    seeds differ in cost; ``None`` without such a pair (a ``--trace 1``
    run takes its traced sample alone, so it is not in
    ``BENCHMARK.json``).
    """
    ok = [s for s in samples if not failed(s)]
    values = []
    for sample in (s for s in ok if s["traced"]):
        untraced = [reference_wall_s(s) for s in ok if not s["traced"] and s["seed"] == sample["seed"]]
        if untraced:
            values.append(reference_wall_s(sample) / statistics.median(untraced) - 1.0)
    return summary(values, "fraction") if values else None


def report(samples: List[dict], declaration: dict) -> dict:
    """Everything one workload produced, as written to ``--out``."""
    check_digests(samples)
    failures = sum(failed(s) for s in samples)
    return {
        "attempted": len(samples),
        "failed": failures,
        # Not in BENCHMARK.json, whose metrics must never read 0;
        # compare.py calls any increase worse.
        "failed_frac": failures / len(samples),
        "problems": [
            f"seed {s['seed']}{' (traced)' if s['traced'] else ''}: {problem}"
            for s in samples
            for problem in s["problems"]
        ],
        "end_to_end": end_to_end(samples, declaration["end_to_end"]),
        "per_layer": per_layer(samples, declaration["per_layer"]),
        "trace_overhead_frac": trace_overhead(samples),
        "span_tables": [
            {"request": index, "seed": s["seed"], "wall_s": s["trace"]["wall_s"], "rows": s["trace"]["rows"]}
            for index, s in enumerate(samples)
            if s["traced"] and not failed(s)
        ],
        "samples": [
            {key: value for key, value in s.items() if key != "trace"} for s in samples
        ],
    }


def print_report(name: str, result: dict) -> None:
    print(f"== {name}: {result['attempted']} samples, {result['failed']} failed ==")
    print(f"{'metric':32} {'unit':9} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12}")
    layers = result["per_layer"]
    idle = [metric for metric, row in layers.items() if not any(row["values"])]
    frac = result["failed_frac"]
    rows = list(result["end_to_end"].items())
    rows.append(("failed_frac", {"unit": "fraction", "n": result["attempted"], "median": frac, "q1": frac, "q3": frac}))
    rows += [(metric, row) for metric, row in layers.items() if metric not in idle]
    if result["trace_overhead_frac"] is not None:
        rows.append(("trace.overhead_frac", result["trace_overhead_frac"]))
    for metric, row in rows:
        print(
            f"{metric:32} {row['unit']:9} {row['n']:>3} {row['median']:>12.6g} "
            f"{row['q1']:>12.6g} {row['q3']:>12.6g}"
        )
    if idle:
        print(f"({len(idle)} per-layer metrics read 0: layers this workload never reaches)")
    if layers:
        dominant = max(spans.LAYERS, key=lambda layer: layers[f"{layer}.share"]["median"])
        share = layers[f"{dominant}.share"]["median"]
        print(f"dominant layer: {dominant} ({share:.1%} of traced wall)")
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    print()


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def _git(*args: str) -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout: no history to ask
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True,
            text=True,
            timeout=30,
            check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.partition(":")[2].strip()
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    """Where and on what the numbers were measured."""
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "commit": commit.strip() if commit else "unknown",
        "dirty": bool(status.strip()) if status is not None else None,
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "seed": seed,
        "loadavg_start": _read("/proc/loadavg").strip(),
    }


# ----------------------------------------------------------------------
# The two modes
# ----------------------------------------------------------------------
def run_for(sampler: Sampler, name: str, seed: int, seconds: float, trace: bool) -> List[dict]:
    """Samples of one workload, for about ``seconds``.

    Untraced, every seed of the workload's plan is sampled once, and a
    further sample starts only while the last one says it would end
    within ``seconds``.  Traced, seed ``seed`` is sampled once, traced,
    for the per-layer table.
    """
    if trace:
        return [sampler.run(name, seed, traced=True)]
    started = _now()
    seeds = len(workloads.PLAN[name][1])
    samples: List[dict] = []
    for index in itertools.count():
        samples.append(sampler.run(name, workloads.seed_for(name, seed, index)))
        if index + 1 >= seeds and _now() - started + samples[-1]["duration_s"] > seconds:
            return samples


def run_all(sampler: Sampler, seed: int) -> tuple:
    """Every workload's planned samples, interleaved round-robin.

    Returns ``(samples, dropped)`` by workload.  Each workload's traced
    sample runs first.  A later sample starts only while the previous
    sample of its workload says it would end within
    :data:`FULL_RUN_BUDGET_S`; on a host too slow for that, the rest of
    that workload's plan is dropped and counted.  ``--smoke`` runs one
    traced and one timed sample per workload.
    """
    queues = {}
    for name, (repeats, offsets) in workloads.PLAN.items():
        if sampler.smoke:
            repeats, offsets = 1, offsets[:1]
        plan = [(seed + offset, False) for _ in range(repeats) for offset in offsets]
        queues[name] = [(seed, True)] + plan
    samples: Dict[str, List[dict]] = {name: [] for name in queues}
    dropped = dict.fromkeys(queues, 0)
    started = _now()
    while any(queues.values()):
        for name, queue in queues.items():
            if not queue:
                continue
            last = samples[name][-1]["duration_s"] if samples[name] else 0.0
            if _now() - started + last > FULL_RUN_BUDGET_S:
                dropped[name] += len(queue)
                queue.clear()
                continue
            sample_seed, traced = queue.pop(0)
            samples[name].append(sampler.run(name, sample_seed, traced=traced))
    return samples, dropped


def contract_line(result: dict, group: str) -> str:
    """The harness result: ``correct``, ``attempted``, ``failed``, ``metrics``."""
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": row["median"], "unit": row["unit"]}
                for name, row in result[group].items()
            },
        }
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark (see BENCHMARK.json and README.md)."
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed S")
    parser.add_argument("--out", help="write every sample and metric here as JSON")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    parser.add_argument("--workload", help="run one workload for --seconds")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Terminating the run must also stop the running sample (see Sampler.run).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    declaration = load_declaration()
    names = [workload["name"] for workload in declaration["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")

    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    sampler = Sampler(scratch, args.smoke)
    record = {"provenance": provenance(args.seed), "smoke": args.smoke}
    dropped: Dict[str, int] = {}
    try:
        if args.workload is None:
            samples, dropped = run_all(sampler, args.seed)
        else:
            samples = {
                args.workload: run_for(
                    sampler, args.workload, args.seed, args.seconds, bool(args.trace)
                )
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run is using it
    record["provenance"]["loadavg_end"] = _read("/proc/loadavg").strip()
    record["provenance"]["samples"] = {name: len(s) for name, s in samples.items()}
    record["provenance"]["dropped"] = dropped
    record["workloads"] = {
        name: report(workload_samples, declaration)
        for name, workload_samples in samples.items()
    }
    for name, result in record["workloads"].items():
        print_report(name, result)
    if any(dropped.values()):
        print(f"samples dropped to end within {FULL_RUN_BUDGET_S:.0f}s of sampling: {dropped}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    failures = sum(result["failed"] for result in record["workloads"].values())
    if args.workload is not None:
        result = record["workloads"][args.workload]
        print(contract_line(result, "per_layer" if args.trace else "end_to_end"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
