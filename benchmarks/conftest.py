"""Shared benchmark machinery.

Every benchmark regenerates one of the paper's artifacts (DESIGN.md
section 2) at the QUICK experiment scale, prints the same rows/series
the paper reports, and asserts the qualitative shape where one is
defined.  ``pedantic`` mode with a handful of rounds (``--bench-repeats``,
default 3) keeps pytest-benchmark from re-running multi-second
simulations dozens of times while still measuring a real spread.

Perf trajectory: passing ``--bench-json PATH`` makes every bench run
append one record per benchmark to the given JSON file (the repo tracks
``BENCH_engine.json``), so engine speedups and regressions are visible
commit over commit::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine.py \
        --bench-json BENCH_engine.json

Record format (one JSON object per entry, newest last)::

    {"bench": <test name>, "scenario": <scenario marker or "">,
     "mean_s": <mean seconds>, "stdev_s": <stdev, 0.0 for single runs>,
     "commit": <short git hash or "unknown">,
     "cpu": <CPU model>, "nproc": <CPUs this process may run on>,
     "python": <version>, "numpy": <version>,
     "dirty": <uncommitted changes in the checkout, null without git>}

The last five fields say where a mean was measured, so that only rows
from one machine and one toolchain are compared.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import platform
import subprocess

import numpy as np
import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--bench-json",
        action="store",
        default=None,
        metavar="PATH",
        help="append {bench, scenario, mean_s, stdev_s, commit, ...} "
        "records for every benchmark to this JSON file (perf trajectory)",
    )
    parser.addoption(
        "--bench-repeats",
        action="store",
        type=int,
        default=3,
        metavar="N",
        help="rounds per benchmark (pedantic, one iteration each); "
        "N >= 2 yields a real stdev_s in the trajectory records",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "scenario(name): label a benchmark with the scenario preset it "
        "exercises (recorded in the --bench-json trajectory)",
    )


def _git(*args: str):
    """``git`` output in this checkout, or None without git."""
    try:
        return subprocess.run(
            ["git", *args],
            cwd=pathlib.Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None


def _cpu_model() -> str:
    try:
        cpuinfo = pathlib.Path("/proc/cpuinfo").read_text(encoding="utf-8")
    except OSError:
        cpuinfo = ""
    for line in cpuinfo.splitlines():
        if line.startswith("model name"):
            return line.partition(":")[2].strip()
    return platform.processor() or "unknown"


@functools.lru_cache(maxsize=None)
def _provenance() -> dict:
    """Commit, machine and toolchain of this session's records.

    Taken once, before the first record is written, so the trajectory
    file's own edit never marks the checkout dirty.
    """
    commit = _git("rev-parse", "--short", "HEAD")
    status = _git("status", "--porcelain")
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        nproc = os.cpu_count()
    return {
        "commit": commit.strip() if commit else "unknown",
        "cpu": _cpu_model(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "dirty": bool(status.strip()) if status is not None else None,
    }


def _append_record(request, benchmark) -> None:
    """Write one trajectory record if --bench-json was given."""
    path = request.config.getoption("--bench-json")
    if not path or benchmark.stats is None:
        return
    marker = request.node.get_closest_marker("scenario")
    stats = benchmark.stats.stats
    record = {
        "bench": request.node.name,
        "scenario": marker.args[0] if marker and marker.args else "",
        "mean_s": stats.mean,
        "stdev_s": stats.stddev,
        **_provenance(),
    }
    target = pathlib.Path(path)
    records = []
    if target.exists():
        records = json.loads(target.read_text() or "[]")
    records.append(record)
    target.write_text(json.dumps(records, indent=2) + "\n")


@pytest.fixture
def run_once(benchmark, request):
    """Benchmark a callable (one iteration per round) and return its result.

    The historical name survives: each *round* still runs the callable
    exactly once, but ``--bench-repeats N`` (default 3) repeats that
    round N times so the recorded ``stdev_s`` is a real spread instead
    of the 0.0 a single observation degenerates to.
    """
    repeats = max(1, request.config.getoption("--bench-repeats"))

    def runner(fn, *args, **kwargs):
        result = benchmark.pedantic(
            fn, args=args, kwargs=kwargs, iterations=1, rounds=repeats
        )
        _append_record(request, benchmark)
        return result

    return runner
