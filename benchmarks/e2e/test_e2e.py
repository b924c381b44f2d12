"""Tests of the end-to-end benchmark itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import subprocess
import sys
import time

import pytest

import compare
import spans
import workloads
from run import ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _declaration() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class _Tree:
    """A call tree whose every step advances a scripted clock."""

    def __init__(self, clock: _Clock):
        self.clock = clock

    def outer(self):
        self.clock.now += 1.0
        self.inner()
        self.clock.now += 2.0
        self.inner()
        return "done"

    def inner(self):
        self.clock.now += 3.0
        self.leaf()

    def leaf(self):
        self.clock.now += 0.5

    @classmethod
    def build(cls, clock):
        clock.now += 4.0
        return cls(clock)


def test_self_time_subtracts_child_spans():
    clock = _Clock()
    tree = _Tree(clock)
    tracer = spans.Tracer(clock=clock)
    tracer.wrap(tree, "outer", "analysis")
    tracer.wrap(tree, "inner", "exec")
    tracer.wrap(tree, "leaf", "cache")

    assert tree.outer() == "done"

    rows = {(parent, layer): (calls, total, self_s) for parent, layer, calls, total, self_s in tracer.snapshot(10.0)["rows"]}
    assert rows == {
        (spans.ROOT, "analysis"): (1, 10.0, 3.0),
        ("analysis", "exec"): (2, 7.0, 6.0),
        ("exec", "cache"): (2, 1.0, 1.0),
    }
    metrics = spans.layer_metrics(tracer.snapshot(10.0))
    assert metrics["exec.self_s"] == 6.0
    assert metrics["exec.share"] == 0.6
    assert metrics["trace.unattributed_share"] == 0.0
    assert spans.layer_metrics(tracer.snapshot(20.0))["trace.unattributed_share"] == 0.5


def test_close_restores_instance_and_class_attributes():
    clock = _Clock()
    tree = _Tree(clock)
    tracer = spans.Tracer(clock=clock)
    tracer.wrap(tree, "leaf", "cache")
    tracer.wrap(_Tree, "build", "exec", total="exec.decode_s")
    assert "leaf" in vars(tree)
    assert isinstance(_Tree.build(clock), _Tree)
    assert tracer.totals["exec.decode_s"] == 4.0

    tracer.close()

    assert "leaf" not in vars(tree)
    assert isinstance(vars(_Tree)["build"], classmethod)


def test_errors_count_and_propagate():
    tracer = spans.Tracer()

    class Flaky:
        def send(self):
            raise ConnectionError("offline")

    flaky = Flaky()
    tracer.wrap(flaky, "send", "transport", error="transport.failed")
    with pytest.raises(ConnectionError):
        flaky.send()
    assert tracer.counts["transport.failed"] == 1
    assert tracer.snapshot(1.0)["rows"][0][:3] == [spans.ROOT, "transport", 1]


# ----------------------------------------------------------------------
# Tracing must not change what the program computes
# ----------------------------------------------------------------------
def _digest_and_trace(name: str, traced: bool):
    from repro.exec.cache import canonical_json
    from repro.sim.fidelity import simulation_for

    sim = simulation_for(workloads.simulation_config(name, seed=3, smoke=True))
    tracer = spans.Tracer()
    if traced:
        spans.trace_simulation(tracer, sim)
    started = time.perf_counter()
    result = sim.run()
    wall = time.perf_counter() - started
    tracer.close()
    assert sim.audit() == []
    payload = canonical_json(result.to_dict()).encode("utf-8")
    return hashlib.sha256(payload).hexdigest(), tracer.snapshot(wall)


@pytest.mark.parametrize("name", ["paper-default", "protocol-default"])
def test_traced_run_matches_untraced_digest(name):
    plain, _ = _digest_and_trace(name, traced=False)
    traced, trace = _digest_and_trace(name, traced=True)
    assert traced == plain
    metrics = spans.layer_metrics(trace)
    assert metrics["toggle.calls"] > 0 and metrics["recruit.calls"] > 0
    assert metrics["recruit.examined"] >= metrics["recruit.accepted"] > 0
    reaches_net = name == "protocol-default"
    assert (metrics["transport.calls"] > 0) == reaches_net
    assert (metrics["link.calls"] > 0) == reaches_net


# ----------------------------------------------------------------------
# compare.py verdicts
# ----------------------------------------------------------------------
STEADY = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98]


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        (STEADY, [v * 1.003 for v in STEADY], "lower", "within"),
        (STEADY, [v * 0.80 for v in STEADY], "lower", "better"),
        (STEADY, [v * 1.20 for v in STEADY], "lower", "worse"),
        (STEADY, [v * 1.20 for v in STEADY], "higher", "better"),
        # Spread far wider than the bound, runs interleaved: no verdict.
        ([0.7, 1.0, 1.3, 0.8, 1.2], [0.75, 1.1, 1.35, 0.9, 1.25], "lower", "unresolved"),
        # Wide spread, but every change run beats every parent run.
        ([1.5, 1.2, 1.9, 1.4], [0.6, 0.9, 1.1, 0.7], "lower", "better"),
        # Wide spread, completely separated the other way.
        ([0.6, 0.9, 1.1, 0.7], [1.5, 1.2, 1.9, 1.4], "lower", "worse"),
    ],
)
def test_compare_verdicts(parent, change, better, expected):
    assert compare.verdict(parent, change, better, bound=0.1) == expected


@pytest.mark.parametrize(
    "parent, change, expected",
    [(0.0, 0.0, "within"), (0.0, 0.05, "worse"), (0.2, 0.1, "better")],
)
def test_compare_failed_frac(parent, change, expected):
    assert compare.failure_verdict(parent, change) == expected


# ----------------------------------------------------------------------
# The declaration and the runner, end to end at smoke size
# ----------------------------------------------------------------------
def test_declaration_follows_the_format():
    declaration = _declaration()
    assert set(declaration) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in declaration["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for group in ("end_to_end", "per_layer") for m in declaration[group]]
    assert len(names) == len(set(names))
    for metric in declaration["end_to_end"] + declaration["per_layer"]:
        assert NAME.match(metric["name"]), metric["name"]
        assert metric["better"] in ("lower", "higher")
    for metric in declaration["end_to_end"]:
        assert metric["bound"] > 0


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks/e2e/run.py"), "--smoke", "--seed", "1", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    return done, time.monotonic() - started, json.loads(out.read_text(encoding="utf-8"))


def test_smoke_run_is_fast_and_correct(smoke_run):
    done, seconds, record = smoke_run
    assert done.returncode == 0, done.stdout + done.stderr
    assert seconds < 60
    assert set(record["workloads"]) == set(workloads.WORKLOADS)
    for name, result in record["workloads"].items():
        assert result["failed"] == 0 and result["attempted"] >= 2
        assert result["failed_frac"] == 0.0
        assert result["trace_overhead_frac"]["n"] == 1
        printed = done.stdout.split(f"== {name}:")[1]
        for metric in ("failed_frac", "trace.overhead_frac"):
            assert f"\n{metric:32} fraction" in printed
    provenance = record["provenance"]
    for key in ("commit", "dirty", "cpu_model", "nproc", "python", "numpy", "seed", "samples", "dropped", "loadavg_start", "loadavg_end"):
        assert key in provenance
    assert not any(provenance["dropped"].values())


def test_every_emitted_metric_is_declared(smoke_run):
    _, _, record = smoke_run
    declaration = _declaration()
    for group in ("end_to_end", "per_layer"):
        declared = {metric["name"] for metric in declaration[group]}
        for result in record["workloads"].values():
            assert set(result[group]) == declared
            assert all(NAME.match(name) for name in result[group])


def test_harness_line_and_missing_program(tmp_path):
    command = [
        sys.executable, "benchmarks/e2e/run.py", "--workload", "paper-default",
        "--seed", "2", "--seconds", "1", "--trace", "1", "--smoke",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] == 1 and line["failed"] == 0
    assert set(line["metrics"]) == {metric["name"] for metric in _declaration()["per_layer"]}

    # A directory holding only the benchmark cannot measure anything.
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks/e2e", tmp_path / "benchmarks/e2e")
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
