"""Perf-trajectory records: provenance written, and still gateable.

``benchmarks/conftest.py`` appends one record per benchmark to a
``--bench-json`` file, stamped with the machine and toolchain that
measured it; ``scripts/check_bench_regression.py`` gates fresh records
against the committed ``BENCH_engine.json``.  Both sides must keep
reading each other's files.
"""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_conftest = _load("bench_conftest", REPO_ROOT / "benchmarks" / "conftest.py")
check_bench = _load(
    "check_bench_regression", REPO_ROOT / "scripts" / "check_bench_regression.py"
)

PROVENANCE = ("commit", "cpu", "nproc", "python", "numpy", "dirty")


def _record(path, scenario, mean):
    """Append one record the way a ``--bench-json`` bench run does."""
    marker = SimpleNamespace(args=(scenario,))
    request = SimpleNamespace(
        config=SimpleNamespace(getoption=lambda name: str(path)),
        node=SimpleNamespace(
            name=f"test_{scenario}", get_closest_marker=lambda name: marker
        ),
    )
    benchmark = SimpleNamespace(
        stats=SimpleNamespace(stats=SimpleNamespace(mean=mean, stddev=0.01))
    )
    bench_conftest._append_record(request, benchmark)


def test_records_carry_their_provenance(tmp_path):
    path = tmp_path / "bench.json"
    _record(path, "paper-soa-quick", 0.5)
    (record,) = json.loads(path.read_text())
    assert record["scenario"] == "paper-soa-quick"
    assert record["mean_s"] == 0.5
    for field in PROVENANCE:
        assert field in record, field
    assert isinstance(record["nproc"], int) and record["nproc"] >= 1
    assert record["python"].count(".") == 2
    assert record["dirty"] in (True, False, None)


def test_gate_reads_records_with_provenance(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    fresh = tmp_path / "fresh.json"
    _record(baseline, "paper-soa-quick", 1.0)
    _record(fresh, "paper-soa-quick", 1.1)
    assert check_bench.check(fresh, baseline, ("paper-soa-quick",), 1.2) == 0
    _record(fresh, "paper-soa-quick", 1.3)  # the last record wins
    assert check_bench.check(fresh, baseline, ("paper-soa-quick",), 1.2) == 1
    output = capsys.readouterr().out
    assert "pass  paper-soa-quick" in output
    assert "FAIL  paper-soa-quick" in output
