"""Every module must import cleanly on numpy alone and be documented."""

import importlib
import pkgutil
import subprocess
import sys
import textwrap

import pytest

import repro


def _all_module_names():
    names = ["repro"]
    for module in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(module.name)
    return names


@pytest.mark.parametrize("name", _all_module_names())
def test_module_imports_and_has_docstring(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} is missing a module docstring"


def test_public_symbols_are_documented():
    """Every name re-exported by a package __init__ has a docstring."""
    undocumented = []
    for package_name in (
        "repro.core", "repro.sim", "repro.churn",
        "repro.net", "repro.backup", "repro.analysis", "repro.baselines",
    ):
        package = importlib.import_module(package_name)
        for symbol in getattr(package, "__all__", []):
            value = getattr(package, symbol)
            if callable(value) and not getattr(value, "__doc__", None):
                undocumented.append(f"{package_name}.{symbol}")
    assert not undocumented, undocumented


def _run_script(script):
    """Run ``script`` in a fresh interpreter; returns the completed process."""
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True,
        text=True,
    )


class TestNumpyOnlyRuntime:
    """numpy is the only runtime dependency ``pyproject.toml`` declares."""

    def test_runs_with_scipy_absent(self):
        completed = _run_script(
            """
            import importlib.abc, sys

            class ScipyBlocker(importlib.abc.MetaPathFinder):
                def find_spec(self, name, path=None, target=None):
                    if name == "scipy" or name.startswith("scipy."):
                        # What a genuinely absent scipy raises.
                        raise ModuleNotFoundError(
                            f"No module named {name!r}", name=name
                        )
                    return None

            sys.meta_path.insert(0, ScipyBlocker())
            import repro
            import repro.analysis  # noqa: F401
            from repro.experiments.runner import main
            assert main(["list"]) == 0
            from repro import SimulationConfig, run_simulation
            for fidelity in ("abstract_soa", "protocol"):
                config = SimulationConfig.scaled(
                    population=100, rounds=300, fidelity=fidelity
                )
                assert run_simulation(config).final_round == 300
            """
        )
        assert completed.returncode == 0, completed.stderr

    def test_scipy_stays_off_the_import_path(self):
        """Where scipy is installed, the package still never imports it."""
        completed = _run_script(
            """
            import sys
            import repro
            import repro.experiments.runner
            import repro.sim.protocol
            assert "scipy" not in sys.modules
            """
        )
        assert completed.returncode == 0, completed.stderr
