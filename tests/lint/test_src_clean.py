"""The shipped tree satisfies its own invariants (the CI lint gate)."""

import importlib
import pkgutil

import repro
from repro.lint import LINT_RULES, run_lint
from repro.lint.engine import default_package_root, default_repo_root
from repro.lint.rules import R003_REGISTRIES
from repro.registry import Registry


class TestSrcClean:
    def test_src_repro_lints_clean(self):
        report = run_lint([default_package_root()])
        assert report.findings == [], report.render_text()
        assert report.warnings == [], report.render_text()
        assert report.rules == sorted(LINT_RULES.names())
        assert report.files > 50  # the whole package, not a subset

    def test_tests_and_benchmarks_advisory_clean(self):
        repo_root = default_repo_root()
        advisory = [
            path
            for path in (repo_root / "tests", repo_root / "benchmarks")
            if path.is_dir()
        ]
        report = run_lint(
            [default_package_root()], advisory_paths=advisory
        )
        assert report.findings == [], report.render_text()
        assert report.advisory == [], report.render_text()



class TestR003Registries:
    def test_every_name_is_a_registry_defined_in_src(self):
        """R003's registry list names only live registries of the package.

        A registry deleted from ``src/repro`` without its lint entry
        would leave R003 guarding a name nothing defines.
        """
        found = {
            name
            for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
            for name, value in vars(importlib.import_module(info.name)).items()
            if name in R003_REGISTRIES and isinstance(value, Registry)
        }
        missing = [name for name in R003_REGISTRIES if name not in found]
        assert not missing, f"R003_REGISTRIES names no registry: {missing}"
