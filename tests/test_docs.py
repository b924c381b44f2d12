"""Documentation health: real links resolve, snippet rewrites are sane.

The heavy half of the docs lane — actually executing README/EXPERIMENTS
snippets — runs in CI via ``scripts/check_docs.py --execute``; here we
keep the fast invariants: every relative link in the repo's markdown
resolves, and the smoke-rewrite rules produce the commands CI will run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "check_docs", REPO_ROOT / "scripts" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_docs)


class TestRepositoryDocs:
    def test_default_file_set_covers_the_operational_docs(self):
        names = {path.name for path in check_docs.default_files()}
        for required in (
            "README.md",
            "EXPERIMENTS.md",
            "ARCHITECTURE.md",
            "ROADMAP.md",
            "CHANGES.md",
        ):
            assert required in names

    def test_every_markdown_link_resolves(self):
        problems = []
        for path in check_docs.default_files():
            problems += check_docs.check_links(path)
        assert problems == []


class TestShapeCheckTable:
    def test_every_checked_experiment_has_a_row(self):
        """EXPERIMENTS.md names the checks of every ``check_shape``."""
        import pkgutil

        import repro.experiments

        text = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        section = text.split("## Shape checks", 1)[1].split("\n## ", 1)[0]
        rows = [line for line in section.splitlines() if line.startswith("|")]
        checked = []
        for info in pkgutil.iter_modules(repro.experiments.__path__):
            module = importlib.import_module(
                f"repro.experiments.{info.name}"
            )
            if hasattr(module, "check_shape"):
                checked.append(info.name)
        assert len(checked) >= 8
        missing = [
            name for name in checked
            if not any(f"| `{name}` |" in row for row in rows)
        ]
        assert missing == []


class TestLinkChecker:
    def test_broken_relative_link_reported(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("see [the spec](missing/spec.md)", encoding="utf-8")
        problems = check_docs.check_links(page)
        assert len(problems) == 1
        assert "missing/spec.md" in problems[0]

    def test_existing_relative_link_passes(self, tmp_path):
        (tmp_path / "other.md").write_text("hi", encoding="utf-8")
        page = tmp_path / "page.md"
        page.write_text(
            "see [other](other.md) and [anchored](other.md#top)",
            encoding="utf-8",
        )
        assert check_docs.check_links(page) == []

    def test_http_links_only_checked_for_shape(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "ok [a](https://example.org/x) bad [b](https://)",
            encoding="utf-8",
        )
        problems = check_docs.check_links(page)
        assert len(problems) == 1
        assert "malformed" in problems[0]


class TestBlockExtraction:
    SAMPLE = "\n".join(
        [
            "prose",
            "```console",
            "$ repro-experiments list",
            "$ PYTHONPATH=src python -m pytest -x -q \\",
            "      -m 'not slow'",
            "```",
            "<!-- check-docs: skip-exec -->",
            "```python",
            "raise RuntimeError('illustrative only')",
            "```",
        ]
    )

    def test_console_commands_join_continuations(self):
        blocks = list(check_docs.extract_blocks(self.SAMPLE))
        commands = check_docs.console_commands(blocks[0][2])
        assert commands == [
            "repro-experiments list",
            "PYTHONPATH=src python -m pytest -x -q -m 'not slow'",
        ]

    def test_skip_marker_flags_the_next_block(self):
        blocks = list(check_docs.extract_blocks(self.SAMPLE))
        assert [skip for _, _, _, skip in blocks] == [False, True]


class TestSmokeRewrite:
    def rewrite(self, command):
        return check_docs.rewrite_command(command, "/tmp/docs-cache")

    def test_scale_forced_to_quick(self):
        argv = self.rewrite("repro-experiments fig1 --scale full")
        assert argv[:3] == [sys.executable, "-m", "repro.experiments.runner"]
        assert argv[3:] == [
            "fig1", "--scale", "quick", "--cache-dir", "/tmp/docs-cache",
        ]

    def test_workers_capped(self):
        argv = self.rewrite("repro-experiments all --scale quick --workers 8")
        assert "--workers" in argv
        assert argv[argv.index("--workers") + 1] == "2"

    def test_cache_dir_redirected(self):
        argv = self.rewrite(
            "repro-experiments all --scale full --cache-dir /mnt/sweep-cache"
        )
        assert argv[argv.index("--cache-dir") + 1] == "/tmp/docs-cache"

    def test_placeholders_substituted(self):
        argv = self.rewrite(
            "repro-experiments all --scale full --workers <cores>"
        )
        assert argv[argv.index("--workers") + 1] == "2"

    def test_worker_gets_a_bounded_drain(self):
        argv = self.rewrite(
            "repro-experiments worker --scale full "
            "--cache-dir /mnt/sweep-cache --worker-id $(hostname)"
        )
        assert argv[argv.index("--experiments") + 1] == "fig4"
        assert argv[argv.index("--worker-id") + 1] == "docs-smoke"
        assert argv[argv.index("--cache-dir") + 1] == "/tmp/docs-cache"

    def test_run_population_capped(self):
        argv = self.rewrite(
            "repro-experiments run --scenario flash_crowd --seeds 0 1 2"
        )
        assert argv[argv.index("--population") + 1] == "120"

    def test_module_invocation_recognised(self):
        argv = self.rewrite(
            "PYTHONPATH=src python -m repro.experiments.runner list"
        )
        assert argv[3:] == ["list"]

    def test_equals_spelled_flags_are_normalised_and_capped(self):
        argv = self.rewrite(
            "repro-experiments all --scale=full --cache-dir=/mnt/sweep-cache"
        )
        assert argv[argv.index("--scale") + 1] == "quick"
        assert argv[argv.index("--cache-dir") + 1] == "/tmp/docs-cache"

    def test_unparseable_command_raises(self):
        import pytest

        with pytest.raises(ValueError):
            self.rewrite('repro-experiments list "unbalanced')

    def test_csv_dir_redirected_out_of_the_repo(self):
        argv = self.rewrite(
            "repro-experiments fig1 --scale default --csv-dir results/"
        )
        assert argv[argv.index("--csv-dir") + 1] == "/tmp/docs-cache-csv"

    def test_trailing_shell_comments_stripped(self):
        argv = self.rewrite(
            "repro-experiments list     # every registered component"
        )
        assert argv[3:] == ["list"]

    def test_pytest_and_pip_commands_skipped(self):
        assert self.rewrite("pip install -e .") is None
        assert (
            self.rewrite(
                "PYTHONPATH=src python -m pytest -x -q -m 'not slow'"
            )
            is None
        )

