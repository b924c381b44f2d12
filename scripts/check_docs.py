#!/usr/bin/env python
"""Keep the documentation honest: link-check + smoke-execute snippets.

Two passes over the repo's markdown:

1. **Link check** (always): every relative link target in every
   markdown file must exist on disk.  ``http(s)``/``mailto`` links are
   validated for shape only — CI must not depend on the network.
2. **Snippet execution** (``--execute``): fenced code blocks in
   README.md and EXPERIMENTS.md actually run, rewritten to smoke scale:

   * ``console`` blocks: each ``$ `` command (with backslash
     continuations) is parsed; ``repro-experiments ...`` and
     ``python -m repro.experiments.runner ...`` invocations run via the
     current interpreter with ``PYTHONPATH=src``, with ``--scale``
     forced to ``quick``, ``--workers`` capped at 2, ``--cache-dir``
     redirected to a temp dir, population/rounds capped, and
     placeholders like ``<cores>`` substituted.  ``pytest``/``pip``
     commands and anything unrecognised are skipped (reported).
   * ``python`` blocks are concatenated per file, in order, and run as
     one script under ``PYTHONPATH=src`` — they model a reader
     following the document top to bottom, so a later block may use
     names an earlier one registered.

   A ``<!-- check-docs: skip-exec -->`` HTML comment on the line
   before a fence skips execution of that block (it is still
   link-checked); use it for illustrative fragments that cannot run.

Exit status is non-zero on any broken link, failed snippet, or
skipped-because-unparseable console command in an executed file, so CI
fails when the docs rot.

Usage::

    python scripts/check_docs.py                 # link check only
    python scripts/check_docs.py --execute       # CI docs lane
    python scripts/check_docs.py README.md       # subset
"""

from __future__ import annotations

import argparse
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple
from urllib.parse import urlparse

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Files whose snippets run under --execute (the operational docs).
EXECUTED_FILES = ("README.md", "EXPERIMENTS.md")

#: Marker skipping execution of the next fenced block.
SKIP_MARKER = "<!-- check-docs: skip-exec -->"

#: Placeholder -> concrete smoke value for console commands.
PLACEHOLDERS = {
    "<cores>": "2",
    "<n>": "2",
    "<shared>": "{cache}",
    "$(hostname)": "docs-smoke",
    "$(nproc)": "2",
}

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE = re.compile(r"^```(\w*)\s*$")

#: Smoke caps applied to value-taking flags of runner commands.
_VALUE_CAPS = {
    "--population": 120,
    "--rounds": 400,
    "--workers": 2,
}


def default_files() -> List[Path]:
    """Every tracked-looking markdown file: repo root + docs/."""
    files = sorted(REPO_ROOT.glob("*.md")) + sorted(
        REPO_ROOT.glob("docs/*.md")
    )
    return [path for path in files if path.is_file()]


# ----------------------------------------------------------------------
# Pass 1: links
# ----------------------------------------------------------------------
def check_links(path: Path) -> List[str]:
    """Problems with the link targets of one markdown file."""
    problems: List[str] = []
    text = path.read_text(encoding="utf-8")
    for number, line in enumerate(text.splitlines(), start=1):
        for target in _LINK.findall(line):
            problem = _check_target(path, target)
            if problem:
                problems.append(f"{path.name}:{number}: {problem}")
    return problems


def _check_target(path: Path, target: str) -> Optional[str]:
    parsed = urlparse(target)
    if parsed.scheme in ("http", "https"):
        if not parsed.netloc:
            return f"malformed URL {target!r}"
        return None
    if parsed.scheme == "mailto":
        return None
    if parsed.scheme:
        return f"unsupported link scheme {target!r}"
    local = target.split("#", 1)[0]
    if not local:  # pure in-page anchor
        return None
    resolved = (path.parent / local).resolve()
    if not resolved.exists():
        return f"broken relative link {target!r}"
    return None


# ----------------------------------------------------------------------
# Pass 2: snippets
# ----------------------------------------------------------------------
def extract_blocks(text: str) -> Iterator[Tuple[str, int, str, bool]]:
    """Yield ``(language, first_line_no, body, skip_exec)`` per fence."""
    lines = text.splitlines()
    index = 0
    skip_next = False
    while index < len(lines):
        line = lines[index]
        if line.strip() == SKIP_MARKER:
            skip_next = True
            index += 1
            continue
        match = _FENCE.match(line)
        if not match:
            if line.strip():
                skip_next = False
            index += 1
            continue
        language = match.group(1)
        body: List[str] = []
        start = index + 1
        index += 1
        while index < len(lines) and not lines[index].startswith("```"):
            body.append(lines[index])
            index += 1
        index += 1  # closing fence
        yield language, start, "\n".join(body), skip_next
        skip_next = False


def console_commands(body: str) -> List[str]:
    """The ``$ ``-prefixed commands of a console block, continuations joined."""
    commands: List[str] = []
    current: Optional[str] = None
    for line in body.splitlines():
        stripped = line.strip()
        if current is not None:
            current += " " + stripped.rstrip("\\").strip()
            if not stripped.endswith("\\"):
                commands.append(current)
                current = None
            continue
        if stripped.startswith("$ "):
            text = stripped[2:].strip()
            if text.endswith("\\"):
                current = text.rstrip("\\").strip()
            else:
                commands.append(text)
    if current:
        commands.append(current)
    return commands


def rewrite_command(command: str, cache_dir: str) -> Optional[List[str]]:
    """A smoke-scale argv for one documented command, or None to skip.

    Raises :class:`ValueError` on a command that cannot even be
    tokenised — that is doc rot, not a deliberate skip, and the caller
    reports it as a failure.
    """
    for placeholder, value in PLACEHOLDERS.items():
        command = command.replace(
            placeholder, value.format(cache=cache_dir)
        )
    words = shlex.split(command, comments=True)  # ValueError = doc rot
    while words and "=" in words[0] and not words[0].startswith("-"):
        words.pop(0)  # leading env assignments (PYTHONPATH=src ...)
    # Normalise --flag=value so every cap/redirection below applies to
    # both spellings (an unmatched --scale=full must not slip through).
    expanded: List[str] = []
    for word in words:
        if word.startswith("--") and "=" in word:
            flag, _, value = word.partition("=")
            expanded += [flag, value]
        else:
            expanded.append(word)
    words = expanded
    if not words:
        return None
    if words[0] == "repro-experiments":
        args = words[1:]
    elif words[0].endswith("python") and words[1:3] == [
        "-m",
        "repro.experiments.runner",
    ]:
        args = words[3:]
    else:
        return None  # pip/pytest/shell commands are not smoke-executed

    rewritten: List[str] = []
    index = 0
    has_cache_dir = False
    while index < len(args):
        word = args[index]
        if word == "--scale":
            rewritten += ["--scale", "quick"]
            index += 2
            continue
        if word in _VALUE_CAPS and index + 1 < len(args):
            try:
                value = int(args[index + 1])
            except ValueError:
                value = _VALUE_CAPS[word]
            rewritten += [word, str(min(value, _VALUE_CAPS[word]))]
            index += 2
            continue
        if word == "--cache-dir" and index + 1 < len(args):
            rewritten += ["--cache-dir", cache_dir]
            has_cache_dir = True
            index += 2
            continue
        if word == "--csv-dir" and index + 1 < len(args):
            # Redirect artifact output next to the scratch cache so
            # executing the docs never writes into the repository.
            rewritten += ["--csv-dir", cache_dir + "-csv"]
            index += 2
            continue
        rewritten.append(word)
        index += 1

    cache_capable = rewritten and (
        rewritten[0] in ("all", "run", "worker")
        or rewritten[0].startswith(("fig", "ablation-"))
    )
    if cache_capable and not has_cache_dir:
        rewritten += ["--cache-dir", cache_dir]
    if rewritten and rewritten[0] == "worker" and "--experiments" not in rewritten:
        rewritten += ["--experiments", "fig4"]  # bound the drain
    if rewritten and rewritten[0] == "run" and "--population" not in rewritten:
        rewritten += ["--population", "120", "--rounds", "400"]
    if rewritten and rewritten[0] == "profile" and "--population" not in rewritten:
        rewritten += ["--population", "120", "--rounds", "400"]
    return [sys.executable, "-m", "repro.experiments.runner"] + rewritten


def execute_snippets(path: Path, verbose: bool = True) -> List[str]:
    """Run one file's snippets at smoke scale; return failures."""
    problems: List[str] = []
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    seen: Dict[str, bool] = {}
    python_blocks: List[str] = []
    with tempfile.TemporaryDirectory(prefix="check-docs-") as scratch:
        cache_dir = str(Path(scratch) / "cache")
        for language, line, body, skip in extract_blocks(
            path.read_text(encoding="utf-8")
        ):
            if skip:
                continue
            if language == "python":
                python_blocks.append(body)
            elif language == "console":
                for command in console_commands(body):
                    label = f"{path.name}:{line}: $ {command}"
                    try:
                        argv = rewrite_command(command, cache_dir)
                    except ValueError as error:
                        problems.append(f"{label} is unparseable: {error}")
                        continue
                    if argv is None:
                        if verbose:
                            print(f"SKIP {label}")
                        continue
                    key = " ".join(argv)
                    if key in seen:
                        continue
                    seen[key] = True
                    problems += _run(argv, label, env, verbose)
        if python_blocks:
            problems += _run(
                [sys.executable, "-c", "\n\n".join(python_blocks)],
                f"{path.name}: {len(python_blocks)} python block(s)",
                env,
                verbose,
            )
    return problems


def _run(argv, label, env, verbose) -> List[str]:
    if verbose:
        print(f"RUN  {label}")
    try:
        completed = subprocess.run(
            argv,
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=1800,
        )
    except subprocess.TimeoutExpired:
        return [f"{label} hung (killed after 1800s)"]
    if completed.returncode == 0:
        return []
    tail = (completed.stdout + completed.stderr).strip().splitlines()[-8:]
    return [f"{label} exited {completed.returncode}:\n  " + "\n  ".join(tail)]


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="link-check the docs and smoke-execute their snippets"
    )
    parser.add_argument(
        "files",
        nargs="*",
        type=Path,
        help="markdown files to check (default: *.md and docs/*.md)",
    )
    parser.add_argument(
        "--execute",
        action="store_true",
        help="also execute README.md/EXPERIMENTS.md snippets at smoke scale",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="only print problems"
    )
    args = parser.parse_args(argv)

    files = [path.resolve() for path in args.files] or default_files()
    problems: List[str] = []
    for path in files:
        problems += check_links(path)
    if args.execute:
        for path in files:
            if path.name in EXECUTED_FILES:
                problems += execute_snippets(path, verbose=not args.quiet)

    for problem in problems:
        print(f"FAIL {problem}")
    if not args.quiet:
        checked = ", ".join(path.name for path in files)
        print(
            f"check_docs: {len(files)} files ({checked}): "
            f"{len(problems)} problem(s)"
        )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
