"""Command-line front end of repro-lint.

Runs standalone (``python -m repro.devtools.lint``) and behind the main
CLI (``repro lint``); both parse the same flags and share
:func:`run_lint` so behavior cannot drift::

    repro lint src/repro                    # human output, exit 1 on findings
    repro lint src/repro --json report.json # + machine-readable artifact
    repro lint --changed                    # only files changed vs merge-base
    repro lint --list-rules                 # rule codes + invariants

Exit codes: 0 clean, 1 unsuppressed findings, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path
from typing import Sequence, TextIO

DEFAULT_PATHS = ("src/repro",)


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared flag set (also mounted under ``repro lint``)."""
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/repro; with "
        "--changed, the scope the changed files are filtered against)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the full report (findings + suppressions) as JSON",
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help="lint only files changed vs the git merge-base (fast local runs)",
    )
    parser.add_argument(
        "--base",
        default=None,
        metavar="REF",
        help="merge-base reference for --changed (default: origin/main, "
        "falling back to main)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print rule codes and the invariant each protects, then exit",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="print only the summary line",
    )


def _git_lines(args: Sequence[str]) -> list[str] | None:
    try:
        proc = subprocess.run(
            ["git", *args],
            capture_output=True,
            text=True,
            check=False,
        )
    except OSError:
        return None
    if proc.returncode != 0:
        return None
    return [line for line in proc.stdout.splitlines() if line.strip()]


def changed_files(base: str | None = None) -> list[Path] | None:
    """Python files changed vs the merge-base with *base* (plus untracked).

    Returns None when git is unavailable or no base ref resolves, so the
    caller can fall back to a full run with a warning.
    """
    candidates = [base] if base else ["origin/main", "main"]
    merge_base: str | None = None
    for ref in candidates:
        lines = _git_lines(["merge-base", "HEAD", ref])
        if lines:
            merge_base = lines[0]
            break
    if merge_base is None:
        return None
    changed = _git_lines(["diff", "--name-only", merge_base, "--"])
    untracked = _git_lines(["ls-files", "--others", "--exclude-standard"])
    if changed is None or untracked is None:
        return None
    return [
        Path(name)
        for name in sorted(set(changed) | set(untracked))
        if name.endswith(".py")
    ]


def _scoped(files: Sequence[Path], scopes: Sequence[str]) -> list[Path]:
    scope_paths = [Path(scope).resolve() for scope in scopes]
    kept = []
    for file in files:
        resolved = file.resolve()
        for scope in scope_paths:
            if resolved == scope or scope in resolved.parents:
                kept.append(file)
                break
    return kept


def run_lint(args: argparse.Namespace, out: TextIO) -> int:
    """Execute a parsed lint invocation; returns the exit code."""
    # Here, not at module level: ``repro`` mounts add_lint_arguments on
    # every run, and only a lint needs the engine and the rules (which
    # the engine's import registers).
    from repro.devtools.lint.engine import lint_paths
    from repro.devtools.lint.registry import all_rules

    if args.list_rules:
        for rule in all_rules():
            out.write(f"{rule.code} {rule.name}\n    {rule.invariant}\n")
        return 0
    scopes = list(args.paths) or list(DEFAULT_PATHS)
    if args.changed:
        files = changed_files(args.base)
        if files is None:
            out.write(
                "repro-lint: --changed could not resolve a merge-base; "
                "linting the full scope\n"
            )
            targets: list[str | Path] = list(scopes)
        else:
            targets = list(_scoped([f for f in files if f.exists()], scopes))
    else:
        targets = list(scopes)
        for scope in scopes:
            if not Path(scope).exists():
                out.write(f"repro-lint: no such path: {scope}\n")
                return 2
    report = lint_paths(targets)
    if args.json:
        try:
            Path(args.json).write_text(
                report.to_json() + "\n", encoding="utf-8"
            )
        except OSError as error:
            out.write(f"repro-lint: cannot write {args.json}: {error}\n")
            return 2
    if args.quiet:
        out.write(report.render().splitlines()[-1] + "\n")
    else:
        out.write(report.render() + "\n")
    return 1 if report.active else 0


def main(
    argv: Sequence[str] | None = None, out: TextIO | None = None
) -> int:
    """Standalone entry point (``python -m repro.devtools.lint``)."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based invariant checker for the repro codebase "
        "(determinism, hot-loop purity, mask boundary, shard safety, "
        "paper anchors)",
    )
    add_lint_arguments(parser)
    args = parser.parse_args(argv)
    return run_lint(args, out if out is not None else sys.stdout)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
