"""Documentation hygiene checks behind ``python -m repro lint --docs``.

Three invariants, all findings-producing so they ride the same
reporters and CI artifact as the AST rules:

- **DOC101**: every package and module under ``src/repro`` carries a
  module docstring (the observability layer made docstrings part of
  the public API surface, so an undocumented module is a regression);
- **DOC102**: every relative Markdown link in the repo's documentation
  resolves to a file that exists -- the top-level ``*.md`` files and
  everything under ``docs/``;
- **DOC103**: every ``python -m repro ...`` invocation inside a fenced
  ``console``/``bash``/``sh``/``shell`` block in those files parses
  against the live argparse registry -- subcommand flags must exist,
  experiment ids must be registered -- so a quickstart the docs show
  cannot drift from the CLI that ships.
"""

from __future__ import annotations

import ast
import contextlib
import io
import re
import shlex
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from repro.devtools.findings import Finding, Severity

# [text](target) -- capture the target; fenced code is stripped first.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE = re.compile(r"```.*?```", re.DOTALL)

# Fence opener with its info string, e.g. ```console or ```bash.
_FENCE_OPEN = re.compile(r"^\s*```+\s*([A-Za-z0-9_+-]*)\s*$")
#: Info strings marking a fence as shell commands to be DOC103-checked
#: (``text`` blocks stay exempt: they hold usage *patterns* with
#: ``<placeholders>``, not runnable commands).
COMMAND_LANGS = frozenset({"console", "bash", "sh", "shell"})
# The entry point inside a command line (any env-var/prompt prefix ok).
_REPRO_CMD = re.compile(r"python\s+-m\s+repro\b")
# Where the repro invocation ends: a pipe, redirect, chain, or comment.
_SHELL_BREAK = re.compile(r"\s(?:\|\|?|&&|;|\d?>>?|#)")


def default_repo_root() -> Path:
    """The repository root, assuming the src-layout checkout."""
    return Path(__file__).resolve().parents[3]


def missing_docstrings(src: Path, repo: Path) -> List[Finding]:
    """DOC101 findings for undocumented modules under *src*."""
    findings = []
    for path in sorted(src.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        try:
            tree = ast.parse(
                path.read_text(encoding="utf-8"), filename=str(path)
            )
        except SyntaxError as exc:
            findings.append(
                Finding(
                    rule="DOC101",
                    severity=Severity.ERROR,
                    path=_rel(path, repo),
                    line=exc.lineno or 1,
                    message=f"module does not parse: {exc.msg}",
                )
            )
            continue
        if ast.get_docstring(tree) is None:
            findings.append(
                Finding(
                    rule="DOC101",
                    severity=Severity.ERROR,
                    path=_rel(path, repo),
                    line=1,
                    message="missing module docstring",
                    hint=(
                        "module docstrings are the narrative API surface; "
                        "say what the module models and why"
                    ),
                )
            )
    return findings


def _rel(path: Path, repo: Path) -> str:
    try:
        return path.resolve().relative_to(repo.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def doc_files(repo: Path) -> List[Path]:
    files = sorted(repo.glob("*.md"))
    docs_dir = repo / "docs"
    if docs_dir.is_dir():
        files += sorted(docs_dir.glob("*.md"))
    return files


def broken_links(repo: Path) -> List[Finding]:
    """DOC102 findings for relative Markdown links that do not resolve."""
    findings = []
    for doc in doc_files(repo):
        raw = doc.read_text(encoding="utf-8")
        text = _FENCE.sub(lambda m: "\n" * m.group(0).count("\n"), raw)
        for lineno, line in enumerate(text.splitlines(), start=1):
            for match in _LINK.finditer(line):
                target = match.group(1)
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                # Strip any #fragment; empty path = same-file anchor.
                path_part = target.split("#", 1)[0]
                if not path_part:
                    continue
                resolved = (doc.parent / path_part).resolve()
                if not resolved.exists():
                    findings.append(
                        Finding(
                            rule="DOC102",
                            severity=Severity.ERROR,
                            path=_rel(doc, repo),
                            line=lineno,
                            message=f"broken link -> {target}",
                            hint="fix the path or drop the link",
                        )
                    )
    return findings


def iter_command_lines(text: str) -> Iterator[Tuple[int, str]]:
    """Yield ``(lineno, line)`` for lines inside command fences."""
    in_command_block = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        opener = _FENCE_OPEN.match(line)
        if opener is not None:
            if in_command_block:
                in_command_block = False
            else:
                in_command_block = opener.group(1).lower() in COMMAND_LANGS
            continue
        if in_command_block:
            yield lineno, line


def _parse_quietly(parser, argv: List[str]):
    """``(accepted, namespace)`` without letting argparse print or exit.

    ``--help``-style zero exits count as accepted (with no namespace);
    a nonzero exit means argparse rejected the arguments.
    """
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return True, parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code in (0, None), None


def validate_repro_argv(tokens: List[str]) -> Optional[str]:
    """Why ``python -m repro <tokens>`` would not parse, or ``None``.

    Mirrors :func:`repro.cli.main`'s dispatch: ``lint``/``bench``
    route to their subcommand parsers, everything else to the
    top-level experiment parser -- where, beyond argparse acceptance,
    every positional id must exist in the experiment table and the
    invocation must actually name something to do.
    """
    if tokens and tokens[0] in ("lint", "bench"):
        subcommand, rest = tokens[0], tokens[1:]
        if subcommand == "lint":
            from repro.devtools.cli import build_parser
        else:
            from repro.runner.bench import build_parser
        accepted, _ = _parse_quietly(build_parser(), rest)
        if not accepted:
            return f"'repro {subcommand}' rejects {' '.join(rest) or '(no args)'}"
        return None

    from repro.cli import build_parser
    from repro.results.experiments import EXPERIMENTS

    accepted, args = _parse_quietly(build_parser(), tokens)
    if not accepted:
        return f"top-level CLI rejects {' '.join(tokens)}"
    if args is None:  # --help-style exit: accepted, nothing to validate
        return None
    unknown = [
        word for word in args.experiments if word.upper() not in EXPERIMENTS
    ]
    if unknown:
        return f"unknown experiment id(s): {', '.join(unknown)}"
    if not args.experiments and not (args.all or args.list):
        return "names no experiment and no --all/--list (prints help, exits 2)"
    return None


def cli_drift(repo: Path) -> List[Finding]:
    """DOC103 findings: documented CLI invocations that do not parse."""
    findings = []
    for doc in doc_files(repo):
        for lineno, line in iter_command_lines(
            doc.read_text(encoding="utf-8")
        ):
            started = _REPRO_CMD.search(line)
            if started is None:
                continue
            tail = line[started.end():]
            cut = _SHELL_BREAK.search(tail)
            if cut is not None:
                tail = tail[: cut.start()]
            try:
                tokens = shlex.split(tail)
            except ValueError as exc:
                findings.append(
                    Finding(
                        rule="DOC103",
                        severity=Severity.ERROR,
                        path=_rel(doc, repo),
                        line=lineno,
                        message=f"unparseable shell syntax: {exc}",
                    )
                )
                continue
            problem = validate_repro_argv(tokens)
            if problem is not None:
                findings.append(
                    Finding(
                        rule="DOC103",
                        severity=Severity.ERROR,
                        path=_rel(doc, repo),
                        line=lineno,
                        message=f"documented CLI does not parse: {problem}",
                        hint=(
                            "the docs show a command the shipped argparse "
                            "registry rejects; fix the example or the CLI"
                        ),
                    )
                )
    return findings


def check_docs(repo: Path | None = None) -> List[Finding]:
    """All documentation findings for the repository at *repo*."""
    repo = repo if repo is not None else default_repo_root()
    src = repo / "src" / "repro"
    findings: List[Finding] = []
    if src.is_dir():
        findings.extend(missing_docstrings(src, repo))
    findings.extend(broken_links(repo))
    findings.extend(cli_drift(repo))
    return findings
