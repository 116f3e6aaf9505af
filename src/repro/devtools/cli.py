"""Argument parsing for ``python -m repro lint`` / ``tools/simlint.py``.

Exit status: 0 when clean, 1 when any finding survives suppression,
2 on usage errors -- so CI can gate on the process status alone while
also uploading the ``--out`` JSON report as an artifact.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path
from typing import Optional, Sequence, Set

from repro.devtools.docs import check_docs, default_repo_root
from repro.devtools.findings import render_json, render_sarif, render_text
from repro.devtools.linter import lint_paths
from repro.devtools.rules import RULE_REGISTRY


def default_lint_root() -> Path:
    """The shipped source tree: the installed ``repro`` package."""
    import repro

    return Path(repro.__file__).resolve().parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-atm lint",
        description=(
            "simlint: enforce the simulator's determinism, cost-model, "
            "trace-taxonomy, sim-time, hook-shape, and parallel-runner "
            "invariants"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files/directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format on stdout (default: text)",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        help="also write the JSON report here (the CI artifact)",
    )
    parser.add_argument(
        "--rules",
        metavar="IDS",
        help="comma-separated rule ids or family prefixes (e.g. SL1,SL302)",
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help=(
            "report findings only for files modified per "
            "'git diff --name-only HEAD' (the whole tree is still "
            "analysed so interprocedural rules see the full call "
            "graph); outside a git checkout, lints the full tree"
        ),
    )
    parser.add_argument(
        "--docs",
        action="store_true",
        help="also run the documentation hygiene checks (DOC101-DOC103)",
    )
    parser.add_argument(
        "--repo-root",
        metavar="DIR",
        help="repository root for --docs (default: auto-detected)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _list_rules() -> int:
    for rule in RULE_REGISTRY.values():
        print(f"{rule.id}  [{rule.severity.value:7s}] {rule.family}: {rule.title}")
    print("DOC101 [error  ] docs: missing module docstring (--docs)")
    print("DOC102 [error  ] docs: broken relative Markdown link (--docs)")
    print("DOC103 [error  ] docs: documented repro CLI does not parse (--docs)")
    return 0


def _changed_files(anchor: Path) -> Optional[Set[Path]]:
    """Absolute paths ``git diff --name-only HEAD`` reports, or ``None``.

    ``None`` means "not a usable git checkout" and the caller falls
    back to full-tree reporting.
    """
    probe = anchor if anchor.is_dir() else anchor.parent
    try:
        toplevel = subprocess.run(
            ["git", "-C", str(probe), "rev-parse", "--show-toplevel"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        names = subprocess.run(
            ["git", "-C", toplevel, "diff", "--name-only", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    return {
        (Path(toplevel) / name).resolve()
        for name in names.splitlines()
        if name.strip()
    }


def _sarif_path_prefix(lint_root: str) -> str:
    """The lint root relative to the repo root, for SARIF locations."""
    try:
        return (
            Path(lint_root).resolve().relative_to(default_repo_root().resolve())
        ).as_posix()
    except ValueError:
        return ""


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        return _list_rules()

    paths = args.paths or [str(default_lint_root())]
    rules = args.rules.split(",") if args.rules else None
    restrict_to: Optional[Set[Path]] = None
    if args.changed:
        restrict_to = _changed_files(Path(paths[0]))
        if restrict_to is None:
            print(
                "simlint: --changed outside a git checkout; "
                "linting the full tree",
                file=sys.stderr,
            )
    result = lint_paths(paths, rules=rules, restrict_to=restrict_to)

    findings = list(result.findings)
    if args.docs:
        repo = Path(args.repo_root) if args.repo_root else default_repo_root()
        findings.extend(check_docs(repo))

    extra = {"files_scanned": result.files_scanned}
    if args.out:
        Path(args.out).write_text(
            render_json(findings, root=result.root, extra=extra) + "\n",
            encoding="utf-8",
        )
    if args.format == "json":
        print(render_json(findings, root=result.root, extra=extra))
    elif args.format == "sarif":
        print(
            render_sarif(
                findings,
                root=result.root,
                path_prefix=_sarif_path_prefix(result.root),
                rule_titles={
                    rule.id: rule.title for rule in RULE_REGISTRY.values()
                },
            )
        )
    else:
        print(render_text(findings))
        if not findings:
            print(
                f"  scanned {result.files_scanned} file(s) under {result.root}"
                + (" (+docs)" if args.docs else "")
            )
    return 0 if not findings else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
