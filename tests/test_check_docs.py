"""Unit tests for the documentation checks behind ``repro lint --docs``.

Covers the DOC101 docstring invariant and the DOC102 broken-link
detector against synthetic repositories built in ``tmp_path``, plus
the real-tree guarantees: the shipped repo passes, through the
library call and through ``python -m repro lint --docs``.
"""

import subprocess
import sys
from pathlib import Path

from repro.devtools.docs import broken_links, check_docs, missing_docstrings

REPO = Path(__file__).resolve().parents[1]


def make_repo(tmp_path, *, docstring=True, link_target_exists=True):
    """Build a minimal src-layout repo with one module and one doc."""
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True)
    body = '"""A documented module."""\n' if docstring else ""
    (src / "mod.py").write_text(body + "VALUE = 1\n")
    if link_target_exists:
        (tmp_path / "TARGET.md").write_text("# Target\n")
    (tmp_path / "README.md").write_text(
        "# Test repo\n"
        "\n"
        "A [relative link](TARGET.md) and a [web link](https://example.com).\n"
        "\n"
        "```text\n"
        "[links inside fences](NOWHERE.md) are ignored\n"
        "```\n"
        "\n"
        "Same-file [anchor](#test-repo) is fine.\n"
    )
    return tmp_path


def test_clean_synthetic_repo_passes(tmp_path):
    repo = make_repo(tmp_path)
    assert check_docs(repo) == []


def test_missing_docstring_is_doc101(tmp_path):
    repo = make_repo(tmp_path, docstring=False)
    findings = missing_docstrings(repo / "src" / "repro", repo)
    assert [f.rule for f in findings] == ["DOC101"]
    assert findings[0].path == "src/repro/mod.py"
    assert check_docs(repo) == findings


def test_broken_relative_link_is_doc102(tmp_path):
    repo = make_repo(tmp_path, link_target_exists=False)
    findings = broken_links(repo)
    assert [f.rule for f in findings] == ["DOC102"]
    assert findings[0].path == "README.md"
    assert "TARGET.md" in findings[0].message
    # The fenced NOWHERE.md link and the web/anchor links never count.
    assert all("NOWHERE" not in f.message for f in findings)
    assert check_docs(repo) == findings


def test_fragment_only_and_external_links_ignored(tmp_path):
    repo = make_repo(tmp_path)
    (repo / "docs").mkdir()
    (repo / "docs" / "EXTRA.md").write_text(
        "See [the readme](../README.md) and [a site](http://example.org).\n"
    )
    assert broken_links(repo) == []


def test_line_numbers_survive_fence_stripping(tmp_path):
    repo = make_repo(tmp_path)
    (repo / "docs").mkdir()
    (repo / "docs" / "LINES.md").write_text(
        "# Lines\n"
        "\n"
        "```\n"
        "fence line\n"
        "```\n"
        "\n"
        "[broken](missing.md)\n"
    )
    findings = broken_links(repo)
    assert [(f.path, f.line) for f in findings] == [("docs/LINES.md", 7)]


def test_shipped_repo_docs_are_clean():
    assert check_docs(REPO) == [], [f.format() for f in check_docs(REPO)]


def _run(cmd):
    return subprocess.run(
        cmd,
        capture_output=True,
        text=True,
        cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )


def test_shim_and_unified_entry_point_agree():
    unified = _run([sys.executable, "-m", "repro", "lint", "--docs"])
    assert unified.returncode == 0, unified.stdout + unified.stderr


class TestDoc103CliDrift:
    """DOC103: documented CLI invocations must parse against the registry."""

    @staticmethod
    def _drift(tmp_path, block):
        from repro.devtools.docs import cli_drift

        repo = make_repo(tmp_path)
        (repo / "docs").mkdir()
        (repo / "docs" / "CLI.md").write_text("# CLI\n\n" + block)
        return cli_drift(repo)

    def test_valid_invocations_pass(self, tmp_path):
        findings = self._drift(
            tmp_path,
            "```bash\n"
            "PYTHONPATH=src python -m repro --list\n"
            "python -m repro T1 F2 --workers 4   # comment is cut\n"
            "python -m repro bench --check\n"
            "python -m repro F2 --trace trace.json --audit | head\n"
            "python -m repro lint --docs\n"
            "```\n",
        )
        assert findings == []

    def test_unknown_experiment_id_is_doc103(self, tmp_path):
        findings = self._drift(
            tmp_path, "```console\npython -m repro ZZ9\n```\n"
        )
        assert [f.rule for f in findings] == ["DOC103"]
        assert "ZZ9" in findings[0].message

    def test_unknown_flag_and_scenario_are_doc103(self, tmp_path):
        findings = self._drift(
            tmp_path,
            "```bash\n"
            "python -m repro bench --frobnicate\n"
            "python -m repro ZZ9 --trace trace.json\n"
            "```\n",
        )
        assert [f.rule for f in findings] == ["DOC103", "DOC103"]

    def test_text_fences_and_prose_are_exempt(self, tmp_path):
        findings = self._drift(
            tmp_path,
            "Prose mentioning python -m repro NOT-CHECKED is fine.\n"
            "\n"
            "```text\n"
            "python -m repro <ID> [--trace PATH] [--audit]\n"
            "```\n",
        )
        assert findings == []

    def test_shipped_docs_have_checkable_invocations(self):
        # The rule only means something if the real docs exercise it.
        from repro.devtools.docs import (
            _REPRO_CMD,
            doc_files,
            iter_command_lines,
        )

        checked = 0
        for doc in doc_files(REPO):
            for _lineno, line in iter_command_lines(
                doc.read_text(encoding="utf-8")
            ):
                if _REPRO_CMD.search(line):
                    checked += 1
        assert checked >= 10


class TestDocEntryPointDrift:
    """The docs name the one supported docs-check entry point."""

    def test_docs_name_the_unified_entry_point(self):
        docs = [REPO / "README.md", REPO / "docs" / "STATIC_ANALYSIS.md"]
        for doc in docs:
            assert "repro lint --docs" in doc.read_text(encoding="utf-8"), (
                f"{doc.name} no longer names the supported docs entry point"
            )
