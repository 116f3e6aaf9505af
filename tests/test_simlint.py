"""simlint: golden-corpus tests, suppression semantics, and the
shipped-tree regression gate.

The fixture corpus under ``tests/fixtures/simlint/corpus`` is a tiny
parallel universe with its own taxonomy tables; ``expected.json``
freezes exactly which (path, line, rule) triples the linter must
report there.  The regression test at the bottom is the PR's core
promise: the real ``src/repro`` tree stays lint-clean.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.devtools import RULE_REGISTRY, lint_paths
from repro.devtools.suppress import SuppressionIndex

TESTS = Path(__file__).resolve().parent
CORPUS = TESTS / "fixtures" / "simlint" / "corpus"
GOLDEN = TESTS / "fixtures" / "simlint" / "expected.json"
REPO = TESTS.parent
PACKAGE = Path(repro.__file__).resolve().parent


def corpus_triples():
    result = lint_paths([CORPUS])
    return sorted(
        (f.path, f.line, f.rule) for f in result.findings
    ), result


def golden_triples():
    payload = json.loads(GOLDEN.read_text())
    return sorted(
        (entry["path"], entry["line"], entry["rule"])
        for entry in payload["findings"]
    )


def test_corpus_matches_golden_exactly():
    actual, _ = corpus_triples()
    assert actual == golden_triples()


def test_corpus_findings_carry_hints_and_severity():
    _, result = corpus_triples()
    for finding in result.findings:
        assert finding.hint, finding.rule
        assert finding.severity.value in {"error", "warning", "info"}


# One (catch, suppression) pair per rule family, straight from the
# corpus: the rule fires at catch_line and stays silent at the
# suppressed site in the same file.
FAMILY_CASES = [
    ("SL1", "determinism_violations.py", "SL101", 11, 30),
    ("SL2", "nic/charge_violations.py", "SL201", 6, 14),
    ("SL3", "taxonomy_violations.py", "SL301", 7, 15),
    ("SL4", "sim/scheduler_violations.py", "SL104", 9, 34),
    ("SL5", "hooks_violations.py", "SL501", 7, 15),
    ("SL503", "obs/metrics_dispatch.py", "SL503", 9, 14),
    ("SL6", "runner_violations.py", "SL601", 11, 29),
    ("SL204", "nic/budget_drift.py", "SL204", 27, 33),
]


@pytest.mark.parametrize(
    "family, path, rule, catch_line, suppressed_line",
    FAMILY_CASES,
    ids=[case[0] for case in FAMILY_CASES],
)
def test_family_has_catch_and_suppression(
    family, path, rule, catch_line, suppressed_line
):
    actual, _ = corpus_triples()
    assert (path, catch_line, rule) in actual
    # The suppressed site stays silent -- and the suppression is used,
    # so SL001 does not flag it either.
    assert (path, suppressed_line, rule) not in actual
    assert not any(
        p == path and abs(l - suppressed_line) <= 1 and r == "SL001"
        for p, l, r in actual
    )


def test_unused_suppression_reported_as_sl001():
    actual, _ = corpus_triples()
    assert ("determinism_violations.py", 36, "SL001") in actual


def test_rule_selection_narrows_findings():
    # Meta rules (SL001 unused-suppression) stay on under --rules, so
    # other families' suppressions legitimately surface as unused here.
    result = lint_paths([CORPUS], rules=["SL3"])
    rules = {f.rule for f in result.findings}
    assert rules and rules <= {"SL301", "SL302", "SL303", "SL001"}
    assert {"SL301", "SL302", "SL303"} <= rules


def test_registry_covers_all_families():
    families = {rule_id[:3] for rule_id in RULE_REGISTRY if rule_id != "SL000" and rule_id != "SL001"}
    assert {"SL1", "SL2", "SL3", "SL4", "SL5", "SL6"} <= families


def test_sl204_cross_checks_both_directions():
    actual, _ = corpus_triples()
    # Direction A: a dead budget row anchors at the breakdown() table.
    assert ("nic/costs.py", 22, "SL204") in actual
    # Direction B: an off-table charge anchors at the charge site.
    assert ("nic/budget_drift.py", 27, "SL204") in actual


def test_family_prefix_disable_file_covers_whole_family(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        '"""Doc."""\n'
        "# simlint: disable-file=SL1 -- quarantined prototype module\n"
        "import random\n"
        "import time\n"
        "a = time.time()\n"
        "b = random.random()\n"
    )
    result = lint_paths([mod])
    assert result.findings == []


def test_multi_rule_disable_used_by_one_rule_is_not_stale(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        '"""Doc."""\n'
        "import time\n"
        "a = time.time()  # simlint: disable=SL103,SL102 -- wall-clock waiver\n"
    )
    result = lint_paths([mod])
    assert result.findings == []


def test_fully_stale_multi_rule_disable_is_one_sl001(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        '"""Doc."""\n'
        "x = 1  # simlint: disable=SL103,SL102 -- nothing here fires\n"
    )
    result = lint_paths([mod])
    assert [f.rule for f in result.findings] == ["SL001"]


def test_syntax_error_becomes_sl000(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text('"""Doc."""\ndef half(:\n')
    result = lint_paths([bad])
    assert [f.rule for f in result.findings] == ["SL000"]


def test_suppression_index_semantics():
    source = (
        "x = 1  # simlint: disable=SL101 -- inline\n"
        "# simlint: disable=SL2 -- next-line, family-wide\n"
        "y = 2\n"
        "z = 3\n"
    )
    index = SuppressionIndex(source)
    assert index.is_suppressed("SL101", 1)
    assert index.is_suppressed("SL201", 3)  # family prefix covers SL2xx
    assert not index.is_suppressed("SL101", 3)
    assert not index.is_suppressed("SL201", 4)
    assert index.unused() == []


def test_file_scope_suppression():
    source = (
        '"""Doc."""\n'
        "# simlint: disable-file=SL103 -- whole-file waiver\n"
        "import time\n"
        "a = time.time()\n"
        "b = time.time()\n"
    )
    index = SuppressionIndex(source)
    assert index.is_suppressed("SL103", 4)
    assert index.is_suppressed("SL103", 5)


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )


def test_cli_exit_codes_and_json_artifact(tmp_path):
    out = tmp_path / "report.json"
    dirty = _run_cli(str(CORPUS), "--format", "json", "--out", str(out))
    assert dirty.returncode == 1
    payload = json.loads(out.read_text())
    assert payload["tool"] == "simlint"
    assert payload["summary"]["total"] == len(golden_triples())

    clean = _run_cli(str(PACKAGE))
    assert clean.returncode == 0, clean.stdout + clean.stderr


def test_cli_list_rules():
    proc = _run_cli("--list-rules")
    assert proc.returncode == 0
    for rule_id in ("SL101", "SL201", "SL301", "SL401", "SL501"):
        assert rule_id in proc.stdout


def test_cli_sarif_output():
    proc = _run_cli(str(CORPUS), "--format", "sarif")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["version"] == "2.1.0"
    run = payload["runs"][0]
    assert run["tool"]["driver"]["name"] == "simlint"
    results = run["results"]
    assert len(results) == len(golden_triples())
    assert {r["level"] for r in results} <= {"error", "warning", "note"}
    reported = {r["ruleId"] for r in results}
    assert {"SL101", "SL201", "SL204", "SL301", "SL601"} <= reported
    catalogued = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert reported <= catalogued
    uris = {
        r["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
        for r in results
    }
    assert any(uri.endswith("nic/budget_drift.py") for uri in uris)


def _git(*args, cwd):
    subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    )


def test_cli_changed_restricts_to_modified_files(tmp_path):
    repo = tmp_path / "repo"
    pkg = repo / "pkg"
    pkg.mkdir(parents=True)
    clean = pkg / "clean.py"
    clean.write_text('"""Doc."""\nx = 1\n')
    dirty = pkg / "dirty.py"
    dirty.write_text('"""Doc."""\nimport time\na = time.time()\n')
    _git("init", "-q", cwd=repo)
    _git("add", ".", cwd=repo)
    _git(
        "-c", "user.email=ci@example.invalid", "-c", "user.name=ci",
        "commit", "-q", "-m", "seed", cwd=repo,
    )
    # Touch only the clean file: the dirty file's finding is out of scope.
    clean.write_text('"""Doc."""\nx = 2\n')
    scoped = _run_cli(str(pkg), "--changed")
    assert scoped.returncode == 0, scoped.stdout + scoped.stderr
    # Without --changed the same tree still fails.
    full = _run_cli(str(pkg))
    assert full.returncode == 1


def test_cli_changed_falls_back_outside_git(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text('"""Doc."""\nimport time\na = time.time()\n')
    proc = _run_cli(str(tmp_path), "--changed")
    assert proc.returncode == 1
    assert "full tree" in proc.stderr


def test_shipped_tree_is_lint_clean():
    """The PR's regression promise: zero unsuppressed findings in src/repro."""
    result = lint_paths([PACKAGE])
    assert result.findings == [], [f.format() for f in result.findings]
