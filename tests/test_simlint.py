"""simlint: golden-corpus tests, suppression semantics, and the
shipped-tree regression gate.

The fixture corpus under ``tests/fixtures/simlint/corpus`` holds
deliberate violations next to clean, sanctioned uses;
``expected.json`` freezes exactly which (path, line, rule) triples the
linter must report there.  The regression test at the bottom is the
linter's core promise: the real ``src/repro`` tree stays lint-clean.
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
        assert finding.severity.value in {"error", "warning"}


# One (catch, suppression) pair per rule family, straight from the
# corpus: the rule fires at catch_line and stays silent at the
# suppressed site in the same file.
FAMILY_CASES = [
    ("SL1", "determinism_violations.py", "SL101", 11, 30),
    ("SL2", "nic/charge_violations.py", "SL201", 6, 11),
    ("SL4", "sim/scheduler_violations.py", "SL104", 9, 34),
    ("SL6", "runner_violations.py", "SL601", 11, 29),
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
    result = lint_paths([CORPUS], rules=["SL1"])
    rules = {f.rule for f in result.findings}
    assert rules <= {"SL101", "SL102", "SL103", "SL104", "SL001"}
    assert {"SL101", "SL102", "SL103", "SL104"} <= rules


def test_registry_covers_all_families():
    families = {rule_id[:3] for rule_id in RULE_REGISTRY}
    assert families == {"SL0", "SL1", "SL2", "SL4", "SL6"}


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


def test_cli_exit_codes_and_json_report():
    dirty = _run_cli(str(CORPUS), "--format", "json")
    assert dirty.returncode == 1
    payload = json.loads(dirty.stdout)
    assert payload["tool"] == "simlint"
    assert payload["summary"]["total"] == len(golden_triples())

    clean = _run_cli(str(PACKAGE))
    assert clean.returncode == 0, clean.stdout + clean.stderr


def test_cli_list_rules():
    proc = _run_cli("--list-rules")
    assert proc.returncode == 0
    listed = {line.split()[0] for line in proc.stdout.splitlines()}
    assert {"SL101", "SL201", "SL401", "SL601", "DOC101"} <= listed
    assert {rule_id[:3] for rule_id in listed} == {
        "SL0", "SL1", "SL2", "SL4", "SL6", "DOC"
    }


def test_cli_sarif_output():
    proc = _run_cli(str(CORPUS), "--format", "sarif")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["version"] == "2.1.0"
    run = payload["runs"][0]
    assert run["tool"]["driver"]["name"] == "simlint"
    results = run["results"]
    assert len(results) == len(golden_triples())
    assert {r["level"] for r in results} <= {"error", "warning"}
    reported = {r["ruleId"] for r in results}
    assert {"SL101", "SL201", "SL401", "SL601"} <= reported
    assert {rule_id[:3] for rule_id in reported} <= {
        "SL0", "SL1", "SL2", "SL4", "SL6"
    }
    catalogued = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert reported <= catalogued
    uris = {
        r["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
        for r in results
    }
    assert any(uri.endswith("nic/charge_violations.py") for uri in uris)


def test_shipped_tree_is_lint_clean():
    """The PR's regression promise: zero unsuppressed findings in src/repro."""
    result = lint_paths([PACKAGE])
    assert result.findings == [], [f.format() for f in result.findings]
