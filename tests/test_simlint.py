"""simlint meta-tests: fixture corpus, suppressions, output shape, CLI
exit codes — and the guarantee that ``src/repro`` itself stays clean.

Each fixture file marks its violating lines with ``# expect: SIMxxx``
comments; the tests derive the expected (rule, line) pairs from those
markers so fixtures and expectations cannot drift apart.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools.simlint import (
    EXIT_CLEAN,
    EXIT_ERROR,
    EXIT_VIOLATIONS,
    RULE_IDS,
    RULES,
    lint_file,
    lint_paths,
    lint_source,
    main,
)

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "tests" / "simlint_fixtures"
SRC = REPO / "src"

_EXPECT_RE = re.compile(r"#\s*expect:\s*(SIM\d{3}(?:\s*,\s*SIM\d{3})*)")


def expected_markers(path: Path) -> set[tuple[str, int]]:
    """(rule_id, line) pairs declared by ``# expect:`` comments."""
    expected: set[tuple[str, int]] = set()
    for lineno, text in enumerate(path.read_text().splitlines(), start=1):
        match = _EXPECT_RE.search(text)
        if match:
            for rule_id in match.group(1).split(","):
                expected.add((rule_id.strip(), lineno))
    return expected


def actual_hits(path: Path) -> set[tuple[str, int]]:
    return {(v.rule_id, v.line) for v in lint_file(path)}


FIXTURE_FILES = [
    "sim001.py",
    "sim002.py",
    "parallel.py",
    "switch/sim003.py",
    "sim004.py",
    "sim005.py",
    "sim006.py",
    "analysis/sim007.py",
]


class TestFixtureCorpus:
    @pytest.mark.parametrize("rel", FIXTURE_FILES)
    def test_fixture_violations_match_markers(self, rel):
        path = FIXTURES / rel
        expected = expected_markers(path)
        assert expected, f"fixture {rel} declares no expectations"
        assert actual_hits(path) == expected

    def test_every_rule_has_fixture_coverage(self):
        covered = set()
        for rel in FIXTURE_FILES:
            covered.update(rule for rule, _ in expected_markers(FIXTURES / rel))
        assert covered == set(RULE_IDS)

    def test_rng_home_is_exempt(self):
        assert lint_file(FIXTURES / "rng.py") == []

    def test_rule_table_is_well_formed(self):
        ids = [r.rule_id for r in RULES]
        assert ids == sorted(ids) and len(ids) == len(set(ids))
        for rule in RULES:
            assert re.fullmatch(r"SIM\d{3}", rule.rule_id)
            assert rule.name and rule.rationale


class TestSuppressions:
    def test_suppressed_fixture_is_clean(self):
        assert lint_file(FIXTURES / "suppressed.py") == []

    def test_line_directive_is_rule_specific(self):
        src = "import time\n\nt = time.time()  # simlint: disable=SIM001\n"
        hits = lint_source(src, Path("model.py"))
        assert [v.rule_id for v in hits] == ["SIM002"]

    def test_disable_all_covers_any_rule(self):
        src = "import time\n\nt = time.time()  # simlint: disable=all\n"
        assert lint_source(src, Path("model.py")) == []

    def test_file_directive_scopes_to_whole_file(self):
        src = (
            "# simlint: disable-file=SIM002\n"
            "import time\n\n"
            "a = time.time()\n"
            "b = time.monotonic()\n"
        )
        assert lint_source(src, Path("model.py")) == []


class TestJsonOutput:  # text is the one format left; the name pins the test id
    def test_text_output_has_stable_shape(self, capsys):
        code = main([str(FIXTURES / "sim004.py")])
        assert code == EXIT_VIOLATIONS
        out = capsys.readouterr().out.splitlines()
        assert re.match(r".*sim004\.py:\d+:\d+: SIM004 ", out[0])
        assert out[-1].startswith("simlint: 1 violation(s)")


class TestCli:
    def test_exit_clean_on_clean_tree(self, capsys):
        assert main([str(FIXTURES / "rng.py")]) == EXIT_CLEAN
        capsys.readouterr()

    def test_exit_error_on_missing_path(self, capsys):
        assert main([str(FIXTURES / "nope.py")]) == EXIT_ERROR
        capsys.readouterr()

    def test_exit_error_on_no_paths(self, capsys):
        assert main([]) == EXIT_ERROR
        capsys.readouterr()

    def test_exit_error_on_syntax_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        assert main([str(bad)]) == EXIT_ERROR
        capsys.readouterr()

    def test_exit_error_on_undecodable_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_bytes(b'x = "\xff\xfe"\n')
        assert main([str(bad)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("simlint: error: ")
        assert captured.err.count("\n") == 1

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule.rule_id in out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.devtools.simlint", "--list-rules"],
            capture_output=True,
            text=True,
            cwd=REPO,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == EXIT_CLEAN
        assert "SIM001" in proc.stdout


class TestRepoStaysClean:
    def test_src_repro_is_simlint_clean(self):
        violations, checked = lint_paths([SRC])
        assert checked > 50
        rendered = "\n".join(v.render() for v in violations)
        assert not violations, f"src/repro regressed:\n{rendered}"
