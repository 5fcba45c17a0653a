"""Framework behaviour: suppression syntax, parse errors, finding rendering."""

from pathlib import Path

from repro.analysis.findings import Finding, Severity
from repro.analysis.suppressions import (
    is_suppressed,
    parse_suppressions,
    suppression_index,
)

FIXTURES = Path(__file__).parent / "fixtures"
BAD_DIGEST = FIXTURES / "digest_coverage" / "bad_external_asns.py"


class TestSuppressionSyntax:
    def test_same_line_suppression(self):
        (supp,) = parse_suppressions(
            "x = f(y)  # repro: ignore[digest-coverage] -- y cannot change a verdict\n"
        )
        assert supp.line == supp.comment_line == 1
        assert supp.checker_ids == ("digest-coverage",)
        assert supp.reason == "y cannot change a verdict"

    def test_standalone_comment_forwards_to_next_code_line(self):
        source = (
            "def f():\n"
            "    # repro: ignore[deadline-discipline] -- trail is finite\n"
            "\n"
            "    while True:\n"
            "        pass\n"
        )
        (supp,) = parse_suppressions(source)
        assert supp.comment_line == 2
        assert supp.line == 4  # the `while True:` line, past the blank

    def test_multiple_ids_and_no_reason(self):
        (supp,) = parse_suppressions("y = 1  # repro: ignore[a, b]\n")
        assert supp.checker_ids == ("a", "b")
        assert supp.reason == ""

    def test_is_suppressed_matches_id_and_wildcard(self):
        index = suppression_index(
            "a = 1  # repro: ignore[digest-coverage] -- covered at runtime\n"
            "b = 2  # repro: ignore[*] -- generated code\n"
        )
        assert is_suppressed(index, 1, "digest-coverage")
        assert not is_suppressed(index, 1, "deadline-discipline")
        assert is_suppressed(index, 2, "deadline-discipline")
        assert not is_suppressed(index, 3, "digest-coverage")

    def test_plain_comments_are_not_suppressions(self):
        assert parse_suppressions("x = 1  # repro: this is just prose\n") == []

    def test_reasonless_suppression_is_a_warning_not_a_failure(self, lint, tmp_path):
        (tmp_path / "mod.py").write_text(
            "x = 1  # repro: ignore[digest-coverage]\n"
        )
        result = lint(tmp_path)
        (finding,) = result.findings
        assert finding.checker == "suppression"
        assert finding.severity is Severity.WARNING
        assert not result.failed  # warnings never fail the gate

    def test_suppressed_findings_are_counted_not_dropped(self, lint, tmp_path):
        source = BAD_DIGEST.read_text().replace(
            "        self.external_asns = {}",
            "        # repro: ignore[digest-coverage] -- covered by a runtime assert\n"
            "        self.external_asns = {}",
        )
        (tmp_path / "net.py").write_text(source)
        result = lint(tmp_path)
        assert result.findings == []
        assert len(result.suppressed) == 1


class TestEngineCaching:
    def test_parse_error_is_a_finding_not_a_crash(self, lint, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        result = lint(tmp_path)
        (finding,) = result.findings
        assert finding.checker == "parse-error"
        assert "syntax error" in finding.message


def test_finding_render_and_key():
    finding = Finding(
        checker="digest-coverage",
        path="src/repro/bgp/config.py",
        line=42,
        message="field not digested",
        hint="add it",
        symbol="NetworkConfig.external_asns",
    )
    assert finding.key() == (
        "digest-coverage:src/repro/bgp/config.py:NetworkConfig.external_asns"
    )
    rendered = finding.render()
    assert "src/repro/bgp/config.py:42" in rendered
    assert "digest-coverage" in rendered
