"""Shared engine behavior: suppressions, filtering, output formats."""

import json
import textwrap

import pytest

from repro.checks import (
    check_source,
    filter_rules,
    format_json,
    format_sarif,
    format_text,
)
from repro.checks.engine import run_checks
from repro.checks.registry import ALL_RULES
from repro.checks.units_rules import UNITS_RULES, UnitLiteralRule


def lint(source, rules=None):
    return check_source(textwrap.dedent(source), rules or ALL_RULES)


BAD_LITERAL = """\
def to_us(duration_s):
    return duration_s / 1e-6
"""


class TestSuppression:
    def test_trailing_comment_suppresses(self):
        findings = lint("""\
        def to_us(duration_s):
            return duration_s / 1e-6  # lint: ignore[U101]
        """)
        assert findings == []

    def test_rule_name_works_too(self):
        findings = lint("""\
        def to_us(duration_s):
            return duration_s / 1e-6  # lint: ignore[unit-literal]
        """)
        assert findings == []

    def test_bare_ignore_suppresses_all_rules(self):
        findings = lint("""\
        def to_us(duration_s):
            return duration_s / 1e-6  # lint: ignore
        """)
        assert findings == []

    def test_preceding_comment_line_covers_next_code_line(self):
        findings = lint("""\
        def to_us(duration_s):
            # conversion for display only  # lint: ignore[U101]
            return duration_s / 1e-6
        """)
        assert findings == []

    def test_unrelated_rule_id_does_not_suppress(self):
        findings = lint("""\
        def to_us(duration_s):
            return duration_s / 1e-6  # lint: ignore[D201]
        """)
        assert [f.rule for f in findings] == ["U101"]

    def test_skip_file_pragma(self):
        findings = lint("# lint: skip-file\n" + BAD_LITERAL)
        assert findings == []

    def test_unsuppressed_finding_reported(self):
        findings = lint(BAD_LITERAL)
        assert [f.rule for f in findings] == ["U101"]
        assert findings[0].line == 2


class TestFiltering:
    def test_select_by_code(self):
        rules = filter_rules(ALL_RULES, select=["U101"])
        assert [r.code for r in rules] == ["U101"]

    def test_select_by_name(self):
        rules = filter_rules(ALL_RULES, select=["set-iteration"])
        assert [r.code for r in rules] == ["D203"]

    def test_select_family_prefix(self):
        rules = filter_rules(ALL_RULES, select=["D"])
        assert {r.code for r in rules} == {"D201", "D202", "D203"}

    def test_ignore_removes(self):
        rules = filter_rules(ALL_RULES, ignore=["I"])
        assert all(not r.code.startswith("I") for r in rules)

    def test_select_then_ignore(self):
        rules = filter_rules(ALL_RULES, select=["U"], ignore=["U103"])
        assert {r.code for r in rules} == {"U101", "U102"}


class TestFindings:
    def test_fingerprint_is_line_number_independent(self):
        a = lint(BAD_LITERAL)[0]
        b = lint("\n\n\n" + BAD_LITERAL)[0]
        assert a.line != b.line
        assert a.fingerprint == b.fingerprint

    def test_render_mentions_location_rule_and_name(self):
        finding = lint(BAD_LITERAL)[0]
        text = finding.render()
        assert "U101" in text and "unit-literal" in text
        assert ":2:" in text

    def test_format_text_counts(self):
        findings = lint(BAD_LITERAL)
        assert "1 finding" in format_text(findings)
        assert format_text([]) == "no findings"

    def test_format_json_roundtrips(self):
        findings = lint(BAD_LITERAL)
        payload = json.loads(format_json(findings))
        assert payload["count"] == 1
        (entry,) = payload["findings"]
        assert entry["rule"] == "U101"
        assert entry["name"] == "unit-literal"
        assert entry["fingerprint"] == findings[0].fingerprint


class TestRegistry:
    def test_codes_are_unique(self):
        codes = [rule.code for rule in ALL_RULES]
        assert len(codes) == len(set(codes))

    def test_names_are_unique_and_kebab(self):
        names = [rule.name for rule in ALL_RULES]
        assert len(names) == len(set(names))
        assert all(name == name.lower() and " " not in name for name in names)

    def test_rule_families_present(self):
        from repro.checks.engine import rule_family

        families = {rule_family(rule) for rule in ALL_RULES}
        assert families == {"U1", "D2", "I3", "O4", "P5", "F6", "T7",
                            "C9", "B10", "K11"}

    def test_unit_rules_exported(self):
        assert any(isinstance(rule, UnitLiteralRule) for rule in UNITS_RULES)


class TestRobustness:
    def test_syntactically_invalid_source_raises_cleanly(self):
        with pytest.raises(SyntaxError):
            check_source("def broken(:\n", ALL_RULES)

    def test_run_checks_reports_unparseable_file(self, tmp_path):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        (tmp_path / "ok.py").write_text(BAD_LITERAL)
        findings = run_checks([tmp_path], ALL_RULES, root=tmp_path)
        assert [f.rule for f in findings] == ["E001", "U101"]
        parse_error = findings[0]
        assert parse_error.name == "parse-error"
        assert parse_error.path == "broken.py"
        assert parse_error.line == 1


class TestSuppressionEdgeCases:
    def test_multiple_codes_on_one_line_suppress_both(self):
        findings = lint("""\
        import random
        def f(duration_s):
            return random.random() * duration_s / 1e-6  # lint: ignore[U101, D201]
        """)
        assert findings == []

    def test_multiple_codes_only_listed_rules_suppressed(self):
        findings = lint("""\
        import random
        def f(duration_s):
            return random.random() * duration_s / 1e-6  # lint: ignore[U101, D203]
        """)
        assert [f.rule for f in findings] == ["D201"]

    def test_code_and_name_mixed_in_one_comment(self):
        findings = lint("""\
        import random
        def f(duration_s):
            return random.random() * duration_s / 1e-6  # lint: ignore[unit-literal, D201]
        """)
        assert findings == []


class TestFamilyPrefixFiltering:
    def test_select_letter_digit_family(self):
        rules = filter_rules(ALL_RULES, select=["F6"])
        assert {r.code for r in rules} == {"F601", "F602", "F603"}

    def test_ignore_letter_digit_family(self):
        rules = filter_rules(ALL_RULES, ignore=["T7"])
        codes = {r.code for r in rules}
        assert "T701" not in codes and "T702" not in codes
        assert "U101" in codes

    def test_family_prefix_combines_with_exact_code(self):
        rules = filter_rules(ALL_RULES, select=["T7", "D201"])
        assert {r.code for r in rules} == {"T701", "T702", "D201"}

    def test_rule_names_are_not_treated_as_prefixes(self):
        # "unit-literal" must match only its own rule, never act as a
        # prefix; and a bogus family selects nothing.
        assert filter_rules(ALL_RULES, select=["Z9"]) == []


class TestSarifFormat:
    def test_minimal_sarif_log_shape(self):
        findings = lint(BAD_LITERAL)
        log = json.loads(format_sarif(findings, rules=ALL_RULES))
        assert log["version"] == "2.1.0"
        (run,) = log["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "sirius-lint"
        (rule_entry,) = driver["rules"]
        assert rule_entry["id"] == "U101"
        assert rule_entry["name"] == "unit-literal"
        (result,) = run["results"]
        assert result["ruleId"] == "U101"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 2
        assert (result["partialFingerprints"]["siriusLint/v1"]
                == findings[0].fingerprint)

    def test_empty_findings_still_a_valid_log(self):
        log = json.loads(format_sarif([]))
        assert log["runs"][0]["results"] == []
        assert log["runs"][0]["tool"]["driver"]["rules"] == []


class _StubRule(UnitLiteralRule):
    """A freely relabeled rule for family-matching tests."""

    def __init__(self, code, name):
        self.code = code
        self.name = name


class TestLongestPrefixFamilyMatching:
    # C9 and C90 coexist as distinct registered families; the shorter
    # ident must select exactly its own family, not every code it is a
    # string prefix of.
    RULES = [
        _StubRule("C901", "race-one"),
        _StubRule("C902", "race-two"),
        _StubRule("C9001", "imaginary-one"),
        _StubRule("B1001", "blocking-one"),
        _StubRule("K1101", "pickle-one"),
    ]

    def test_short_family_does_not_swallow_longer_family(self):
        rules = filter_rules(self.RULES, select=["C9"])
        assert {r.code for r in rules} == {"C901", "C902"}

    def test_longer_family_selects_only_itself(self):
        rules = filter_rules(self.RULES, select=["C90"])
        assert {r.code for r in rules} == {"C9001"}

    def test_ignore_respects_family_boundaries(self):
        rules = filter_rules(self.RULES, ignore=["C9"])
        assert {r.code for r in rules} == {"C9001", "B1001", "K1101"}

    def test_unregistered_prefix_falls_back_to_code_prefix(self):
        # "B1" names no registered family here, so it behaves as a
        # plain code prefix and still finds the B10xx rules.
        rules = filter_rules(self.RULES, select=["B1"])
        assert {r.code for r in rules} == {"B1001"}

    def test_new_families_selectable_from_registry(self):
        rules = filter_rules(ALL_RULES, select=["C9", "B10", "K11"])
        assert {r.code for r in rules} == {"C901", "C902", "C903",
                                           "B1001", "B1002",
                                           "K1101", "K1102"}

    def test_family_of_code_parses_mixed_lengths(self):
        from repro.checks.engine import family_of_code

        assert family_of_code("U101") == "U1"
        assert family_of_code("C901") == "C9"
        assert family_of_code("B1001") == "B10"
        assert family_of_code("K1101") == "K11"
        assert family_of_code("E001") == "E0"


class TestLintStats:
    def test_counts_and_timings_populated(self, tmp_path):
        from repro.checks.engine import LintStats

        target = tmp_path / "mod.py"
        target.write_text("def to_us(duration_s):\n"
                          "    return duration_s / 1e-6\n",
                          encoding="utf-8")
        stats = LintStats()
        findings = run_checks([target], ALL_RULES, root=tmp_path,
                              stats=stats)
        assert stats.files == 1
        assert stats.total_findings == len(findings) > 0
        assert stats.findings_per_family.get("U1", 0) >= 1
        assert stats.total_s >= 0.0
        rendered = stats.render()
        assert "files parsed" in rendered
        assert "U1xx" in rendered

    def test_render_with_no_findings(self):
        from repro.checks.engine import LintStats

        stats = LintStats()
        assert "findings            0" in stats.render()


class TestParseCache:
    def test_reparse_skipped_until_file_changes(self, tmp_path):
        import os

        from repro.checks.engine import clear_parse_cache, parse_file

        target = tmp_path / "mod.py"
        target.write_text("x = 1\n", encoding="utf-8")
        clear_parse_cache()
        first = parse_file(target, root=tmp_path)
        again = parse_file(target, root=tmp_path)
        assert again is first  # cache hit: identical context object

        target.write_text("x = 2\n", encoding="utf-8")
        stat = target.stat()
        os.utime(target, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1))
        changed = parse_file(target, root=tmp_path)
        assert changed is not first
        clear_parse_cache()
