"""The gate itself: the configured tree must lint clean vs the baseline.

This is the tier-1 CI hook the ISSUE asks for — any new unit-literal,
nondeterminism, invariant or cross-module flow violation introduced into
``src/repro`` (or the linted ``benchmarks``/``examples`` trees) fails
the ordinary ``python -m pytest`` run, with the committed
``checks_baseline.json`` grandfathering accepted findings.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.checks import diff_against_baseline, load_baseline, run_checks
from repro.checks.baseline import DEFAULT_BASELINE_NAME
from repro.checks.cli import main
from repro.checks.engine import rule_family
from repro.checks.registry import ALL_RULES

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"
#: Every tree the committed baseline covers ([tool.repro.checks] paths).
LINT_PATHS = [SRC, REPO_ROOT / "benchmarks", REPO_ROOT / "examples"]
BASELINE = REPO_ROOT / DEFAULT_BASELINE_NAME


def run_cli(*argv):
    """Run a lint subprocess with src/ importable regardless of install."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, cwd=REPO_ROOT, env=env)


class TestSelfCheck:
    def test_src_repro_clean_against_committed_baseline(self):
        findings = run_checks(LINT_PATHS, ALL_RULES, root=REPO_ROOT)
        baseline = load_baseline(BASELINE)
        new, stale = diff_against_baseline(findings, baseline)
        assert not new, "new lint findings:\n" + "\n".join(
            f.render() for f in new
        )
        assert not stale, (
            "stale baseline entries (regenerate checks_baseline.json):\n"
            + "\n".join(stale)
        )

    def test_full_repo_lint_stays_fast(self):
        # The flow analyses are whole-program; this guard keeps the
        # full-repo lint (src + benchmarks + examples, every rule
        # family) within an interactive budget.  Parsed ASTs are cached
        # between the per-file and project passes and function bodies
        # are walked once, so ~1.4x the typical cold runtime catches a
        # real complexity regression without flaking on a loaded CI box.
        import time

        start = time.perf_counter()
        run_checks(LINT_PATHS, ALL_RULES, root=REPO_ROOT)
        elapsed = time.perf_counter() - start
        assert elapsed < 4.0, (
            f"full-repo lint took {elapsed:.1f}s; the parse cache and "
            "shared analyses should keep it interactive (<4s)"
        )

    def test_serve_tree_clean_for_concurrency_families(self):
        # The live service is the repo's only always-async surface; the
        # event-loop (B10xx), race (C9xx) and pickle (K11xx) families
        # must hold it to zero findings with no baseline escape hatch.
        from repro.checks import filter_rules

        rules = filter_rules(ALL_RULES, select=["B10", "C9", "K11"])
        findings = run_checks([SRC / "serve"], rules, root=REPO_ROOT)
        assert findings == [], (
            "concurrency findings in repro.serve:\n"
            + "\n".join(f.render() for f in findings)
        )

    def test_baseline_file_is_committed(self):
        assert BASELINE.is_file(), (
            f"{DEFAULT_BASELINE_NAME} must be committed at the repo root"
        )

    def test_cli_exits_zero_on_clean_tree(self, capsys):
        exit_code = main([str(path) for path in LINT_PATHS])
        capsys.readouterr()
        assert exit_code == 0

    def test_cli_defaults_to_configured_paths(self, capsys, monkeypatch):
        # With no positional paths the CLI lints [tool.repro.checks]
        # paths — src/repro plus benchmarks and examples.
        monkeypatch.chdir(REPO_ROOT)
        exit_code = main([])
        capsys.readouterr()
        assert exit_code == 0


class TestCliContract:
    def test_module_entry_point(self):
        result = run_cli("-m", "repro.checks",
                         *(str(path) for path in LINT_PATHS))
        assert result.returncode == 0, result.stdout + result.stderr

    def test_json_format(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(t_s):\n    return t_s / 1e-6\n")
        result = run_cli("-m", "repro.checks", str(bad),
             "--no-baseline", "--format", "json")
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "U101"

    def test_sarif_format(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(t_s):\n    return t_s / 1e-6\n")
        result = run_cli("-m", "repro.checks", str(bad),
             "--no-baseline", "--format", "sarif")
        assert result.returncode == 1
        log = json.loads(result.stdout)
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["tool"]["driver"]["name"] == "sirius-lint"
        (sarif_result,) = log["runs"][0]["results"]
        assert sarif_result["ruleId"] == "U101"
        assert "siriusLint/v1" in sarif_result["partialFingerprints"]

    def test_select_family_prefix_with_digits(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "phy" / "jitter.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "import random\n"
            "def jitter(t_s):\n"
            "    return random.random() * t_s / 1e-6\n"
        )
        result = run_cli("-m", "repro.checks", str(tmp_path),
             "--no-baseline", "--select", "T7", "--format", "json")
        payload = json.loads(result.stdout)
        assert [f["rule"] for f in payload["findings"]] == ["T702"]

    def test_select_limits_rules(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import random\n"
            "def f(t_s):\n"
            "    random.seed(0)\n"
            "    return t_s / 1e-6\n"
        )
        result = run_cli("-m", "repro.checks", str(bad),
             "--no-baseline", "--select", "D", "--format", "json")
        payload = json.loads(result.stdout)
        assert [f["rule"] for f in payload["findings"]] == ["D201"]

    def test_ignore_drops_rules(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(t_s):\n    return t_s / 1e-6\n")
        result = run_cli("-m", "repro.checks", str(bad),
             "--no-baseline", "--ignore", "U101")
        assert result.returncode == 0

    def test_unknown_select_identifier_is_a_usage_error(self, tmp_path,
                                                        capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(t_s):\n    return t_s / 1e-6\n")
        exit_code = main([str(bad), "--no-baseline", "--select", "U1,ZZ9"])
        err = capsys.readouterr().err
        assert exit_code == 2
        assert "--select" in err and "ZZ9" in err and "U1," not in err

    def test_unknown_ignore_identifier_is_a_usage_error(self, tmp_path,
                                                        capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        exit_code = main([str(clean), "--no-baseline",
                          "--ignore", "D203,ZZ9,no-such-rule"])
        err = capsys.readouterr().err
        assert exit_code == 2
        assert "--ignore" in err and "ZZ9, no-such-rule" in err

    def test_unknown_configured_identifier_is_a_usage_error(
            self, tmp_path, monkeypatch, capsys):
        # A config entry that names no registered family (here W14)
        # must not make the run quietly lint less than it says.
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro.checks]\npaths = ['pkg']\n"
            "select = ['U1', 'W14']\nignore = []\n")
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
        monkeypatch.chdir(tmp_path)
        exit_code = main(["--no-baseline"])
        err = capsys.readouterr().err
        assert exit_code == 2
        assert "--select" in err and "W14" in err

    def test_configured_selector_must_be_a_list(self, tmp_path, monkeypatch,
                                                capsys):
        # A bare string is no list of identifiers; passing over it
        # would run the very rules the config means to leave out.
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro.checks]\npaths = ['pkg']\nignore = 'U1'\n")
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
        monkeypatch.chdir(tmp_path)
        exit_code = main(["--no-baseline"])
        err = capsys.readouterr().err
        assert exit_code == 2
        assert "ignore must be a list" in err

    def test_write_baseline_then_clean(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(t_s):\n    return t_s / 1e-6\n")
        baseline = tmp_path / "baseline.json"
        wrote = run_cli("-m", "repro.checks", str(bad),
             "--baseline", str(baseline), "--write-baseline")
        assert wrote.returncode == 0 and baseline.is_file()
        rerun = run_cli("-m", "repro.checks", str(bad),
             "--baseline", str(baseline))
        assert rerun.returncode == 0, rerun.stdout + rerun.stderr

    def test_malformed_baseline_is_a_clean_usage_error(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(t_s):\n    return t_s / 1e-6\n")
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text("{broken")
        result = run_cli("-m", "repro.checks", str(bad),
             "--baseline", str(corrupt))
        assert result.returncode == 2
        assert "malformed baseline" in result.stderr
        assert "Traceback" not in result.stderr

    def test_unparseable_file_is_a_finding_not_clean(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def broken(:\n")
        result = run_cli("-m", "repro.checks", str(broken), "--no-baseline")
        assert result.returncode == 1
        assert "E001" in result.stdout

    def test_list_rules(self):
        result = run_cli("-m", "repro.checks", "--list-rules")
        assert result.returncode == 0
        for code in ("U101", "U102", "U103", "D201", "D202", "D203",
                     "I301", "I302", "I303"):
            assert code in result.stdout

    def test_repro_cli_lint_subcommand_forwards(self):
        result = run_cli("-m", "repro.cli", "lint",
                         *(str(path) for path in LINT_PATHS))
        assert result.returncode == 0, result.stdout + result.stderr


class TestStatsAndSarifOut:
    def test_stats_flag_reports_families_and_passes(self):
        result = run_cli("-m", "repro.checks",
                         *(str(path) for path in LINT_PATHS), "--stats")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "lint stats:" in result.stderr
        assert "files parsed" in result.stderr
        assert "project rule pass" in result.stderr
        # Stats go to stderr so every --format stays parseable.
        assert "lint stats:" not in result.stdout

    def test_sarif_out_writes_artifact(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(t_s):\n    return t_s / 1e-6\n")
        artifact = tmp_path / "out" / "lint.sarif"
        result = run_cli("-m", "repro.checks", str(bad), "--no-baseline",
                         "--sarif-out", str(artifact))
        assert result.returncode == 1
        log = json.loads(artifact.read_text(encoding="utf-8"))
        assert log["version"] == "2.1.0"
        (sarif_result,) = log["runs"][0]["results"]
        assert sarif_result["ruleId"] == "U101"
        # The text report still goes to stdout alongside the artifact.
        assert "U101" in result.stdout

    def test_sarif_out_on_clean_tree_is_empty_log(self, tmp_path):
        artifact = tmp_path / "lint.sarif"
        result = run_cli("-m", "repro.checks",
                         *(str(path) for path in LINT_PATHS),
                         "--sarif-out", str(artifact))
        assert result.returncode == 0
        log = json.loads(artifact.read_text(encoding="utf-8"))
        assert log["runs"][0]["results"] == []

    def test_stats_json_writes_artifact(self, tmp_path):
        out = tmp_path / "stats" / "lint-stats.json"
        result = run_cli("-m", "repro.checks",
                         *(str(path) for path in LINT_PATHS),
                         "--stats-json", str(out))
        assert result.returncode == 0, result.stdout + result.stderr
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["files"] > 0
        assert payload["passes_s"]["total"] > 0
        assert payload["passes_s"]["project_rules"] >= 0
        # Every registered family is charged wall time, also the ones
        # with zero findings on this tree — proof each layer ran.
        for family in {rule_family(rule) for rule in ALL_RULES}:
            assert family in payload["families"], sorted(payload["families"])
            assert payload["families"][family]["rule_s"] >= 0

    def test_concurrency_families_selectable(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "perf" / "driver.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "from multiprocessing import Pool\n"
            "def sweep(jobs):\n"
            "    with Pool() as pool:\n"
            "        return pool.map(lambda j: j, jobs)\n"
        )
        result = run_cli("-m", "repro.checks", str(tmp_path),
                         "--no-baseline", "--select", "C9,B10,K11",
                         "--format", "json")
        payload = json.loads(result.stdout)
        assert [f["rule"] for f in payload["findings"]] == ["K1102"]
