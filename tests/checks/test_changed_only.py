"""Git-diff-aware file selection (``sirius-lint --changed-only``)."""

import json
import subprocess

import pytest

from repro.checks.cli import changed_python_files, main


def _git(cwd, *args):
    proc = subprocess.run(["git", *args], cwd=cwd, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture
def repo(tmp_path):
    """A git repo with one committed clean file on ``main``."""
    _git(tmp_path, "init", "-q", "-b", "main")
    _git(tmp_path, "config", "user.email", "lint@test")
    _git(tmp_path, "config", "user.name", "lint")
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (tmp_path / "pyproject.toml").write_text(
        "[tool.repro.checks]\npaths = ['src/repro']\n")
    untouched = pkg / "untouched.py"
    untouched.write_text("def stays_clean():\n    return 1\n")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "seed")
    return tmp_path


class TestChangedPythonFiles:
    def test_untracked_file_is_selected(self, repo):
        new = repo / "src" / "repro" / "fresh.py"
        new.write_text("x = 1\n")
        changed = changed_python_files(repo, "main")
        assert changed == [new]

    def test_uncommitted_edit_is_selected(self, repo):
        target = repo / "src" / "repro" / "untouched.py"
        target.write_text("def stays_clean():\n    return 2\n")
        changed = changed_python_files(repo, "main")
        assert changed == [target]

    def test_branch_commits_diff_against_merge_base(self, repo):
        _git(repo, "checkout", "-q", "-b", "feature")
        branch_file = repo / "src" / "repro" / "branched.py"
        branch_file.write_text("y = 2\n")
        _git(repo, "add", "-A")
        _git(repo, "commit", "-q", "-m", "branch work")
        changed = changed_python_files(repo, "main")
        assert changed == [branch_file]

    def test_clean_tree_selects_nothing(self, repo):
        assert changed_python_files(repo, "main") == []

    def test_non_python_and_deleted_files_are_skipped(self, repo):
        (repo / "notes.md").write_text("not python\n")
        tracked = repo / "src" / "repro" / "untouched.py"
        tracked.unlink()
        assert changed_python_files(repo, "main") == []

    def test_outside_a_work_tree_returns_none(self, tmp_path):
        bare = tmp_path / "plain"
        bare.mkdir()
        assert changed_python_files(bare, "main") is None


class TestCliChangedOnly:
    def test_touched_bad_file_fails_untouched_does_not(self, repo,
                                                       monkeypatch, capsys):
        # Seed a violation into the *committed* file and a fresh one
        # into a new file: --changed-only must flag only the new file.
        bad = repo / "src" / "repro" / "touched.py"
        bad.write_text("def f(t_s):\n    return t_s / 1e-6\n")
        monkeypatch.chdir(repo)
        exit_code = main(["--changed-only", "--no-baseline"])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "touched.py" in out
        assert "untouched.py" not in out

    def test_clean_tree_short_circuits(self, repo, monkeypatch, capsys):
        monkeypatch.chdir(repo)
        exit_code = main(["--changed-only", "--no-baseline"])
        assert exit_code == 0
        assert "no changed files" in capsys.readouterr().out

    def test_changes_outside_linted_paths_are_ignored(self, repo,
                                                      monkeypatch, capsys):
        elsewhere = repo / "scripts"
        elsewhere.mkdir()
        (elsewhere / "helper.py").write_text(
            "def f(t_s):\n    return t_s / 1e-6\n")
        monkeypatch.chdir(repo)
        exit_code = main(["--changed-only", "--no-baseline"])
        capsys.readouterr()
        assert exit_code == 0

    def test_unexercised_baseline_entries_are_not_stale(self, repo,
                                                        monkeypatch, capsys):
        # Baseline the committed violation, then change only another
        # file: the baselined entry was never re-linted, so it must not
        # be reported stale.
        bad = repo / "src" / "repro" / "legacy.py"
        bad.write_text("def f(t_s):\n    return t_s / 1e-6\n")
        _git(repo, "add", "-A")
        _git(repo, "commit", "-q", "-m", "legacy violation")
        monkeypatch.chdir(repo)
        assert main(["--write-baseline"]) == 0
        capsys.readouterr()
        fresh = repo / "src" / "repro" / "fresh.py"
        fresh.write_text("z = 3\n")
        exit_code = main(["--changed-only"])
        capsys.readouterr()
        assert exit_code == 0

    def test_cross_file_closures_stay_sound(self, repo, monkeypatch,
                                            capsys):
        # The entry point SiriusNetwork.run sits in an *unchanged* file
        # and reaches jitter() in the touched one.  The wall-clock read
        # the change adds to jitter() is a T701 finding only through
        # that call edge, so it must be reported: project rules see the
        # whole tree and only the report is narrowed.  A call graph
        # truncated to the changed files has no entry point to reach it.
        pkg = repo / "src" / "repro"
        (pkg / "core").mkdir()
        (pkg / "phy").mkdir()
        (pkg / "core" / "network.py").write_text(
            "from repro.phy.noise import jitter\n"
            "\n"
            "class SiriusNetwork:\n"
            "    def run(self, flows, log):\n"
            "        return [jitter(flow, log) for flow in flows]\n"
        )
        noise = pkg / "phy" / "noise.py"
        noise.write_text(
            "def jitter(flow, log):\n"
            "    return flow\n"
        )
        _git(repo, "add", "-A")
        _git(repo, "commit", "-q", "-m", "entry point and helper")
        noise.write_text(
            "import time\n"
            "\n"
            "def jitter(flow, log):\n"
            "    log.append(time.time())\n"
            "    return flow\n"
        )
        monkeypatch.chdir(repo)
        exit_code = main(["--changed-only", "--no-baseline",
                          "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        assert [(f["rule"], f["path"], f["line"])
                for f in payload["findings"]] == [
            ("T701", "src/repro/phy/noise.py", 4)]
        assert "SiriusNetwork.run" in payload["findings"][0]["message"]

    def test_outside_git_is_a_usage_error(self, tmp_path, monkeypatch,
                                          capsys):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro.checks]\npaths = ['src/repro']\n")
        (pkg / "mod.py").write_text("x = 1\n")
        monkeypatch.chdir(tmp_path)
        exit_code = main(["--changed-only"])
        assert exit_code == 2
        assert "git work tree" in capsys.readouterr().err
