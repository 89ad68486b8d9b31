"""Command-line front end for :mod:`repro.checks` (``sirius-lint``).

Usage::

    sirius-lint src/repro                      # lint against the baseline
    sirius-lint src/repro --format json        # machine-readable output
    sirius-lint src/repro --select D,U101      # only these rules/families
    sirius-lint src/repro --ignore I302        # everything but these
    sirius-lint src/repro --no-baseline        # report *all* findings
    sirius-lint src/repro --write-baseline     # accept current findings
    sirius-lint src/repro --stats              # per-family/pass timings
    sirius-lint src/repro --stats-json lint-stats.json   # same, as JSON
    sirius-lint src/repro --sarif-out lint.sarif   # CI artifact
    sirius-lint src/repro --changed-only       # only git-changed files

Exit status: 0 when no *new* findings relative to the baseline (and no
stale baseline entries), 1 otherwise, 2 on usage errors.

Defaults (paths, baseline location, select/ignore) can be set in
``pyproject.toml``::

    [tool.repro.checks]
    paths = ["src/repro"]
    baseline = "checks_baseline.json"
    ignore = []

A ``--select``/``--ignore`` identifier, given on the command line or in
the config, that matches no rule is a usage error, and so is a
``select``/``ignore`` config value that is not a list.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

from repro.checks.baseline import (
    DEFAULT_BASELINE_NAME,
    diff_against_baseline,
    load_baseline,
    write_baseline,
)
from repro.checks.engine import (
    Finding,
    LintStats,
    filter_rules,
    format_json,
    format_sarif,
    format_text,
    run_checks,
)
from repro.checks.registry import ALL_RULES

try:  # Python >= 3.11
    import tomllib
except ImportError:  # pragma: no cover - 3.9/3.10 fall back to defaults
    tomllib = None

__all__ = ["main", "load_config", "find_project_root",
           "changed_python_files"]


def find_project_root(start: Optional[Path] = None) -> Optional[Path]:
    """Nearest ancestor of ``start`` containing ``pyproject.toml``."""
    current = (start or Path.cwd()).resolve()
    for candidate in (current, *current.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return None


def load_config(root: Optional[Path]) -> Dict[str, object]:
    """The ``[tool.repro.checks]`` table of ``pyproject.toml`` (or {})."""
    if root is None or tomllib is None:
        return {}
    pyproject = root / "pyproject.toml"
    if not pyproject.is_file():
        return {}
    try:
        data = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    except (OSError, tomllib.TOMLDecodeError):
        return {}
    table = data.get("tool", {}).get("repro", {}).get("checks", {})
    return table if isinstance(table, dict) else {}


def _split_idents(value: Optional[str]) -> Optional[List[str]]:
    if value is None:
        return None
    return [part.strip() for part in value.split(",") if part.strip()]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sirius-lint",
        description="Simulator-aware static analysis for the Sirius "
                    "reproduction (unit-dimension, determinism and "
                    "invariant lints).",
    )
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files or directories to lint "
                             "(default: [tool.repro.checks] paths, else "
                             "src/repro)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text",
                        help="output format (default: text; sarif emits a "
                             "minimal SARIF 2.1.0 log of the new findings)")
    parser.add_argument("--select", type=str, default=None, metavar="IDS",
                        help="comma-separated rule codes/names/families "
                             "to run (e.g. 'U101,global-rng' or 'D')")
    parser.add_argument("--ignore", type=str, default=None, metavar="IDS",
                        help="comma-separated rule codes/names/families "
                             "to skip")
    parser.add_argument("--baseline", type=Path, default=None,
                        help=f"baseline file (default: {DEFAULT_BASELINE_NAME} "
                             "at the project root)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline: report every finding")
    parser.add_argument("--write-baseline", action="store_true",
                        help="accept all current findings into the baseline "
                             "and exit 0")
    parser.add_argument("--list-rules", action="store_true",
                        help="list available rules and exit")
    parser.add_argument("--stats", action="store_true",
                        help="print findings-per-family counts and wall "
                             "time per pass to stderr")
    parser.add_argument("--sarif-out", type=Path, default=None,
                        metavar="PATH",
                        help="additionally write a SARIF 2.1.0 log of the "
                             "new findings to PATH (CI artifact), whatever "
                             "--format says")
    parser.add_argument("--stats-json", type=Path, default=None,
                        metavar="PATH",
                        help="write machine-readable per-family/per-pass "
                             "timing and finding-count stats to PATH "
                             "(companion artifact to --sarif-out)")
    parser.add_argument("--changed-only", action="store_true",
                        help="report only findings in files git reports as "
                             "changed since the merge-base with --diff-base "
                             "(plus uncommitted and untracked files); "
                             "cross-file rules still analyze the whole "
                             "tree, so call-graph closures stay sound")
    parser.add_argument("--diff-base", type=str, default="main",
                        metavar="REF",
                        help="reference branch for --changed-only "
                             "(default: main)")
    return parser


def changed_python_files(root: Path, diff_base: str) -> Optional[List[Path]]:
    """Python files changed relative to ``merge-base(HEAD, diff_base)``.

    Includes committed changes on the branch, uncommitted edits, and
    untracked files.  Returns None when ``root`` is not inside a git
    work tree (the caller reports the usage error); a ``diff_base``
    with no merge-base (fresh repo, unrelated branch) degrades to
    diffing against HEAD, so uncommitted work is still linted.
    """
    import subprocess

    def git(*cmd: str) -> Optional[str]:
        try:
            proc = subprocess.run(["git", *cmd], cwd=root,
                                  capture_output=True, text=True)
        except OSError:
            return None
        return proc.stdout if proc.returncode == 0 else None

    if git("rev-parse", "--is-inside-work-tree") is None:
        return None
    merge_base = git("merge-base", "HEAD", diff_base)
    rev = merge_base.strip() if merge_base else "HEAD"
    listed: List[str] = []
    diff = git("diff", "--name-only", rev)
    if diff is not None:
        listed.extend(diff.splitlines())
    untracked = git("ls-files", "--others", "--exclude-standard")
    if untracked is not None:
        listed.extend(untracked.splitlines())
    top = git("rev-parse", "--show-toplevel")
    base = Path(top.strip()) if top else root
    seen = []
    for name in dict.fromkeys(listed):  # de-dup, keep order
        if not name.endswith(".py"):
            continue
        candidate = base / name
        if candidate.is_file():
            seen.append(candidate)
    return seen


def _under(path: Path, parents: List[Path]) -> bool:
    resolved = path.resolve()
    for parent in parents:
        parent = parent.resolve()
        if resolved == parent or parent in resolved.parents:
            return True
    return False


def _list_rules() -> str:
    lines = []
    for rule in ALL_RULES:
        lines.append(f"{rule.code}  {rule.name:<20} {rule.description}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        print(_list_rules())
        return 0

    root = find_project_root()
    config = load_config(root)

    for key in ("select", "ignore"):
        if not isinstance(config.get(key, []), list):
            print(f"sirius-lint: [tool.repro.checks] {key} must be a list "
                  "of rule identifiers", file=sys.stderr)
            return 2
    select = _split_idents(args.select)
    ignore = _split_idents(args.ignore)
    if select is None:
        select = [str(item) for item in config.get("select", [])] or None
    if ignore is None:
        ignore = [str(item) for item in config.get("ignore", [])] or None
    # A misspelled or retired identifier must not quietly lint less.
    for flag, idents in (("--select", select), ("--ignore", ignore)):
        unknown = [ident for ident in idents or () if ident.strip()
                   and not filter_rules(ALL_RULES, select=[ident])]
        if unknown:
            print(f"sirius-lint: {flag} matched no rules for "
                  f"{', '.join(unknown)}", file=sys.stderr)
            return 2

    paths = list(args.paths)
    if not paths:
        configured = config.get("paths")
        if isinstance(configured, list) and configured:
            base = root or Path.cwd()
            paths = [base / str(item) for item in configured]
        else:
            base = root or Path.cwd()
            paths = [base / "src" / "repro"]
    missing = [path for path in paths if not path.exists()]
    if missing:
        print(f"sirius-lint: no such path: "
              f"{', '.join(str(p) for p in missing)}", file=sys.stderr)
        return 2

    rules = filter_rules(ALL_RULES, select=select, ignore=ignore)
    if not rules:
        print("sirius-lint: --select matched no rules", file=sys.stderr)
        return 2

    changed_files: Optional[Set[Path]] = None
    if args.changed_only:
        changed = changed_python_files(root or Path.cwd(), args.diff_base)
        if changed is None:
            print("sirius-lint: --changed-only needs a git work tree",
                  file=sys.stderr)
            return 2
        # Project rules still analyze every configured path: a method's
        # read/write closure routinely crosses into unchanged files, and
        # diffing a partial call graph against the baseline invents
        # findings.  Only the *report* is narrowed to changed files.
        changed_files = {path.resolve() for path in changed
                         if _under(path, paths)}
        if not changed_files:
            print("sirius-lint: no changed files under the linted paths")
            return 0

    stats = LintStats() if (args.stats or args.stats_json) else None
    findings = run_checks(paths, rules, root=root, stats=stats)
    if changed_files is not None:
        base = (root or Path.cwd()).resolve()
        findings = [finding for finding in findings
                    if (base / finding.path).resolve() in changed_files]
    if args.stats_json is not None and stats is not None:
        import json as _json

        args.stats_json.parent.mkdir(parents=True, exist_ok=True)
        args.stats_json.write_text(
            _json.dumps(stats.as_dict(), indent=2) + "\n", encoding="utf-8")

    baseline_path = args.baseline
    if baseline_path is None:
        configured = config.get("baseline")
        base = root or Path.cwd()
        baseline_path = base / (str(configured) if isinstance(configured, str)
                                else DEFAULT_BASELINE_NAME)

    if args.write_baseline:
        write_baseline(baseline_path, findings)
        print(f"sirius-lint: wrote {len(findings)} finding(s) to "
              f"{baseline_path}")
        return 0

    if args.no_baseline:
        new, stale = list(findings), []
    else:
        try:
            baseline = load_baseline(baseline_path)
        except ValueError as exc:
            print(f"sirius-lint: malformed baseline {baseline_path}: {exc}",
                  file=sys.stderr)
            return 2
        new, stale = diff_against_baseline(findings, baseline)
        # A narrowed run produces a narrowed finding set; only entries
        # the active rules *could* have reproduced count as stale.
        active_codes = {rule.code for rule in rules}
        stale = [fp for fp in stale
                 if fp.split("::")[1:2] and fp.split("::")[1] in active_codes]
        if args.changed_only:
            # Findings in unchanged files are filtered out before the
            # diff; their baseline entries are not stale, just
            # unreported.
            stale = []

    if args.sarif_out is not None:
        args.sarif_out.parent.mkdir(parents=True, exist_ok=True)
        args.sarif_out.write_text(format_sarif(new, rules=ALL_RULES) + "\n",
                                  encoding="utf-8")
    _report(args.format, new, stale, total=len(findings))
    if stats is not None:
        print(stats.render(), file=sys.stderr)
    return 1 if (new or stale) else 0


def _report(fmt: str, new: List[Finding], stale: List[str],
            total: int) -> None:
    if fmt == "sarif":
        print(format_sarif(new, rules=ALL_RULES))
        return
    if fmt == "json":
        import json

        payload = json.loads(format_json(new))
        payload["stale_baseline_entries"] = stale
        payload["total_findings"] = total
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    print(format_text(new) if new else
          f"no new findings ({total} baselined)" if total else "no findings")
    if stale:
        print(f"\n{len(stale)} stale baseline entr"
              f"{'ies' if len(stale) != 1 else 'y'} (fixed findings — "
              "regenerate with --write-baseline):")
        for fingerprint in stale:
            print(f"  {fingerprint}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
