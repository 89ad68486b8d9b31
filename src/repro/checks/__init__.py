"""``repro.checks`` — simulator-aware static analysis for the reproduction.

An AST-based lint engine (stdlib only) with three rule families:

* **unit-dimension** (``U1xx``): raw power-of-ten literals, dB/linear
  power mixing, cross-dimension arithmetic — guarding the SI-base-unit
  contract of :mod:`repro.units`;
* **determinism** (``D2xx``): module-global RNG draws, unseeded RNG
  construction, set-iteration order — guarding bit-for-bit reproducible
  benchmark sweeps (Figs 9–13);
* **invariant** (``I3xx``): frozen-dataclass mutation, missing config
  validators, schedule construction that bypasses the contention-free
  permutation check (paper §4.2).

On top of the per-file families, :mod:`repro.checks.flow` adds
project-wide dataflow analyses (symbol table + call graph + CFGs):
**dimensional flow** (``F6xx``) and **determinism taint** (``T7xx``);
:mod:`repro.checks.concurrency` checks races, event-loop blocking and
pickle safety (``C9xx``/``B10xx``/``K11xx``) on the same call graph.

Run as ``python -m repro.checks src/repro`` or via the ``sirius-lint``
console script; suppress an intentional finding with a trailing
``# lint: ignore[rule-id]`` comment; accepted pre-existing findings
live in the committed ``checks_baseline.json``.
"""

from repro.checks.baseline import (
    diff_against_baseline,
    load_baseline,
    write_baseline,
)
from repro.checks.cli import main
from repro.checks.engine import (
    FileContext,
    Finding,
    ProjectRule,
    Rule,
    check_project_source,
    check_source,
    filter_rules,
    format_json,
    format_sarif,
    format_text,
    iter_python_files,
    parse_file,
    run_checks,
)
from repro.checks.registry import ALL_RULES

__all__ = [
    "ALL_RULES",
    "FileContext",
    "Finding",
    "ProjectRule",
    "Rule",
    "check_project_source",
    "check_source",
    "diff_against_baseline",
    "filter_rules",
    "format_json",
    "format_sarif",
    "format_text",
    "iter_python_files",
    "load_baseline",
    "main",
    "parse_file",
    "run_checks",
    "write_baseline",
]
