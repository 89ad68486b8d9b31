"""The canonical rule registry for :mod:`repro.checks`.

Adding a per-file rule: subclass :class:`repro.checks.engine.Rule` in
the appropriate family module (or a new one), give it a unique ``code``
(family letter + number) and kebab-case ``name``, and append an instance
to that family's list — the CLI, suppression comments and
``--select``/``--ignore`` pick it up from here.

Writing a flow rule
-------------------
Cross-file rules subclass :class:`repro.checks.engine.ProjectRule` and
live under :mod:`repro.checks.flow`.  The recipe:

1. implement ``check_project(self, project)`` — ``project`` is a
   :class:`repro.checks.flow.Project` carrying the symbol table
   (``project.functions`` keyed by dotted qualname), per-module import
   maps, and the call graph (``project.calls``,
   ``project.reachable_from``);
2. put the expensive analysis in its own class taking the project as
   its only constructor argument and fetch it with
   ``project.shared(MyAnalysis)`` — every rule in the family then
   reuses one instance per lint run;
3. for per-function reasoning, build a CFG with
   :func:`repro.checks.flow.build_cfg` and run a subclass of
   :class:`repro.checks.flow.ForwardAnalysis`;
   :func:`repro.checks.flow.statement_envs` gives the abstract
   environment *before* each statement;
4. anchor findings with ``self.finding(info.ctx, node, message)`` at
   the file/line where the fix belongs — suppression comments apply at
   the anchoring line, even for findings whose cause is in another
   file;
5. give the rule a code in the flow ranges (``F6xx`` dimensions,
   ``T7xx`` determinism taint, ``C9xx`` concurrency, ``B10xx``
   async-blocking, ``K11xx`` pickle-safety, or a new family), append
   the instance to the family list in its module, and add the family
   list here;
6. test it with :func:`repro.checks.engine.check_project_source`,
   passing a ``{relpath: source}`` dict — one fixture with the injected
   bug, one clean twin that must stay silent.
"""

from __future__ import annotations

from typing import List

from repro.checks.concurrency import CONCURRENCY_RULES
from repro.checks.determinism_rules import DETERMINISM_RULES
from repro.checks.engine import Rule
from repro.checks.flow import FLOW_RULES
from repro.checks.invariant_rules import INVARIANT_RULES
from repro.checks.obs_rules import OBS_RULES
from repro.checks.perf_rules import PERF_RULES
from repro.checks.units_rules import UNITS_RULES

__all__ = ["ALL_RULES", "rules_by_code"]

ALL_RULES: List[Rule] = [
    *UNITS_RULES, *DETERMINISM_RULES, *INVARIANT_RULES, *OBS_RULES,
    *PERF_RULES, *FLOW_RULES, *CONCURRENCY_RULES,
]


def rules_by_code() -> dict:
    return {rule.code: rule for rule in ALL_RULES}
