"""Backend phase-structure rule (family ``S8``) for
:mod:`repro.checks.flow`.

The cell simulator keeps two epoch loops — the all-nodes ``reference``
loop and the numpy-slab ``vectorized`` engine — bound by a
bit-identical-results contract that the seeded parity suite enforces
dynamically.  This rule audits their structure statically:

* ``S803 backend-phase-structure`` — every cell-simulator epoch loop
  (any function whose literal ``.lap("<phase>")`` labels include
  ``deliver`` and ``transmit``) must profile the same phase-label
  vocabulary as its sibling loops, keeping the per-phase bench
  comparison meaningful.

The state the loops touch is audited by the ``W14xx`` family
(:mod:`repro.checks.state.parity_rules`).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.checks.engine import Finding, ProjectRule
from repro.checks.flow.project import FunctionInfo, Project

__all__ = ["PARITY_RULES", "BackendPhaseStructureRule"]


class BackendPhaseStructureRule(ProjectRule):
    """Every cell-simulator epoch loop must profile the same phases.

    The backends (the ``reference`` loop and the ``vectorized`` engine)
    are kept comparable phase by phase: the per-phase wall-clock split
    in ``BENCH_<date>.json`` and the profiling docs assume one label
    vocabulary.  An *epoch loop* here is any function
    whose literal ``.lap("<phase>")`` labels include the core
    ``deliver`` and ``transmit`` pair — which selects the cell
    simulators and leaves the fluid loops
    (``advance``/``recompute``/``settle``) alone.  A loop missing a
    label its sibling backends profile has either dropped a phase or
    renamed it; both break the cross-backend comparison.
    """

    code = "S803"
    name = "backend-phase-structure"
    description = ("cell-simulator epoch loops must share one profiler "
                   "phase-label vocabulary")

    _CORE_LABELS = frozenset({"deliver", "transmit"})

    def check_project(self, project: Project) -> Iterator[Finding]:
        loops: List[Tuple[FunctionInfo, Set[str], ast.AST]] = []
        for info in project.functions.values():
            labels: Set[str] = set()
            anchor: Optional[ast.AST] = None
            for node in ast.walk(info.node):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "lap"
                        and node.args
                        and isinstance(node.args[0], ast.Constant)
                        and isinstance(node.args[0].value, str)):
                    labels.add(node.args[0].value)
                    if anchor is None:
                        anchor = node
            if anchor is not None and self._CORE_LABELS <= labels:
                loops.append((info, labels, anchor))
        if len(loops) < 2:
            return
        vocabulary = set().union(*(labels for _, labels, _ in loops))
        for info, labels, anchor in loops:
            missing = sorted(vocabulary - labels)
            if missing:
                yield self.finding(
                    info.ctx, anchor,
                    f"epoch loop {info.short} never profiles "
                    f"{', '.join(missing)}; its sibling backend loops "
                    "do, so the per-phase comparison across backends "
                    "breaks",
                )


PARITY_RULES = [BackendPhaseStructureRule()]
