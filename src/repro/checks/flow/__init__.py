"""Cross-module dataflow analysis layer for :mod:`repro.checks`.

``repro.checks.flow`` sits beneath the rule engine: it builds a
project-wide symbol table and call graph (:mod:`.project`), per-function
control-flow graphs (:mod:`.cfg`) and a small forward-dataflow framework
(:mod:`.dataflow`), then layers two project-rule families on top:

* ``F6xx`` (:mod:`.dimension_rules`) — physical-dimension inference and
  cross-function dimension-mismatch detection;
* ``T7xx`` (:mod:`.taint_rules`) — determinism taint: can wall-clock /
  entropy / hash-order nondeterminism reach a simulation run?
"""

from repro.checks.flow.cfg import CFG, build_cfg
from repro.checks.flow.dataflow import (
    ForwardAnalysis,
    ReachingDefinitions,
    statement_envs,
)
from repro.checks.flow.dimension_rules import (
    DIMENSION_FLOW_RULES,
    DimensionInference,
)
from repro.checks.flow.project import FunctionInfo, Project
from repro.checks.flow.taint_rules import TAINT_FLOW_RULES, TaintAnalysis

#: Every project-level rule this package provides, in report order.
FLOW_RULES = [*DIMENSION_FLOW_RULES, *TAINT_FLOW_RULES]

__all__ = [
    "CFG",
    "DIMENSION_FLOW_RULES",
    "DimensionInference",
    "FLOW_RULES",
    "ForwardAnalysis",
    "FunctionInfo",
    "Project",
    "ReachingDefinitions",
    "TAINT_FLOW_RULES",
    "TaintAnalysis",
    "build_cfg",
    "statement_envs",
]
