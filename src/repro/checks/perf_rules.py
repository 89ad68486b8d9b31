"""Performance lint rules (family ``P``).

The performance work in :mod:`repro.core` exists because a handful of
accidentally-quadratic idioms dominated the epoch loop's profile:
``list.pop(0)`` shifting every element on each call, and fresh
``list(...)`` snapshots of containers taken inside per-epoch loops.
These rules keep those idioms from creeping back into the simulator's
hot packages (``repro.core``, ``repro.sim``):

* ``P501 pop-zero-in-loop`` — ``something.pop(0)`` inside a loop body;
  a :class:`collections.deque` with ``popleft()`` is O(1).
* ``P502 list-copy-in-loop`` — ``list(name)`` / ``list(obj.attr)``
  inside a loop body; hoist the snapshot out of the loop or iterate
  the container directly.
* ``P503 invariant-mapping-in-loop`` — a dict/set comprehension (or
  ``dict(name)``/``set(name)`` copy) inside a loop body whose free
  names the loop never rebinds or mutates: the mapping is rebuilt
  identically on every iteration.  This is the shape the fluid
  simulator's event loop used to have — per-resource membership dicts
  reconstructed from the full flow list on every event — before the
  incremental engine made that state persistent.

The rules look only at loop *bodies* (and ``else`` clauses): a
``for x in list(d):`` header at function top level is the standard
snapshot-before-mutation idiom and is evaluated once, so it does not
fire.  Presentation layers and tests are out of scope, as with the
``O4xx`` family.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.checks.engine import FileContext, Finding, Rule, parent_of

__all__ = [
    "PopZeroInLoopRule",
    "ListCopyInLoopRule",
    "InvariantMappingInLoopRule",
    "PERF_RULES",
]

#: Dotted-module prefixes where simulator hot paths live.
_HOT_PACKAGES = ("repro.core", "repro.sim")

_LOOPS = (ast.For, ast.AsyncFor, ast.While)


def _in_hot_path(ctx: FileContext) -> bool:
    module = ctx.module_dotted()
    return any(
        module == package or module.startswith(package + ".")
        for package in _HOT_PACKAGES
    )


def _in_loop_body(node: ast.AST) -> bool:
    """True when ``node`` sits in the body of some enclosing loop.

    Climbs the ``_lint_parent`` chain; at each enclosing loop, the node
    counts only if the chain enters through ``body``/``orelse`` — an
    expression in a loop *header* (``iter`` of a ``for``, ``test`` of a
    ``while``) is evaluated once (``for``) or is the loop condition
    itself, not per-iteration body work.
    """
    child: ast.AST = node
    parent = parent_of(child)
    while parent is not None:
        if isinstance(parent, _LOOPS):
            for stmt in (*parent.body, *parent.orelse):
                if stmt is child:
                    return True
        child, parent = parent, parent_of(parent)
    return False


class PopZeroInLoopRule(Rule):
    """Flag ``.pop(0)`` inside loop bodies in the simulator packages."""

    code = "P501"
    name = "pop-zero-in-loop"
    description = ".pop(0) inside a loop body in repro.core/repro.sim"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not _in_hot_path(ctx):
            return
        for node in ctx.walk():
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "pop"
                    and len(node.args) == 1
                    and not node.keywords
                    and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value == 0):
                continue
            if _in_loop_body(node):
                yield self.finding(
                    ctx, node,
                    ".pop(0) shifts the whole list on every call; use "
                    "collections.deque with popleft() for O(1) head "
                    "removal",
                )


class ListCopyInLoopRule(Rule):
    """Flag ``list(container)`` copies inside loop bodies there."""

    code = "P502"
    name = "list-copy-in-loop"
    description = "list(...) container copy inside a loop body in repro.core/repro.sim"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not _in_hot_path(ctx):
            return
        for node in ctx.walk():
            # Only list(name) / list(obj.attr): a copy of an existing
            # container.  list(map(...)) etc. builds a new sequence and
            # is not a redundant snapshot.
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "list"
                    and len(node.args) == 1
                    and not node.keywords
                    and isinstance(node.args[0], (ast.Name, ast.Attribute))):
                continue
            if _in_loop_body(node):
                yield self.finding(
                    ctx, node,
                    "list(...) copies the container on every iteration; "
                    "hoist the snapshot out of the loop or iterate the "
                    "container directly",
                )


def _comprehension_free_names(node: ast.AST) -> set:
    """Names a comprehension reads from its enclosing scope.

    Every ``Name`` loaded inside the node, minus the comprehension's
    own targets (which are local to it).
    """
    bound = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.comprehension):
            for target in ast.walk(sub.target):
                if isinstance(target, ast.Name):
                    bound.add(target.id)
    free = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            if sub.id not in bound:
                free.add(sub.id)
    return free


def _names_touched_by_loop(loop: ast.AST) -> set:
    """Names the loop may rebind or mutate on some iteration.

    Conservative: a name counts as touched when it is an assignment /
    ``for`` / ``with`` / walrus target, augmented-assigned, deleted,
    stored through (``name.attr = ...``, ``name[k] = ...``), or the
    receiver of any method call (``name.update(...)`` — we cannot tell
    mutators from readers, so any method call disqualifies).
    """
    touched = set()

    def roots_of(target: ast.AST) -> Iterator[str]:
        for sub in ast.walk(target):
            if isinstance(sub, ast.Name):
                yield sub.id

    for sub in ast.walk(loop):
        if isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (sub.targets if isinstance(sub, ast.Assign)
                       else [sub.target])
            for target in targets:
                touched.update(roots_of(target))
        elif isinstance(sub, (ast.For, ast.AsyncFor)):
            touched.update(roots_of(sub.target))
        elif isinstance(sub, ast.withitem) and sub.optional_vars:
            touched.update(roots_of(sub.optional_vars))
        elif isinstance(sub, ast.NamedExpr):
            touched.add(sub.target.id)
        elif isinstance(sub, ast.Delete):
            for target in sub.targets:
                touched.update(roots_of(target))
        elif (isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)):
            for root in roots_of(sub.func.value):
                touched.add(root)
    return touched


class InvariantMappingInLoopRule(Rule):
    """Flag loop-invariant dict/set rebuilds inside loop bodies."""

    code = "P503"
    name = "invariant-mapping-in-loop"
    description = ("loop-invariant dict/set rebuilt inside a loop body "
                   "in repro.core/repro.sim")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not _in_hot_path(ctx):
            return
        for node in ctx.walk():
            if isinstance(node, (ast.DictComp, ast.SetComp)):
                free = _comprehension_free_names(node)
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("dict", "set")
                    and len(node.args) == 1
                    and not node.keywords
                    and isinstance(node.args[0],
                                   (ast.Name, ast.Attribute))):
                free = _comprehension_free_names(node.args[0])
            else:
                continue
            if not free:
                continue
            loop = self._enclosing_loop(node)
            if loop is None:
                continue
            if free & _names_touched_by_loop(loop):
                continue
            yield self.finding(
                ctx, node,
                "dict/set rebuilt from loop-invariant inputs on every "
                "iteration; hoist it above the loop or keep it as "
                "persistent state updated in place",
            )

    @staticmethod
    def _enclosing_loop(node: ast.AST) -> "Optional[ast.AST]":
        """Innermost loop whose body/else contains ``node``, if any."""
        child: ast.AST = node
        parent = parent_of(child)
        while parent is not None:
            if isinstance(parent, _LOOPS):
                for stmt in (*parent.body, *parent.orelse):
                    if stmt is child:
                        return parent
            child, parent = parent, parent_of(parent)
        return None


PERF_RULES = [PopZeroInLoopRule(), ListCopyInLoopRule(),
              InvariantMappingInLoopRule()]
