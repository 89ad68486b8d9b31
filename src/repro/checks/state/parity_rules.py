"""Backend state-parity rules (family ``W14``) for
:mod:`repro.checks.state`.

``S803`` keeps sibling backend loops honest about their *phase
structure*; this family extends the audit to the **state they touch**.
The cell simulator's epoch loops (``SiriusNetwork.run`` for
reference, ``VectorizedEngine.run``) and the fluid simulator's
event loops (``_loop_reference`` / ``_loop_incremental``) are each
bound by a bit-identical-results contract, enforced dynamically by the
seeded equivalence suites.  The static shadow enforced here: a backend
loop that silently stops writing a state field its siblings write has
diverged *by construction* — lint should say so before a seeded run
has to.

Sibling loops are discovered exactly like ``S803``: by their literal
``.lap("<phase>")`` label vocabulary (``deliver``/``transmit`` → cell
group, ``advance``/``settle`` → fluid group).  For each loop the audit
extracts **normalized state-field signatures**:

* attribute stores, augmented stores, ``del``\\ s and in-place mutator
  calls, resolved through local aliases (``nodes = net.nodes`` then
  ``node = nodes[idx]`` roots at ``nodes``) and truncated to
  ``root.field`` granularity;
* ``self`` is stripped, and a parameter-bound field dereference
  (``self.net.nodes`` where ``__init__`` stored ``net`` from a
  constructor argument) is stripped with it — so the engine that
  *wraps* the network and the network's own method land on the same
  signature for the same state;
* calls into project methods are expanded through the per-class
  mutable-state models: ``node.receive_transit(cell)`` contributes
  every field ``receive_transit`` (transitively) mutates, and
  arguments are mapped onto parameter mutations, so an engine method
  taking the node as a parameter still charges its writes to
  ``nodes.*``;
* purely local state (slabs, active sets, heaps) and observability
  roots never participate — persistent bookkeeping *inside* one
  backend is its own business.

Rules:

* ``W1401 backend-write-set`` — a loop never writes a state field its
  sibling backends write;
* ``W1402 backend-result-fields`` — sibling loops constructing the
  same result class must pass the same keyword set (an omitted keyword
  silently zeroes a stat on one backend only);
* ``W1403 backend-read-set`` — a loop neither reads nor writes a
  node-state field its siblings read (gated to the shared node
  collection, where a dropped read means a dropped protocol input
  rather than a different caching strategy).

Findings anchor on the loop's first ``.lap(...)`` call — the same
anchor ``S803`` uses — so one ``# lint: ignore[...]`` line can carry a
deliberate, documented asymmetry.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.checks.engine import Finding, ProjectRule
from repro.checks.flow.project import FunctionInfo, Project
from repro.checks.state.model import (MUTATOR_METHODS, StateAnalysis,
                                      _is_self_attr)

__all__ = [
    "STATE_PARITY_RULES",
    "StateParityAudit",
    "BackendWriteSetRule",
    "BackendResultFieldsRule",
    "BackendReadSetRule",
]

#: Receiver roots that are observability plumbing, never state (shared
#: vocabulary with the S8xx audit).
_OBS_ROOTS = frozenset({"tracer", "profiler", "registry", "obs", "prof"})

#: Lap-label keys that group sibling backend loops (cf. ``S803``).
_GROUP_KEYS: Tuple[Tuple[str, frozenset], ...] = (
    ("cell", frozenset({"deliver", "transmit"})),
    ("fluid", frozenset({"advance", "settle"})),
)

#: Iterable-wrapper callables stripped when resolving loop aliases.
_ITER_WRAPPERS = frozenset({"sorted", "list", "tuple", "reversed", "iter",
                            "enumerate"})


def _chain_segments(expr: ast.AST) -> Optional[List[str]]:
    """Attribute chain as ``[root, attr, ...]``, subscripts skipped."""
    parts: List[str] = []
    node = expr
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            parts.reverse()
            return parts
        else:
            return None


def _walk_with_nested(fn: ast.AST) -> Iterator[ast.AST]:
    """Walk a loop body including its nested defs (they share the
    loop's locals), excluding nested classes and lambdas."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.ClassDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


@dataclass
class _Loop:
    """One discovered backend loop with its extracted state sets."""

    info: FunctionInfo
    group: str
    labels: Set[str]
    anchor: ast.AST               #: first ``.lap(...)`` call
    writes: Dict[str, ast.AST]    #: signature -> one witnessing node
    reads: Set[str]
    #: constructed project class qualname -> keyword names passed
    results: Dict[str, Set[str]]


class _LoopAudit:
    """State-signature extraction for one backend loop."""

    def __init__(self, project: Project, analysis: StateAnalysis,
                 info: FunctionInfo) -> None:
        self.project = project
        self.analysis = analysis
        self.info = info
        self.owner = analysis.model_for(
            f"{info.module}.{info.class_name}") if info.class_name else None
        self.params = self._param_names()
        self.aliases: Dict[str, Optional[List[str]]] = {}
        self._build_aliases()

    # -- normalization -------------------------------------------------------
    def _param_names(self) -> Set[str]:
        args = self.info.node.args
        names = {a.arg for a in (*args.posonlyargs, *args.args,
                                 *args.kwonlyargs)}
        names.discard("self")
        names.discard("cls")
        return names

    def _param_bound(self, name: str) -> bool:
        if self.owner is None:
            return False
        record = self.owner.fields.get(name)
        return record is not None and record.param_bound

    def normalize(self, expr: ast.AST, *,
                  for_alias: bool = False) -> Optional[List[str]]:
        """Normalized state path of an expression, or None for local /
        observability roots.  ``for_alias`` permits a fully-stripped
        (empty) path — ``net = self.net`` aliases the shared object
        itself."""
        segments = _chain_segments(expr)
        if segments is None:
            return None
        root, rest = segments[0], segments[1:]
        if root in ("self", "cls"):
            if rest and self._param_bound(rest[0]) and (
                    len(rest) > 1 or for_alias):
                rest = rest[1:]
            path = rest
        elif root in self.aliases:
            base = self.aliases[root]
            if base is None:
                return None
            path = [*base, *rest]
        elif root in self.params:
            path = segments
        else:
            return None
        if path and path[0] in _OBS_ROOTS:
            return None
        if not path and not for_alias:
            return None
        return path

    def signature(self, path: List[str]) -> str:
        """``root.field`` signature: state parity is diffed per field."""
        return ".".join(path[:2])

    def _build_aliases(self) -> None:
        """Fill ``self.aliases``: local name -> normalized state path it
        aliases (None = poisoned: the name also holds non-state
        values).  Two ordered passes so an alias-of-an-alias defined
        textually later still resolves (``net = self.net`` before
        ``nodes = net.nodes`` and vice versa)."""
        aliases = self.aliases
        for _ in range(2):
            for node in ast.walk(self.info.node):
                if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                        and isinstance(node.targets[0], ast.Name):
                    self._note_alias(aliases, node.targets[0].id, node.value)
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    self._note_iter_alias(aliases, node.target, node.iter)

    def _note_alias(self, aliases: Dict[str, Optional[List[str]]],
                    name: str, value: ast.AST) -> None:
        path = self.normalize(self._unwrap(value), for_alias=True)
        if path is not None:
            if aliases.get(name, path) == path:
                aliases[name] = path
            else:
                aliases[name] = None
        elif name in aliases and aliases[name] is not None:
            aliases[name] = None

    def _note_iter_alias(self, aliases: Dict[str, Optional[List[str]]],
                         target: ast.AST, source: ast.AST) -> None:
        unwrapped = self._unwrap(source)
        if isinstance(target, ast.Tuple) and len(target.elts) == 2 and \
                isinstance(target.elts[1], ast.Name) and \
                isinstance(source, ast.Call) and \
                isinstance(source.func, ast.Name) and \
                source.func.id == "enumerate":
            target = target.elts[1]
        if isinstance(target, ast.Name):
            path = self.normalize(unwrapped, for_alias=True)
            if path is not None:
                if aliases.get(target.id, path) == path:
                    aliases[target.id] = path
                else:
                    aliases[target.id] = None

    @staticmethod
    def _unwrap(expr: ast.AST) -> ast.AST:
        while (isinstance(expr, ast.Call)
               and isinstance(expr.func, ast.Name)
               and expr.func.id in _ITER_WRAPPERS and expr.args):
            expr = expr.args[0]
        if isinstance(expr, ast.Call) and isinstance(expr.func,
                                                     ast.Attribute) \
                and expr.func.attr in ("values", "get", "setdefault"):
            return expr.func.value
        return expr

    # -- extraction ----------------------------------------------------------
    def extract(self) -> Tuple[Dict[str, ast.AST], Set[str],
                               Dict[str, Set[str]]]:
        writes: Dict[str, ast.AST] = {}
        reads: Set[str] = set()
        results: Dict[str, Set[str]] = {}

        def note_write(path: Optional[List[str]], node: ast.AST) -> None:
            if path:
                writes.setdefault(self.signature(path), node)

        plumbing = self.analysis.plumbing_fields()

        def note_read(path: Optional[List[str]]) -> None:
            if path and not (len(path) >= 2 and path[1] in plumbing):
                reads.add(self.signature(path))

        for node in _walk_with_nested(self.info.node):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        note_write(self.normalize(target), target)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        note_write(self.normalize(target), target)
            elif isinstance(node, ast.Call):
                self._extract_call(node, note_write, note_read, results)
            elif isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Load):
                parent = getattr(node, "_lint_parent", None)
                if isinstance(parent, ast.Call) and parent.func is node:
                    continue  # method access, charged by the call handler
                note_read(self.normalize(node))
        return writes, reads, results

    def _extract_call(self, node: ast.Call, note_write, note_read,
                      results: Dict[str, Set[str]]) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in MUTATOR_METHODS:
                note_write(self.normalize(func.value), node)
                return
            if func.attr in self.project.methods_by_name:
                receiver = self.normalize(func.value, for_alias=True)
                if receiver is not None:
                    self._expand_method(node, func.attr, receiver,
                                        note_write, note_read)
                return
        constructed = self._constructed_class(node)
        if constructed is not None:
            kwargs = {kw.arg for kw in node.keywords if kw.arg is not None}
            results.setdefault(constructed, set()).update(kwargs)
            return
        self._map_call_params(node, self.project.resolve_call(
            node, self.info), note_write, note_read)

    def _expand_method(self, node: ast.Call, method: str,
                       receiver: List[str], note_write,
                       note_read) -> None:
        """Charge a project method's field accesses to its receiver,
        and its parameter accesses to the matching arguments."""
        for field in sorted(self.analysis.method_write_fields(method)):
            note_write([*receiver, field], node)
        for field in sorted(self.analysis.method_read_fields(method)):
            note_read([*receiver, field])
        callees = [qual for qual in
                   self.project.methods_by_name.get(method, ())]
        self._map_call_params(node, callees, note_write, note_read)

    def _map_call_params(self, node: ast.Call, callees: List[str],
                         note_write, note_read) -> None:
        """Map positional arguments onto callee parameter accesses."""
        for qual in callees:
            fn = self.project.functions.get(qual)
            if fn is None:
                continue
            access = self._param_access(fn)
            if not access:
                continue
            for formal, actual in zip(fn.params, node.args):
                fields = access.get(formal)
                if fields is None:
                    continue
                param_writes, param_reads = fields
                path = self.normalize(actual, for_alias=True)
                if path is None:
                    continue
                for field in sorted(param_writes):
                    note_write([*path, field], node)
                for field in sorted(param_reads):
                    note_read([*path, field])

    def _param_access(self, fn: FunctionInfo,
                      ) -> Dict[str, Tuple[Set[str], Set[str]]]:
        """param name -> (written fields, read fields) the callee
        touches through it (first level; memoized project-wide)."""
        cache: Dict[str, Dict[str, Tuple[Set[str], Set[str]]]] = \
            self.project.__dict__.setdefault("_state_param_access", {})
        cached = cache.get(fn.qualname)
        if cached is not None:
            return cached
        params = set(fn.params) | set(fn.kwonly)
        access: Dict[str, Tuple[Set[str], Set[str]]] = {}

        def note(chain: Optional[List[str]], *, write: bool) -> None:
            if chain and len(chain) >= 2 and chain[0] in params:
                slot = access.setdefault(chain[0], (set(), set()))
                slot[0 if write else 1].add(chain[1])

        for node in _walk_with_nested(fn.node):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)) \
                            and not _is_self_attr(target):
                        note(_chain_segments(target), write=True)
            elif isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute) and \
                    node.func.attr in MUTATOR_METHODS:
                note(_chain_segments(node.func.value), write=True)
            elif isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Load):
                parent = getattr(node, "_lint_parent", None)
                if isinstance(parent, ast.Call) and parent.func is node:
                    continue
                note(_chain_segments(node), write=False)
        cache[fn.qualname] = access
        return access

    def _constructed_class(self, node: ast.Call) -> Optional[str]:
        """Project class qualname this call constructs, or None."""
        for qual in self.project.resolve_call(node, self.info):
            if qual.endswith(".__init__"):
                return qual[:-len(".__init__")]
        func = node.func
        if isinstance(func, ast.Name):
            dotted = self.project.imports.get(
                self.info.module, {}).get(func.id,
                                          f"{self.info.module}.{func.id}")
            if dotted in self.project.classes:
                return dotted
        return None


class StateParityAudit:
    """Shared cross-backend state audit for one :class:`Project`."""

    def __init__(self, project: Project) -> None:
        self.project = project
        analysis: StateAnalysis = project.shared(StateAnalysis)
        self.loops: List[_Loop] = []
        for qualname in sorted(project.functions):
            info = project.functions[qualname]
            # Backend loops are engine *methods*; module-level functions
            # with lap calls (test fixtures replaying profiles) are not
            # execution strategies.
            if info.class_name is None:
                continue
            found = self._lap_labels(info)
            if found is None:
                continue
            labels, anchor = found
            group = self._group_of(labels)
            if group is None:
                continue
            audit = _LoopAudit(project, analysis, info)
            writes, reads, results = audit.extract()
            self.loops.append(_Loop(info=info, group=group, labels=labels,
                                    anchor=anchor, writes=writes,
                                    reads=reads, results=results))

    @staticmethod
    def _lap_labels(info: FunctionInfo,
                    ) -> Optional[Tuple[Set[str], ast.AST]]:
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
        if anchor is None:
            return None
        return labels, anchor

    @staticmethod
    def _group_of(labels: Set[str]) -> Optional[str]:
        for group, key in _GROUP_KEYS:
            if key <= labels:
                return group
        return None

    def groups(self) -> Iterator[List[_Loop]]:
        for group, _key in _GROUP_KEYS:
            members = [loop for loop in self.loops if loop.group == group]
            if len(members) >= 2:
                yield members


def _sibling_with(loops: List[_Loop], me: _Loop, signature: str,
                  *, read: bool = False) -> str:
    for loop in loops:
        if loop is me:
            continue
        if (signature in loop.reads) if read else (signature in loop.writes):
            return loop.info.short
    return "a sibling backend loop"


class BackendWriteSetRule(ProjectRule):
    code = "W1401"
    name = "backend-write-set"
    description = ("sibling backend loops must write the same "
                   "network-state field set")

    def check_project(self, project: Project) -> Iterator[Finding]:
        audit: StateParityAudit = project.shared(StateParityAudit)
        for loops in audit.groups():
            union: Set[str] = set()
            for loop in loops:
                union |= set(loop.writes)
            for loop in loops:
                for signature in sorted(union - set(loop.writes)):
                    sibling = _sibling_with(loops, loop, signature)
                    yield self.finding(
                        loop.info.ctx, loop.anchor,
                        f"backend loop {loop.info.short} never writes "
                        f"state field '{signature}' but its sibling "
                        f"{sibling} does; the backends' state write "
                        "sets have diverged",
                    )


class BackendResultFieldsRule(ProjectRule):
    code = "W1402"
    name = "backend-result-fields"
    description = ("sibling backend loops must build their result "
                   "object from the same keyword set")

    def check_project(self, project: Project) -> Iterator[Finding]:
        audit: StateParityAudit = project.shared(StateParityAudit)
        for loops in audit.groups():
            union: Dict[str, Set[str]] = {}
            builders: Dict[str, int] = {}
            for loop in loops:
                for cls_qual, kwargs in loop.results.items():
                    union.setdefault(cls_qual, set()).update(kwargs)
                    builders[cls_qual] = builders.get(cls_qual, 0) + 1
            for loop in loops:
                for cls_qual, kwargs in sorted(loop.results.items()):
                    if builders.get(cls_qual, 0) < 2:
                        continue
                    missing = sorted(union[cls_qual] - kwargs)
                    if not missing:
                        continue
                    cls_name = cls_qual.rsplit(".", 1)[-1]
                    yield self.finding(
                        loop.info.ctx, loop.anchor,
                        f"backend loop {loop.info.short} builds "
                        f"{cls_name} without keyword"
                        f"{'s' if len(missing) != 1 else ''} "
                        f"{', '.join(repr(k) for k in missing)} that its "
                        "sibling backend loops pass; the omitted stats "
                        "silently default on this backend only",
                    )


class BackendReadSetRule(ProjectRule):
    code = "W1403"
    name = "backend-read-set"
    description = ("sibling backend loops must consume the same "
                   "node-state field set")

    #: Only node-collection state participates: differing *self*-level
    #: caching strategies are the whole point of having backends.
    _ROOT = "nodes."

    def check_project(self, project: Project) -> Iterator[Finding]:
        audit: StateParityAudit = project.shared(StateParityAudit)
        for loops in audit.groups():
            union: Set[str] = set()
            for loop in loops:
                union |= {sig for sig in loop.reads
                          if sig.startswith(self._ROOT)}
            for loop in loops:
                touched = set(loop.reads) | set(loop.writes)
                for signature in sorted(union - touched):
                    sibling = _sibling_with(loops, loop, signature,
                                            read=True)
                    yield self.finding(
                        loop.info.ctx, loop.anchor,
                        f"backend loop {loop.info.short} never reads "
                        f"node-state field '{signature}' but its "
                        f"sibling {sibling} does; a protocol input has "
                        "been dropped on this backend",
                    )


STATE_PARITY_RULES = [BackendWriteSetRule(), BackendResultFieldsRule(),
                      BackendReadSetRule()]
