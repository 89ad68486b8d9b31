"""Project-wide symbol table and call graph for :mod:`repro.checks.flow`.

The per-file rules of the base engine see one ``ast.Module`` at a time;
the flow analyses need to follow a value across call sites — from a
``repro.units`` conversion helper into an optics function, or from
``SiriusNetwork.run`` down into a node method that draws randomness.
This module builds the whole-program structures those analyses share:

* a **symbol table** — every function, method and class in every parsed
  file, keyed by dotted qualname (``repro.core.network.SiriusNetwork.run``),
  including nested ``def``\\ s (closures get ``outer.inner`` qualnames);
* per-module **import maps** (local alias → dotted target), so a call
  through ``from repro.units import dbm_to_w as d2w`` still resolves;
* a **call graph** with per-edge call sites.  Plain-name calls resolve
  through scopes and imports; ``self.method()`` resolves within the
  class; ``obj.method()`` falls back to class-hierarchy analysis (every
  project class defining ``method``), which over-approximates — the
  right bias for taint reachability.  An enclosing function gets an
  implicit edge to each directly nested ``def`` (closures are assumed
  callable from their definition scope).

Everything is derived once per :class:`Project` and shared by the F6xx
and T7xx rule families and the concurrency families.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterator, List, Optional, Sequence, Set,
                    Tuple)

from repro.checks.engine import FileContext

__all__ = ["FunctionInfo", "ClassInfo", "Project", "module_imports"]

#: ``something.<attr>(fn, ...)`` shapes that hand ``fn`` to a pool of
#: worker *processes* — ``multiprocessing.Pool`` and
#: ``ParallelSweepRunner`` both expose the ``map`` surface.
_POOL_MAP_ATTRS = frozenset({
    "map", "imap", "imap_unordered", "map_async", "starmap",
    "starmap_async", "apply", "apply_async",
})

#: Constructor dotted names taking ``target=fn`` → boundary kind.
_TARGET_CTORS = {
    "multiprocessing.Process": "process",
    "multiprocessing.context.Process": "process",
    "threading.Thread": "thread",
}

#: Direct dotted calls whose first function argument runs elsewhere.
_DIRECT_SPAWNERS = {
    "asyncio.to_thread": "thread",
}


@dataclass
class FunctionInfo:
    """One function or method, with everything call resolution needs."""

    qualname: str
    module: str
    name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    ctx: FileContext
    class_name: Optional[str] = None
    #: Qualname of the directly enclosing function for nested defs.
    parent: Optional[str] = None
    #: Positional parameter names, ``self``/``cls`` stripped for methods.
    params: List[str] = field(default_factory=list)
    kwonly: List[str] = field(default_factory=list)
    has_vararg: bool = False

    @property
    def short(self) -> str:
        """Readable name for messages: drop the module prefix."""
        prefix = self.module + "."
        return (self.qualname[len(prefix):]
                if self.qualname.startswith(prefix) else self.qualname)


@dataclass
class ClassInfo:
    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    methods: Dict[str, str] = field(default_factory=dict)  # name -> qualname
    #: Base-class expressions as written ("Base", "mod.Base"); resolved
    #: lazily against the defining module's imports.
    bases: List[str] = field(default_factory=list)


def _dotted_text(node: ast.AST) -> Optional[str]:
    """``Name``/``Attribute`` chain as dotted text (else None)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def module_imports(tree: ast.Module, module: str) -> Dict[str, str]:
    """Local alias → dotted import target for one module."""
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                # ``import a.b`` binds ``a`` but the analyses only chase
                # dotted attribute chains, so the full target is recorded
                # under the bound alias.
                local = item.asname or item.name.split(".")[0]
                imports[local] = item.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = module.split(".")
                # level 1 = current package, 2 = its parent, ...
                keep = len(parts) - node.level
                prefix = ".".join(parts[:keep]) if keep > 0 else ""
                base = f"{prefix}.{base}".strip(".") if base else prefix
            for item in node.names:
                if item.name == "*":
                    continue
                local = item.asname or item.name
                imports[local] = f"{base}.{item.name}" if base else item.name
    return imports


class Project:
    """All parsed files plus the symbol table and call graph over them."""

    def __init__(self, contexts: Sequence[FileContext]) -> None:
        self.contexts: Dict[str, FileContext] = {
            ctx.relpath: ctx for ctx in contexts
        }
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: method name -> qualnames of every project method with that name
        self.methods_by_name: Dict[str, List[str]] = {}
        #: module -> local alias -> dotted import target
        self.imports: Dict[str, Dict[str, str]] = {}
        #: caller qualname -> [(callee qualname, call-site node)]
        self.calls: Dict[str, List[Tuple[str, ast.AST]]] = {}
        #: (caller, callee) -> boundary kind the edge crosses
        #: ("process" | "thread" | "executor"); absent = same-context call.
        self.edge_boundaries: Dict[Tuple[str, str], str] = {}
        self._shared: Dict[type, object] = {}
        self._modules: Dict[str, str] = {}
        self._own_cache: Dict[str, Tuple[ast.AST, ...]] = {}
        for ctx in contexts:
            self._index_file(ctx)
        for info in self.functions.values():
            self.calls[info.qualname] = list(self._edges_from(info))

    def shared(self, factory: type):
        """Memoized per-project analysis instance (``factory(project)``).

        The three rules of a family share one analysis: the first rule
        to ask builds it, the rest reuse it.
        """
        if factory not in self._shared:
            self._shared[factory] = factory(self)
        return self._shared[factory]

    # -- symbol table --------------------------------------------------------
    def _index_file(self, ctx: FileContext) -> None:
        module = ctx.module_dotted()
        self._modules[module] = ctx.relpath
        self.imports[module] = module_imports(ctx.tree, module)
        self._index_body(ctx, module, ctx.tree.body, scope=module,
                         class_name=None, parent=None)

    def _index_body(self, ctx: FileContext, module: str,
                    body: Sequence[ast.stmt], scope: str,
                    class_name: Optional[str],
                    parent: Optional[str]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{scope}.{stmt.name}"
                info = self._function_info(ctx, module, qualname, stmt,
                                           class_name, parent)
                self.functions[qualname] = info
                if class_name is not None and parent is None:
                    self.methods_by_name.setdefault(
                        stmt.name, []).append(qualname)
                    self.classes[f"{module}.{class_name}"].methods[
                        stmt.name] = qualname
                self._index_body(ctx, module, stmt.body, scope=qualname,
                                 class_name=class_name, parent=qualname)
            elif isinstance(stmt, ast.ClassDef):
                qualname = f"{scope}.{stmt.name}"
                self.classes[qualname] = ClassInfo(
                    qualname=qualname, module=module, name=stmt.name,
                    node=stmt, bases=[
                        text for text in
                        (_dotted_text(base) for base in stmt.bases)
                        if text is not None
                    ],
                )
                self._index_body(ctx, module, stmt.body, scope=qualname,
                                 class_name=stmt.name, parent=parent)
            elif isinstance(stmt, (ast.If, ast.Try, ast.With, ast.For,
                                   ast.While)):
                for inner in ast.iter_child_nodes(stmt):
                    if isinstance(inner, ast.stmt):
                        self._index_body(ctx, module, [inner], scope=scope,
                                         class_name=class_name, parent=parent)

    @staticmethod
    def _function_info(ctx: FileContext, module: str, qualname: str,
                       node: ast.AST, class_name: Optional[str],
                       parent: Optional[str]) -> FunctionInfo:
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args)]
        if class_name is not None and parent is None and params and (
                params[0] in ("self", "cls")):
            params = params[1:]
        return FunctionInfo(
            qualname=qualname, module=module, name=node.name, node=node,
            ctx=ctx, class_name=class_name, parent=parent, params=params,
            kwonly=[a.arg for a in args.kwonlyargs],
            has_vararg=args.vararg is not None,
        )

    # -- call graph ----------------------------------------------------------
    def _edges_from(self, info: FunctionInfo,
                    ) -> Iterator[Tuple[str, ast.AST]]:
        edges: List[Tuple[str, ast.AST]] = []
        spawned: Set[str] = set()
        for node in self._own_nodes(info):
            if isinstance(node, ast.Call):
                for callee in self.resolve_call(node, info):
                    edges.append((callee, node))
                for callee, kind in self._spawn_targets(node, info):
                    self.edge_boundaries[(info.qualname, callee)] = kind
                    spawned.add(callee)
                    edges.append((callee, node))
        # Implicit edge to each directly nested def: a closure is
        # conservatively assumed reachable from its definition scope —
        # unless this function only hands it across an execution
        # boundary, in which case the annotated spawn edge is the truth
        # and a same-context edge would undo it.
        for stmt in ast.walk(info.node):
            if stmt is info.node:
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested = self.functions.get(f"{info.qualname}.{stmt.name}")
                if (nested is not None and nested.parent == info.qualname
                        and nested.qualname not in spawned):
                    yield nested.qualname, stmt
        yield from edges

    def _spawn_targets(self, call: ast.Call, info: FunctionInfo,
                       ) -> Iterator[Tuple[str, str]]:
        """(callee qualname, boundary kind) for callables handed to a
        spawn API at this call site.

        A function *reference* passed to ``pool.map`` /
        ``ParallelSweepRunner.map``, ``Process(target=...)`` /
        ``Thread(target=...)``, ``executor.submit`` /
        ``loop.run_in_executor`` or ``asyncio.to_thread`` is invoked in
        another process, thread or executor: the call graph gets a real
        edge there, annotated with the boundary it crosses, so
        reachability queries can either follow workers (race analysis)
        or stop at the caller (event-loop blocking analysis).
        """
        func = call.func
        candidates: List[Tuple[ast.AST, str]] = []
        if isinstance(func, ast.Attribute):
            if func.attr in _POOL_MAP_ATTRS and call.args:
                candidates.append((call.args[0], "process"))
            elif func.attr == "submit" and call.args:
                candidates.append((call.args[0], "executor"))
            elif func.attr == "run_in_executor" and len(call.args) >= 2:
                candidates.append((call.args[1], "executor"))
        dotted = self._dotted_callable(func, info)
        if dotted is not None:
            kind = _TARGET_CTORS.get(dotted)
            if kind is not None:
                for keyword in call.keywords:
                    if keyword.arg == "target":
                        candidates.append((keyword.value, kind))
            kind = _DIRECT_SPAWNERS.get(dotted)
            if kind is not None and call.args:
                candidates.append((call.args[0], kind))
        for node, kind in candidates:
            for callee in self.resolve_func_ref(node, info):
                yield callee, kind

    def _dotted_callable(self, func: ast.AST,
                         info: FunctionInfo) -> Optional[str]:
        """Import-resolved dotted name of a called object, or None."""
        if isinstance(func, ast.Name):
            return self.imports.get(info.module, {}).get(func.id)
        if isinstance(func, ast.Attribute) and isinstance(func.value,
                                                          ast.Name):
            base = self.imports.get(info.module, {}).get(func.value.id)
            if base is not None:
                return f"{base}.{func.attr}"
        return None

    def resolve_func_ref(self, node: ast.AST,
                         info: FunctionInfo) -> List[str]:
        """Project functions a bare function *reference* may denote.

        Unlike :meth:`resolve_call` this resolves a name that is passed
        around as a value (``pool.map(run_job, ...)``,
        ``Process(target=self._worker)``) rather than called.
        """
        if isinstance(node, ast.Name):
            return self._resolve_name(node.id, info)
        if isinstance(node, ast.Attribute) and isinstance(node.value,
                                                          ast.Name):
            if node.value.id in ("self", "cls") and info.class_name:
                own = self.classes.get(f"{info.module}.{info.class_name}")
                if own is not None and node.attr in own.methods:
                    return [own.methods[node.attr]]
            base = self.imports.get(info.module, {}).get(node.value.id)
            if base is not None:
                dotted = f"{base}.{node.attr}"
                if dotted in self.functions:
                    return [dotted]
        return []

    @property
    def worker_entries(self) -> Set[str]:
        """Functions entered through a process boundary (pool workers)."""
        return {callee for (_caller, callee), kind
                in self.edge_boundaries.items() if kind == "process"}

    def _own_nodes(self, info: FunctionInfo) -> Iterator[ast.AST]:
        """Walk ``info``'s body without descending into nested defs.

        Memoized per function: every analysis family re-walks the same
        bodies, so the flattened node tuple is computed once per lint
        run and shared.
        """
        cached = self._own_cache.get(info.qualname)
        if cached is None:
            cached = tuple(self._iter_own_nodes(info))
            self._own_cache[info.qualname] = cached
        return iter(cached)

    def _iter_own_nodes(self, info: FunctionInfo) -> Iterator[ast.AST]:
        stack: List[ast.AST] = list(ast.iter_child_nodes(info.node))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def resolve_call(self, call: ast.Call, info: FunctionInfo) -> List[str]:
        """Project-function qualnames a call site may reach (possibly [])."""
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_name(func.id, info)
        if isinstance(func, ast.Attribute):
            return self._resolve_attribute(func, info)
        return []

    def _resolve_name(self, name: str, info: FunctionInfo) -> List[str]:
        # Nested function in (an enclosing) scope, innermost first.
        scope: Optional[str] = info.qualname
        while scope is not None:
            nested = self.functions.get(f"{scope}.{name}")
            if nested is not None:
                return [nested.qualname]
            scope = self.functions[scope].parent if scope in self.functions \
                else None
        # Module-level function or class constructor.
        local = self.functions.get(f"{info.module}.{name}")
        if local is not None:
            return [local.qualname]
        cls = self.classes.get(f"{info.module}.{name}")
        if cls is not None:
            init = cls.methods.get("__init__")
            return [init] if init else []
        # Imported name.
        target = self.imports.get(info.module, {}).get(name)
        if target is not None:
            if target in self.functions:
                return [target]
            cls = self.classes.get(target)
            if cls is not None:
                init = cls.methods.get("__init__")
                return [init] if init else []
        return []

    def _resolve_attribute(self, func: ast.Attribute,
                           info: FunctionInfo) -> List[str]:
        owner, method = func.value, func.attr
        if (isinstance(owner, ast.Call) and isinstance(owner.func, ast.Name)
                and owner.func.id == "super"):
            # ``super().m()`` dispatches along the base chain only.  A
            # base outside the project (ValueError, object, ...)
            # resolves to nothing — falling through to the name-based
            # approximation here would connect every ``__init__`` in
            # the repo to every exception constructor.
            return self._super_targets(info, method)
        if isinstance(owner, ast.Name):
            if owner.id in ("self", "cls") and info.class_name is not None:
                own = self.classes.get(f"{info.module}.{info.class_name}")
                if own is not None and method in own.methods:
                    return [own.methods[method]]
                return self._cha(method)
            target = self.imports.get(info.module, {}).get(owner.id)
            if target is not None:
                dotted = f"{target}.{method}"
                if dotted in self.functions:
                    return [dotted]
                cls = self.classes.get(dotted)
                if cls is not None:
                    init = cls.methods.get("__init__")
                    return [init] if init else []
                if target in self.contexts_modules():
                    return []  # project module, but no such symbol
        return self._cha(method)

    def _cha(self, method: str) -> List[str]:
        """Class-hierarchy approximation: every method with this name."""
        return list(self.methods_by_name.get(method, []))

    def _super_targets(self, info: FunctionInfo, method: str) -> List[str]:
        """First project base up the chain defining ``method`` (MRO-ish)."""
        if info.class_name is None:
            return []
        seen: Set[str] = set()
        frontier = [f"{info.module}.{info.class_name}"]
        while frontier:
            cls = self.classes.get(frontier.pop(0))
            if cls is None or cls.qualname in seen:
                continue
            seen.add(cls.qualname)
            if cls.qualname != f"{info.module}.{info.class_name}" \
                    and method in cls.methods:
                return [cls.methods[method]]
            for base_text in cls.bases:
                resolved = self._resolve_class_text(cls.module, base_text)
                if resolved is not None:
                    frontier.append(resolved)
        return []

    def _resolve_class_text(self, module: str,
                            text: str) -> Optional[str]:
        """Dotted base expression -> project class qualname (or None)."""
        if f"{module}.{text}" in self.classes:
            return f"{module}.{text}"
        alias, _, rest = text.partition(".")
        target = self.imports.get(module, {}).get(alias)
        if target is not None:
            dotted = f"{target}.{rest}" if rest else target
            if dotted in self.classes:
                return dotted
        return None

    def contexts_modules(self) -> Dict[str, str]:
        """Dotted module → relpath for every indexed file (precomputed)."""
        return self._modules

    # -- reachability --------------------------------------------------------
    def reachable_from(self, roots: Sequence[str], *,
                       cross_boundaries: bool = True,
                       ) -> Dict[str, Tuple[Optional[str], Optional[ast.AST]]]:
        """BFS closure of the call graph from ``roots``.

        Returns reached qualname → (caller qualname, call-site node);
        roots map to (None, None).  Following the parent pointers yields
        a shortest call path for diagnostics.  With
        ``cross_boundaries=False`` the walk stops at process / thread /
        executor boundary edges — the closure then covers only code
        running in the roots' own execution context (what an event-loop
        blocking analysis needs), while the default follows workers too
        (what a cross-process race analysis needs).
        """
        parent: Dict[str, Tuple[Optional[str], Optional[ast.AST]]] = {}
        frontier: List[str] = []
        for root in roots:
            if root in self.functions and root not in parent:
                parent[root] = (None, None)
                frontier.append(root)
        while frontier:
            nxt: List[str] = []
            for caller in frontier:
                for callee, site in self.calls.get(caller, ()):
                    if (not cross_boundaries
                            and (caller, callee) in self.edge_boundaries):
                        continue
                    if callee not in parent:
                        parent[callee] = (caller, site)
                        nxt.append(callee)
            frontier = nxt
        return parent

    def paths_from(self, roots: Sequence[str],
                   predicate: Callable[[FunctionInfo], bool], *,
                   cross_boundaries: bool = True) -> List[List[str]]:
        """Shortest call paths from ``roots`` to matching functions.

        The reachability query API for rule families: returns one
        ``[root, ..., target]`` qualname chain per reached function for
        which ``predicate(info)`` holds, sorted by target qualname.  A
        root that itself satisfies the predicate yields the one-element
        chain.
        """
        if isinstance(roots, str):
            roots = [roots]
        reached = self.reachable_from(roots,
                                      cross_boundaries=cross_boundaries)
        paths: List[List[str]] = []
        for qualname in sorted(reached):
            info = self.functions.get(qualname)
            if info is not None and predicate(info):
                paths.append(self.call_path(reached, qualname))
        return paths

    def call_path(self, reached: Dict[str, Tuple[Optional[str],
                                                 Optional[ast.AST]]],
                  target: str) -> List[str]:
        """Root → ... → target qualname chain from a reachability map."""
        path = [target]
        current = target
        while True:
            caller, _site = reached.get(current, (None, None))
            if caller is None:
                break
            path.append(caller)
            current = caller
        return list(reversed(path))
