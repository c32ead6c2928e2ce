"""The AST visitor framework: per-module models and the project index.

The rules never re-parse or re-walk source themselves; everything they
need is collected here in one pass per module:

* an **import alias map** (``np`` → ``numpy``, ``perf_counter`` →
  ``time.perf_counter``, relative imports resolved against the module's
  package), so a rule asks "what dotted name does this call resolve
  to?" instead of pattern-matching syntax;
* a **function table** — one :class:`FunctionInfo` per ``def``/method
  with its resolved call sites (the call-graph edges the taint pass
  consumes); nested ``def``\\ s fold into their enclosing function,
  which over-approximates reachability in exactly the conservative
  direction a lint wants;
* an **enclosing-context tag** on every AST node (``Class.method`` /
  ``<module>``), giving findings their line-number-independent
  baseline identity.

Module names are derived from the package structure on disk (walking up
``__init__.py`` chains), so the same engine runs unchanged over
``src/repro`` and over loose fixture files in the test suite.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "Project",
    "parse_module",
]


@dataclass(frozen=True)
class CallSite:
    """One ``Call`` inside a function, pre-resolved for the rules.

    ``resolved`` is the dotted name of the callee when the alias map can
    name it (``"time.perf_counter"``, ``"repro.sim.rng.make_rng"``);
    ``self_attr`` is set for ``self.x(...)`` / ``cls.x(...)`` calls; and
    ``attr_name`` for any other ``obj.x(...)`` attribute call — the
    taint pass turns the latter into conservative same-name edges.
    """

    node: ast.Call
    resolved: Optional[str]
    self_attr: Optional[str]
    attr_name: Optional[str]


@dataclass
class FunctionInfo:
    """One function or method (nested defs folded into their parent)."""

    module: "ModuleInfo"
    name: str  # bare name
    qualname: str  # local, e.g. "ShardedSimulator.advance_epoch"
    full_qualname: str  # e.g. "repro.sim.shard.ShardedSimulator.advance_epoch"
    class_name: Optional[str]  # enclosing class (local name), if a method
    node: ast.AST
    calls: List[CallSite] = field(default_factory=list)
    nested_defs: List[str] = field(default_factory=list)


@dataclass
class ClassInfo:
    module: "ModuleInfo"
    name: str
    full_qualname: str
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)  # resolved dotted, best effort
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)


class ModuleInfo:
    """One parsed source file: tree, lines, aliases, functions, classes."""

    def __init__(self, path: Path, root: Path) -> None:
        self.path = path
        self.relpath = path.relative_to(root).as_posix()
        self.source = path.read_text(encoding="utf-8")
        self.lines = self.source.splitlines()
        self.tree = ast.parse(self.source, filename=str(path))
        self.name = _module_name(path)
        self.aliases: Dict[str, str] = {}
        self.toplevel: Dict[str, str] = {}  # local name -> "def" | "class"
        self.functions: List[FunctionInfo] = []
        self.classes: List[ClassInfo] = []
        _collect(self)

    # -- resolution ----------------------------------------------------
    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted name of an expression, via the alias map (or ``None``).

        ``Name`` hits the alias map first, then the module's own
        top-level defs/classes (as ``<module>.<name>``).  ``Attribute``
        chains resolve their base and append.
        """
        if isinstance(node, ast.Name):
            if node.id in self.aliases:
                return self.aliases[node.id]
            if node.id in self.toplevel:
                return f"{self.name}.{node.id}"
            return None
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None

    def line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def context_of(self, node: ast.AST) -> str:
        return getattr(node, "_lint_context", "<module>")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ModuleInfo({self.name!r}, {self.relpath!r})"


def _module_name(path: Path) -> str:
    """Dotted module name from the on-disk package structure.

    Walks up while ``__init__.py`` siblings exist, so
    ``src/repro/sim/rng.py`` → ``repro.sim.rng`` regardless of the scan
    root, and a loose fixture file is just its stem.
    """
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        if parent.parent == parent:
            break
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


def _package_of(module_name: str, path: Path) -> str:
    """The package a module lives in (itself, for ``__init__.py``)."""
    if path.stem == "__init__":
        return module_name
    return module_name.rpartition(".")[0]


def _record_imports(info: ModuleInfo, node: ast.AST) -> None:
    if isinstance(node, ast.Import):
        for alias in node.names:
            local = alias.asname or alias.name.partition(".")[0]
            target = alias.name if alias.asname else alias.name.partition(".")[0]
            info.aliases[local] = target
    elif isinstance(node, ast.ImportFrom):
        if node.level:
            package = _package_of(info.name, info.path)
            for _ in range(node.level - 1):
                package = package.rpartition(".")[0]
            base = f"{package}.{node.module}" if node.module else package
        else:
            base = node.module or ""
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            info.aliases[local] = f"{base}.{alias.name}" if base else alias.name


class _Collector(ast.NodeVisitor):
    """One pass: imports, scope tags, function/class tables, call sites."""

    def __init__(self, info: ModuleInfo) -> None:
        self.info = info
        self.scope: List[str] = []  # local qualname parts
        self.class_stack: List[ClassInfo] = []
        self.function_stack: List[FunctionInfo] = []

    # every visited node gets its enclosing context stamped on it
    def visit(self, node: ast.AST) -> None:
        node._lint_context = ".".join(self.scope) or "<module>"
        super().visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        _record_imports(self.info, node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        _record_imports(self.info, node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if not self.scope:
            self.info.toplevel[node.name] = "class"
        cls = ClassInfo(
            module=self.info,
            name=node.name,
            full_qualname=f"{self.info.name}.{node.name}",
            node=node,
            bases=[b for b in map(self.info.resolve, node.bases) if b],
        )
        self.info.classes.append(cls)
        self.class_stack.append(cls)
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()
        self.class_stack.pop()

    def _visit_function(self, node) -> None:
        if not self.scope:
            self.info.toplevel[node.name] = "def"
        if self.function_stack:
            # Nested def: calls fold into the enclosing function (the
            # conservative over-approximation the taint pass wants).
            self.function_stack[-1].nested_defs.append(node.name)
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()
            return
        in_class = bool(self.class_stack) and \
            self.scope[-1:] == [self.class_stack[-1].name]
        qualname = ".".join(self.scope + [node.name])
        func = FunctionInfo(
            module=self.info,
            name=node.name,
            qualname=qualname,
            full_qualname=f"{self.info.name}.{qualname}",
            class_name=self.class_stack[-1].name if in_class else None,
            node=node,
        )
        self.info.functions.append(func)
        if in_class:
            self.class_stack[-1].methods[node.name] = func
        self.function_stack.append(func)
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()
        self.function_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Call(self, node: ast.Call) -> None:
        if self.function_stack:
            func = self.function_stack[-1]
            resolved = self.info.resolve(node.func)
            self_attr = None
            attr_name = None
            if isinstance(node.func, ast.Attribute):
                attr_name = node.func.attr
                base = node.func.value
                if isinstance(base, ast.Name) and base.id in ("self", "cls"):
                    self_attr = node.func.attr
            func.calls.append(
                CallSite(
                    node=node,
                    resolved=resolved,
                    self_attr=self_attr,
                    attr_name=attr_name,
                )
            )
        self.generic_visit(node)


def _collect(info: ModuleInfo) -> None:
    _Collector(info).visit(info.tree)


def parse_module(path: Path, root: Path) -> ModuleInfo:
    return ModuleInfo(path, root)


class Project:
    """Every parsed module under the scan roots, with cross-module indexes."""

    def __init__(self, roots: Sequence[Path]) -> None:
        self.roots = [Path(r) for r in roots]
        self.modules: List[ModuleInfo] = []
        self.errors: List[Tuple[str, str]] = []  # (path, parse error)
        for root in self.roots:
            files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
            base = root if root.is_dir() else root.parent
            for path in files:
                if "__pycache__" in path.parts:
                    continue
                try:
                    self.modules.append(parse_module(path, base))
                except (SyntaxError, UnicodeDecodeError) as exc:
                    self.errors.append((str(path), str(exc)))
        self.functions: Dict[str, FunctionInfo] = {}
        self.by_name: Dict[str, List[FunctionInfo]] = {}
        self.methods_by_name: Dict[str, List[FunctionInfo]] = {}
        self.classes: Dict[str, ClassInfo] = {}
        for module in self.modules:
            for func in module.functions:
                self.functions[func.full_qualname] = func
                self.by_name.setdefault(func.name, []).append(func)
                if func.class_name is not None:
                    self.methods_by_name.setdefault(func.name, []).append(func)
            for cls in module.classes:
                self.classes[cls.full_qualname] = cls
        #: base qualname -> the project's classes deriving from it directly
        self.subclasses: Dict[str, List[ClassInfo]] = {}
        for cls in self.classes.values():
            for base in cls.bases:
                self.subclasses.setdefault(base, []).append(cls)

    @property
    def file_count(self) -> int:
        return len(self.modules)

    def callee(self, dotted: str) -> List[FunctionInfo]:
        """Functions a resolved dotted name can denote.

        A function qualname matches directly; a class name becomes an
        edge to its ``__init__`` (constructing is calling).
        """
        func = self.functions.get(dotted)
        if func is not None:
            return [func]
        cls = self.classes.get(dotted)
        if cls is not None and "__init__" in cls.methods:
            return [cls.methods["__init__"]]
        return []
