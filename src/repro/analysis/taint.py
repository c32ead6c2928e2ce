"""The call-graph / taint pass: DET002 (wall clock) and DET003 (sets).

Both rules care about the same thing — code that can execute while an
*artifact* is being produced.  The artifact-producing entry points are
the engine protocol's ``advance_epoch`` / ``result`` and the sweep's
``run_cell`` (configurable); everything reachable from them through a
module-level call graph is "artifact path", and inside that region a
wall-clock read taints the artifact (DET002) while an unordered
``set`` iteration / reduction taints its float-reduction order
(DET003).

The graph is deliberately conservative:

* resolved dotted calls (``module.func(...)``, imported names,
  constructors → ``__init__``) become precise edges;
* ``self.x(...)`` edges to the defining class's ``x`` and to every
  override of ``x`` in the project's subclasses of that class
  (transitively, so an ``EpochLoop`` hook reaches each engine's
  implementation); without a defining-class ``x`` it edges to every
  method named ``x`` in the project;
* any other ``obj.x(...)`` attribute call edges to *every* method named
  ``x`` in the project (methods only — plain functions are not
  reachable through an attribute).

Over-approximation yields false positives, never false negatives; a
reviewed site is sanctioned with the inline pragma
(``# lint: allow[<rule>] reason``).  ``src/`` carries no DET002 pragma:
wall time *about* a run — the sweep's ``.runinfo`` sidecar, the shard
workers' kernel CPU seconds — is read off the artifact path, and
``perfbench/`` times the engines by wrapping them from outside.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import Dict, Iterator, List, Set, Tuple

from repro.analysis.model import Finding, Rule
from repro.analysis.rules import LintConfig
from repro.analysis.visitor import FunctionInfo, Project

__all__ = ["DET002", "DET003", "WALL_CLOCK", "build_call_graph", "taint_rules"]

#: Dotted names whose return value depends on when (or on what machine)
#: the call runs.  ``process_time`` counts: CPU seconds are just as
#: nondeterministic as wall seconds if they leak into an artifact.
WALL_CLOCK = frozenset({
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})


def _overrides(
    project: Project, cls_qual: str, name: str
) -> List[FunctionInfo]:
    """Method ``name`` as redefined in the project's subclasses of
    ``cls_qual``, transitively (template-method hooks)."""
    out: List[FunctionInfo] = []
    seen: Set[str] = set()
    pending = list(project.subclasses.get(cls_qual, ()))
    while pending:
        sub = pending.pop()
        if sub.full_qualname in seen:
            continue
        seen.add(sub.full_qualname)
        if name in sub.methods:
            out.append(sub.methods[name])
        pending.extend(project.subclasses.get(sub.full_qualname, ()))
    return out


def _edges(project: Project, func: FunctionInfo) -> List[FunctionInfo]:
    """Conservative call edges out of one function."""
    out: List[FunctionInfo] = []
    for site in func.calls:
        if site.resolved is not None:
            targets = project.callee(site.resolved)
            if targets:
                out.extend(targets)
                continue
        if site.self_attr is not None:
            name = site.self_attr
            own = None
            if func.class_name is not None:
                cls_qual = f"{func.module.name}.{func.class_name}"
                cls = project.classes.get(cls_qual)
                if cls is not None and name in cls.methods:
                    own = cls.methods[name]
            if own is not None:
                out.append(own)
                out.extend(_overrides(project, cls_qual, name))
            else:
                # unresolved self-call (inherited / dynamically bound):
                # conservatively edge to every same-named method
                out.extend(project.methods_by_name.get(name, ()))
            continue
        if site.attr_name is not None:
            out.extend(project.methods_by_name.get(site.attr_name, ()))
    return out


def build_call_graph(
    project: Project, config: LintConfig
) -> Tuple[Set[str], Dict[str, str]]:
    """Functions reachable from the artifact entry points.

    Returns ``(reachable qualnames, via)`` where ``via[f]`` is ``f``'s
    predecessor on a shortest path from an entry point — enough to
    print a human-readable taint trace in every finding.
    """
    entries = [
        func
        for func in project.functions.values()
        if func.name in config.entry_points
    ]
    reachable: Set[str] = set()
    via: Dict[str, str] = {}
    queue = deque()
    for entry in entries:
        if entry.full_qualname not in reachable:
            reachable.add(entry.full_qualname)
            queue.append(entry)
    while queue:
        func = queue.popleft()
        for target in _edges(project, func):
            if target.full_qualname in reachable:
                continue
            reachable.add(target.full_qualname)
            via[target.full_qualname] = func.full_qualname
            queue.append(target)
    return reachable, via


def _trace(via: Dict[str, str], qualname: str, limit: int = 6) -> str:
    """``entry -> ... -> qualname`` (shortest path, short names)."""
    chain = [qualname]
    while chain[-1] in via and len(chain) < limit:
        chain.append(via[chain[-1]])
    parts = [q.rpartition(".")[2] if "." in q else q for q in reversed(chain)]
    return " -> ".join(parts)


def _function_finding(
    func: FunctionInfo, node: ast.AST, rule: Rule, message: str
) -> Finding:
    module = func.module
    return Finding(
        path=module.relpath,
        line=node.lineno,
        col=node.col_offset,
        rule=rule.rule_id,
        message=message,
        hint=rule.hint,
        context=module.context_of(node),
        snippet=module.line(node.lineno).strip(),
    )


# ----------------------------------------------------------------------
# DET002 — wall-clock taint on artifact paths
# ----------------------------------------------------------------------

def _check_det002(project: Project, config: LintConfig) -> Iterator[Finding]:
    reachable, via = build_call_graph(project, config)
    for func in project.functions.values():
        if func.full_qualname not in reachable:
            continue
        for site in func.calls:
            if site.resolved not in WALL_CLOCK:
                continue
            trace = _trace(via, func.full_qualname)
            yield _function_finding(
                func, site.node, DET002,
                f"wall-clock read {site.resolved!r} on an artifact path "
                f"({trace})",
            )


DET002 = Rule(
    rule_id="DET002",
    title="wall-clock taint",
    doc=(
        "Artifacts must be byte-identical across runs and worker "
        "counts; any `time.*` / `datetime.now` value that can flow "
        "from `advance_epoch`/`result`/`run_cell` into a result is "
        "volatile state in a deterministic output. Timing *about* "
        "the run (the sweep's `.runinfo` sidecar, perfbench's "
        "outside-in tracing) lives off the artifact path, never *in* "
        "the artifact."
    ),
    hint=(
        "move timing out of the artifact path (a sidecar, or a wrapper "
        "applied from outside as perfbench does), or sanction a "
        "reviewed site inline with `# lint: allow[<rule>] <why>`"
    ),
)


# ----------------------------------------------------------------------
# DET003 — unordered iteration / reduction on artifact paths
# ----------------------------------------------------------------------

_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
_SET_METHODS = {
    "union", "intersection", "difference", "symmetric_difference",
}


def _local_set_names(node: ast.AST) -> Set[str]:
    """Names assigned a set-typed value anywhere in ``node``'s body."""
    names: Set[str] = set()
    # two passes so `a = set(); b = a | other` resolves
    for _ in range(2):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign):
                if _is_setish(sub.value, names):
                    for target in sub.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
            elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
                if _is_setish(sub.value, names) and isinstance(
                    sub.target, ast.Name
                ):
                    names.add(sub.target.id)
    return names


def _is_setish(node: ast.AST, local_sets: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in local_sets
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
        return _is_setish(node.left, local_sets) or _is_setish(
            node.right, local_sets
        )
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in (
            "set", "frozenset"
        ):
            return True
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _SET_METHODS
            and _is_setish(node.func.value, local_sets)
        ):
            return True
    return False


def _check_det003(project: Project, config: LintConfig) -> Iterator[Finding]:
    reachable, via = build_call_graph(project, config)
    for func in project.functions.values():
        if func.full_qualname not in reachable:
            continue
        local_sets = _local_set_names(func.node)
        trace = _trace(via, func.full_qualname)

        def flag(node: ast.AST, what: str):
            return _function_finding(
                func, node, DET003,
                f"{what} on an artifact path ({trace})",
            )

        for node in ast.walk(func.node):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_setish(node.iter, local_sets):
                    yield flag(node, "iteration over an unordered set")
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                                   ast.DictComp)):
                for gen in node.generators:
                    if _is_setish(gen.iter, local_sets):
                        yield flag(
                            node, "comprehension over an unordered set"
                        )
            elif isinstance(node, ast.Call):
                reducer = None
                if isinstance(node.func, ast.Name) and node.func.id == "sum":
                    reducer = "sum()"
                else:
                    dotted = func.module.resolve(node.func)
                    if dotted in ("math.fsum", "numpy.sum", "numpy.mean"):
                        reducer = dotted
                if (
                    reducer
                    and node.args
                    and _is_setish(node.args[0], local_sets)
                ):
                    yield flag(
                        node, f"float reduction {reducer} over an "
                        f"unordered set"
                    )


DET003 = Rule(
    rule_id="DET003",
    title="unordered merge iteration",
    doc=(
        "Float addition is not associative: summing or iterating a "
        "`set` in a merge/reduction that feeds an artifact makes the "
        "result depend on hash-iteration order, which varies across "
        "interpreters and inputs. Every reduction on an artifact path "
        "must impose an explicit order (`sorted(...)`, fixed shard "
        "order) before accumulating."
    ),
    hint="wrap the iterable in sorted(...) (or reduce in fixed index order)",
)


DET002.check = _check_det002
DET003.check = _check_det003


def taint_rules():
    return (DET002, DET003)
