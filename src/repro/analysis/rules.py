"""Per-rule checkers: the syntactic half of the rule pack.

DET001 (raw RNG), DET004 (environment reads), RES001 (``SharedMemory``
lifecycle) and CKP001 (unpicklable checkpoint attributes) are local —
one module at a time, no call graph.  The reachability rules DET002 /
DET003 live in :mod:`repro.analysis.taint`.

Sanctioned locations are configured by path suffix / qualname in
:class:`LintConfig` rather than hard-coded inside the checkers, so the
fixture suite exercises the sanctioning logic with its own layouts.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.analysis.model import Finding, Rule
from repro.analysis.visitor import ModuleInfo, Project

__all__ = ["DET001", "DET004", "RES001", "CKP001", "LintConfig", "local_rules"]


@dataclass(frozen=True)
class LintConfig:
    """Where the sanctioned sites live (path suffixes / qualnames)."""

    #: The one module allowed to construct raw numpy / stdlib RNGs.
    rng_modules: Tuple[str, ...] = ("sim/rng.py",)
    #: The module owning the SharedMemory create/unlink lifecycle.
    shm_modules: Tuple[str, ...] = ("sim/shm.py",)
    #: Artifact-producing entry points for the reachability rules.
    entry_points: Tuple[str, ...] = ("advance_epoch", "result", "run_cell")


DEFAULT_CONFIG = LintConfig()


def _sanctioned_path(module: ModuleInfo, suffixes: Tuple[str, ...]) -> bool:
    """Whole-path-component suffix match (``sim/rng.py`` never matches
    ``mock_sim/wrong_rng.py``), relative to any scan root."""
    parts = module.relpath.split("/")
    for suffix in suffixes:
        want = suffix.split("/")
        if parts[-len(want):] == want:
            return True
    return False


def _finding(
    module: ModuleInfo, node: ast.AST, rule: Rule, message: str, hint: str = ""
) -> Finding:
    return Finding(
        path=module.relpath,
        line=node.lineno,
        col=node.col_offset,
        rule=rule.rule_id,
        message=message,
        hint=hint or rule.hint,
        context=module.context_of(node),
        snippet=module.line(node.lineno).strip(),
    )


# ----------------------------------------------------------------------
# DET001 — raw RNG construction / draws outside sim/rng.py
# ----------------------------------------------------------------------

def _check_det001(project: Project, config: LintConfig) -> Iterator[Finding]:
    for module in project.modules:
        if _sanctioned_path(module, config.rng_modules):
            continue
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = module.resolve(node.func)
            if dotted is None:
                continue
            if dotted.startswith("numpy.random."):
                yield _finding(
                    module, node, DET001,
                    f"raw numpy RNG call {dotted!r} outside the rng module",
                )
            elif dotted == "random" or dotted.startswith("random."):
                yield _finding(
                    module, node, DET001,
                    f"stdlib random call {dotted!r} outside the rng module",
                )


DET001 = Rule(
    rule_id="DET001",
    title="raw RNG construction",
    doc=(
        "Every stochastic draw must come from a named, seed-derived "
        "stream (`make_rng` / `RandomStreams`); a raw "
        "`np.random.default_rng()`, direct `np.random.<dist>` call or "
        "stdlib `random.*` use creates a stream the experiment seed "
        "does not control, silently breaking bit-reproducibility."
    ),
    hint=(
        "route the draw through repro.sim.rng.make_rng(seed, ...) or a "
        "RandomStreams named stream (accept an rng/seed parameter "
        "instead of constructing one)"
    ),
)


# ----------------------------------------------------------------------
# DET004 — environment reads
# ----------------------------------------------------------------------

def _check_det004(project: Project, _config: LintConfig) -> Iterator[Finding]:
    for module in project.modules:
        for node in ast.walk(module.tree):
            dotted = None
            if isinstance(node, (ast.Attribute, ast.Name)):
                dotted = module.resolve(node)
                # flag the environ object itself exactly once, not the
                # `.get` attribute hanging off it as well
                if dotted not in ("os.environ", "os.environb"):
                    dotted = None
            elif isinstance(node, ast.Call):
                resolved = module.resolve(node.func)
                if resolved in ("os.getenv", "os.putenv"):
                    dotted = resolved
            if dotted is None:
                continue
            yield _finding(
                module, node, DET004,
                f"environment read {dotted!r}",
            )


DET004 = Rule(
    rule_id="DET004",
    title="stray environment reads",
    doc=(
        "Configuration must flow through explicit config objects; an "
        "environment read buried in engine code makes results depend "
        "on ambient shell state that is invisible to the cell hash and "
        "the checkpoint. No module is sanctioned to read it."
    ),
    hint=(
        "thread the value through the config/spec instead of reading "
        "the environment at use site"
    ),
)


# ----------------------------------------------------------------------
# RES001 — SharedMemory lifecycle
# ----------------------------------------------------------------------

def _shm_calls(module: ModuleInfo):
    """(node, creates) for every ``SharedMemory(...)`` construction."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = module.resolve(node.func)
        if dotted is None or not dotted.endswith("shared_memory.SharedMemory"):
            continue
        creates = any(
            kw.arg == "create"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
            for kw in node.keywords
        )
        yield node, creates


def _scope_unlinks(module: ModuleInfo, context_prefix: str) -> bool:
    """Does any code under ``context_prefix`` call ``<x>.unlink()``?"""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        if not (isinstance(node.func, ast.Attribute) and node.func.attr == "unlink"):
            continue
        context = module.context_of(node)
        if context == context_prefix or context.startswith(context_prefix + "."):
            return True
    return False


def _check_res001(project: Project, config: LintConfig) -> Iterator[Finding]:
    for module in project.modules:
        owner = _sanctioned_path(module, config.shm_modules)
        for node, creates in _shm_calls(module):
            context = module.context_of(node)
            if creates:
                if not owner:
                    yield _finding(
                        module, node, RES001,
                        "SharedMemory segment created outside the owner "
                        "module",
                        hint=(
                            "allocate epoch segments through "
                            "repro.sim.shm.ParentSegment (parent-owned "
                            "create/unlink lifecycle)"
                        ),
                    )
                    continue
                # the creating scope (class, else function) must also
                # unlink on some path
                scope = context.split(".")[0] if context != "<module>" else context
                if scope == "<module>" or not _scope_unlinks(module, scope):
                    yield _finding(
                        module, node, RES001,
                        "SharedMemory create without a paired unlink in "
                        "the owning scope",
                        hint=(
                            "every create=True needs an unlink on all "
                            "paths (idempotent close(); see "
                            "ParentSegment.close)"
                        ),
                    )
            else:
                # attach-only site: the attaching scope must never unlink
                scope = context.split(".")[0] if context != "<module>" else context
                if scope != "<module>" and _scope_unlinks(module, scope):
                    yield _finding(
                        module, node, RES001,
                        "attach-only SharedMemory scope also calls "
                        "unlink()",
                        hint=(
                            "workers only close() their mapping; the "
                            "parent is the sole unlinker (sim/shm.py "
                            "contract)"
                        ),
                    )


RES001 = Rule(
    rule_id="RES001",
    title="SharedMemory lifecycle",
    doc=(
        "The engine's epoch plane is one parent-owned shared segment: "
        "the parent creates and unconditionally unlinks it; workers "
        "attach and only ever close their mapping. A create without a "
        "paired unlink leaks /dev/shm across crashed runs; a worker "
        "that unlinks races the parent's crash-safety net."
    ),
    hint="follow the sim/shm.py contract (ParentSegment / attach_segment)",
)


# ----------------------------------------------------------------------
# CKP001 — unpicklable attributes on checkpoint-state classes
# ----------------------------------------------------------------------

def _check_ckp001(project: Project, config: LintConfig) -> Iterator[Finding]:
    for module in project.modules:
        for func in module.functions:
            if func.class_name is None:
                continue
            nested = set(func.nested_defs)
            for node in ast.walk(func.node):
                if not isinstance(node, ast.Assign):
                    continue
                is_self_attr = any(
                    isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "self"
                    for t in node.targets
                )
                if not is_self_attr:
                    continue
                value = node.value
                bad = None
                if isinstance(value, ast.Lambda):
                    bad = "a lambda"
                elif isinstance(value, ast.Name) and value.id in nested:
                    bad = f"the local closure {value.id!r}"
                if bad is not None:
                    yield _finding(
                        module, node, CKP001,
                        f"{bad} assigned to an instance attribute "
                        f"(unpicklable checkpoint state)",
                    )


CKP001 = Rule(
    rule_id="CKP001",
    title="unpicklable checkpoint attributes",
    doc=(
        "Engine state graphs are pickled whole by checkpoint()/resume() "
        "(CHECKPOINT_SCHEMA); a lambda or locally-defined closure "
        "assigned to `self.<attr>` makes the instance unpicklable — the "
        "exact bug class the billing clock, `EpochClock`, avoids: a "
        "plain attribute-holding class instead of a closure over the "
        "engine."
    ),
    hint=(
        "use a small module-level class or function instead of a "
        "lambda/closure (cf. EpochClock in sim/loop.py)"
    ),
)


DET001.check = _check_det001
DET004.check = _check_det004
RES001.check = _check_res001
CKP001.check = _check_ckp001


def local_rules():
    return (DET001, DET004, RES001, CKP001)
