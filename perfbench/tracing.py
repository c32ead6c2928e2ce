"""Span tracing from outside the program: wrap public calls, record spans.

A :class:`Tracer` replaces chosen callables (class methods or module
functions) with wrappers that record one span per call — name, start,
end and the span that caused it — into an in-memory list, and restores
every original on :meth:`Tracer.restore`.  Nothing under ``src/`` knows
it is being traced.

A layer's *self time* is its spans' duration minus the part covered by
their child spans, so self times of all spans add up to the duration of
the root spans exactly; :func:`reconcile` compares that with the wall
clock the harness measured around the whole run.

Worker processes forked by the sharded engine inherit the wrappers but
not the span list; the wrappers pass straight through in any process
other than the one that installed them.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

#: Top-level groups of the reconciliation, by span name.  Every span
#: under the harness's ``setup`` span counts as set-up; ``api.result``
#: is the result group; the rest of each epoch splits by self time.
GROUPS = {
    "kernel": (
        "sim.shard.start", "sim.shard.roundtrip", "sim.shard.advance",
        "vod.multi.", "vod.simulator.", "vod.delivery.",
    ),
    "merge": ("sim.shard.merge", "sim.shm.read"),
    "controller": ("core.", "cloud.", "vod.tracker.close"),
    "tracker": ("vod.tracker.absorb",),
    "epoch": ("api.advance", "sim.shard.epoch", "experiments.runner."),
}

#: Largest accepted |traced wall - sum of top-level groups| / traced wall.
RECONCILE_TOLERANCE = 0.02


class Tracer:
    """Records spans of wrapped calls made in the installing process."""

    def __init__(self) -> None:
        # One [name, start, end, parent_index] per span, in start order.
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        self._patches: List[tuple] = []
        self._pid = os.getpid()

    # -- spans ---------------------------------------------------------
    def _open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent])

    def _close(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        """A span around a block of the harness's own code."""
        self._open(name)
        try:
            yield
        finally:
            self._close()

    # -- wrapping ------------------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        *,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(args)`` runs ahead of the call (outside the span) and
        its return value is handed to ``after(token, args, result)``,
        which runs once the span has closed — hooks for counters.
        """
        original = vars(owner).get(attr)
        fn = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            token = before(args) if before is not None else None
            tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close()
            if after is not None:
                after(token, args, out)
            return out

        traced.__wrapped__ = fn
        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put back every wrapped callable (newest first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------
    def _self_seconds(self) -> List[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_times(self) -> Dict[str, float]:
        """Self seconds per span name."""
        out: Dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self._self_seconds()):
            out[span[0]] += own
        return dict(out)

    def totals(self, name: str) -> List[float]:
        """Durations of every span called ``name``."""
        return [end - start for n, start, end, _ in self.spans if n == name]


def _group_of(name: str) -> str:
    for group, prefixes in GROUPS.items():
        if any(name == p or (p.endswith(".") and name.startswith(p))
               for p in prefixes):
            return group
    return "other"


def reconcile(tracer: Tracer, wall: float) -> Dict[str, float]:
    """Top-level groups of a traced run and their error against ``wall``.

    ``setup`` and ``result`` are their root spans' durations; the epochs
    split by self time into kernel, merge, controller, tracker and
    epoch (the epoch loop's own code in the api and the engine).  The
    groups add up to the root spans by construction, so the error
    measures the harness time no span covers.
    """
    groups: Dict[str, float] = defaultdict(float)
    root_of: List[str] = []
    for (name, _, _, parent), own in zip(tracer.spans, tracer._self_seconds()):
        root = name if parent < 0 else root_of[parent]
        root_of.append(root)
        if root == "setup":
            group = "setup"
        elif root == "api.result":
            group = "result"
        else:
            group = _group_of(name)
        groups[group] += own
    total = sum(groups.values())
    out = {f"group.{k}_s": v for k, v in sorted(groups.items())}
    out["trace.wall_s"] = wall
    out["trace.reconcile_error"] = abs(wall - total) / wall if wall else 0.0
    return out
