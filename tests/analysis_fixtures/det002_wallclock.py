"""DET002 fixture: wall-clock reads reachable from artifact entry
points (``advance_epoch`` / ``result`` / ``run_cell``) are findings;
unreachable timing and pragma-sanctioned sites are not."""

import time
from datetime import datetime
from time import perf_counter


def _stamp():
    # two hops from run_cell: run_cell -> _collect -> _stamp
    return time.time()  # EXPECT[DET002]


def _collect():
    return {"at": _stamp()}


def run_cell(params, seed=0):
    return _collect()


class Engine:
    def advance_epoch(self):
        self._merge()
        self.phase = perf_counter()  # EXPECT[DET002]

    def _merge(self):
        return datetime.now()  # EXPECT[DET002]

    def result(self):
        # sanctioned diagnostics: suppressed by the inline pragma
        started = time.perf_counter()  # lint: allow[DET002] fixture timing
        return started


class LoopBase:
    def advance_epoch(self):
        return self._sample_hook()

    def _sample_hook(self):
        return 0


class LoopEngine(LoopBase):
    # an override of a hook the base's entry point calls is on the path
    def _sample_hook(self):
        return time.time()  # EXPECT[DET002]


def progress_printer():
    # NOT reachable from any entry point: no finding
    return time.monotonic()
