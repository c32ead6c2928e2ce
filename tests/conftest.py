"""Suite-wide fixtures.

The sharded engine's data path allocates ``multiprocessing.
shared_memory`` segments (``/dev/shm/psm_*``); the parent engine is the
single owner and must unlink them on every exit path.  The guards below
fail the suite if any test — including crashed-worker scenarios —
leaves a segment behind, or leaves a child process of the test run
alive (a shard worker, a served subprocess), so a lifecycle regression
cannot hide behind passing functional tests.
"""

import glob
import os

import pytest


def _shm_segments():
    try:
        return {
            name for name in os.listdir("/dev/shm")
            if name.startswith("psm_")
        }
    except FileNotFoundError:  # non-tmpfs platform: nothing to guard
        return set()


_RESOURCE_TRACKER = "from multiprocessing.resource_tracker import main"


def _cmdline(pid):
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return "?"


def _live_children():
    """PIDs of this process's children that have not exited (empty
    where there is no ``/proc``), except multiprocessing's resource
    tracker: one per process, it lives until the test run itself exits."""
    pids = set()
    for path in glob.glob("/proc/self/task/*/children"):
        try:
            with open(path) as handle:
                pids.update(int(pid) for pid in handle.read().split())
        except OSError:  # the thread exited meanwhile
            continue
    live = set()
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                # "pid (comm) state ...": comm may hold spaces/parens
                state = handle.read().rpartition(")")[2].split()[0]
        except OSError:  # reaped meanwhile
            continue
        if state != "Z" and _RESOURCE_TRACKER not in _cmdline(pid):
            live.add(pid)
    return live


@pytest.fixture(autouse=True, scope="session")
def no_leaked_shm_segments():
    before = _shm_segments()
    yield
    leaked = _shm_segments() - before
    assert not leaked, (
        f"test run leaked shared-memory segments: {sorted(leaked)} "
        "(the parent engine owns unlink — see repro/sim/shm.py)"
    )


@pytest.fixture(autouse=True, scope="session")
def no_leaked_child_processes():
    yield
    leaked = _live_children()
    assert not leaked, (
        "test run left child processes alive: "
        + "; ".join(f"{pid}: {_cmdline(pid)}" for pid in sorted(leaked))
    )
