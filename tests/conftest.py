"""Suite-wide fixtures.

The guards below fail the suite if any test — including crashed-worker
scenarios — leaves a child process of the test run alive (a shard
worker, a served subprocess, a multiprocessing helper), a pipe or
socket open, a thread running, or a ``multiprocessing.shared_memory``
segment (``/dev/shm/psm_*``; nothing in ``src/`` creates one)
behind, so a lifecycle regression cannot hide behind passing
functional tests.
"""

import glob
import os
import threading

import pytest


def _shm_segments():
    try:
        return {
            name for name in os.listdir("/dev/shm")
            if name.startswith("psm_")
        }
    except FileNotFoundError:  # non-tmpfs platform: nothing to guard
        return set()


def _cmdline(pid):
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return "?"


def _live_children():
    """PIDs of this process's children that have not exited (empty
    where there is no ``/proc``)."""
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
        if state != "Z":
            live.add(pid)
    return live


@pytest.fixture(autouse=True, scope="session")
def no_leaked_shm_segments():
    before = _shm_segments()
    yield
    leaked = _shm_segments() - before
    assert not leaked, (
        f"test run leaked shared-memory segments: {sorted(leaked)}"
    )


@pytest.fixture(autouse=True, scope="session")
def no_leaked_child_processes():
    yield
    leaked = _live_children()
    assert not leaked, (
        "test run left child processes alive: "
        + "; ".join(f"{pid}: {_cmdline(pid)}" for pid in sorted(leaked))
    )


def _pipes_and_sockets():
    """This process's open pipe and socket fds, as ``fd -> target``
    (empty where there is no ``/proc``)."""
    open_fds = {}
    for fd in glob.glob("/proc/self/fd/*"):
        try:
            target = os.readlink(fd)
        except OSError:  # the listing's own fd, closed meanwhile
            continue
        if target.startswith(("pipe:", "socket:")):
            open_fds[int(os.path.basename(fd))] = target
    return open_fds


@pytest.fixture(autouse=True, scope="session")
def no_leaked_fds_or_threads():
    fds_before = _pipes_and_sockets()
    threads_before = set(threading.enumerate())
    yield
    leaked_fds = sorted(
        f"{fd}: {target}" for fd, target in _pipes_and_sockets().items()
        if fds_before.get(fd) != target
    )
    assert not leaked_fds, f"test run left pipes or sockets open: {leaked_fds}"
    leaked_threads = [
        thread.name for thread in threading.enumerate()
        if thread not in threads_before
    ]
    assert not leaked_threads, (
        f"test run left threads running: {leaked_threads}"
    )
