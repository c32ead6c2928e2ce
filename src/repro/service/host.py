"""The async multi-run host: a bounded pool of concurrent engine runs.

:class:`RunHost` owns every run the service executes.  Each admitted
run gets a *driver* coroutine that pushes one
:meth:`repro.api.Run.advance` at a time through a worker thread — the
event loop never blocks on a provisioning epoch, so one host interleaves
many sharded engines (each with its own worker processes) behind a
single asyncio loop.

Run state machine::

    QUEUED ──> RUNNING ──> DONE
                 │  ▲  └──> FAILED
                 ▼  │
               PAUSED ────> (resume)
    any non-terminal ─────> CANCELLED   (DELETE /runs/{id})

Admission is a bounded FIFO: up to ``max_concurrent`` runs execute at
once, up to ``queue_limit`` more wait, and past that :meth:`submit`
raises :class:`QueueFullError` (the HTTP layer's 503 backpressure).
Pause, cancel and checkpoint are *epoch-boundary* operations — the
driver honors them between epochs, which is exactly where the engines
guarantee a clean (checkpointable, byte-identical) cut.  A paused run
is parked via :meth:`repro.api.Run.suspend`, so it holds no worker
processes while it waits.

State directory (crash recovery)
--------------------------------
With a ``state_dir``, every run persists under ``runs/<id>/``:

* ``meta.json`` — id, state, config (``EngineConfig.to_dict()``),
  progress, the artifact sha256;
* ``run.ckpt`` — the latest :meth:`repro.api.Run.checkpoint` (written
  on pause, on explicit request, and every ``checkpoint_every`` epochs);
* ``artifact.json`` — the canonical result document, once DONE;
* ``traceback.txt`` — the full traceback of a FAILED run (``meta.json``
  and the API keep only its one-line ``error``).

On startup the host re-adopts the directory: DONE/FAILED/CANCELLED
runs come back as records (results still served), interrupted runs
re-enter the admission queue — from their checkpoint when one exists,
from scratch otherwise (byte-identical either way, by the engine
determinism contract) — and PAUSED runs come back PAUSED, waiting for
an explicit resume.  A SIGKILLed predecessor leaves nothing else to
reclaim: its shard workers exit on their own once their parent dies.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro import atomic_write
from repro.api import EngineConfig, Run, open_run, resume
from repro.service.artifact import artifact_bytes, result_payload, sha256_hex

__all__ = [
    "RunHost",
    "HostedRun",
    "QueueFullError",
    "UnknownRunError",
    "RUN_STATES",
    "TERMINAL_STATES",
]

QUEUED = "queued"
RUNNING = "running"
PAUSED = "paused"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

RUN_STATES = (QUEUED, RUNNING, PAUSED, DONE, FAILED, CANCELLED)
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})

#: The subscriber-queue sentinel: the stream is over, no more events.
STREAM_END = None


class QueueFullError(RuntimeError):
    """Admission queue at capacity — retry after a run drains."""


class UnknownRunError(KeyError):
    """No run by that id (never submitted, or purged)."""


class HostedRun:
    """One run under host management (host-internal mutable state).

    Everything here is touched only on the event-loop thread; the
    blocking engine work happens in the host's thread pool against the
    :class:`repro.api.Run` handle, one operation at a time per run.
    """

    def __init__(
        self, run_id: str, config: EngineConfig, ring_size: int
    ) -> None:
        self.id = run_id
        self.config = config
        self.state = QUEUED
        self.error: Optional[str] = None
        self.epoch = 0
        self.epochs_total: Optional[int] = None
        self.artifact_sha256: Optional[str] = None
        self.artifact_data: Optional[bytes] = None  # memory-only hosts
        self.resume_from: Optional[Path] = None
        #: Replay ring: the most recent epoch events, for SSE consumers
        #: joining mid-run.
        self.ring: List[Dict[str, Any]] = []
        self.ring_size = ring_size
        self.subscribers: List[asyncio.Queue] = []
        # Driver signalling (all flags honored at epoch boundaries).
        self.task: Optional[asyncio.Task] = None
        self.wake = asyncio.Event()
        self.pause_requested = False
        self.resume_requested = False
        self.cancel_requested = False
        self.checkpoint_waiters: List[asyncio.Future] = []
        self.shutdown_requested = False
        self.terminal = asyncio.Event()

    @property
    def kind(self) -> str:
        return self.config.kind

    def info(self) -> Dict[str, Any]:
        """The status document of ``GET /runs/{id}``."""
        return {
            "id": self.id,
            "kind": self.kind,
            "name": getattr(self.config.spec, "name", None),
            "state": self.state,
            "epoch": self.epoch,
            "epochs_total": self.epochs_total,
            "workers": self.config.resolved_workers(),
            "error": self.error,
            "artifact_sha256": self.artifact_sha256,
        }


class RunHost:
    """A bounded pool of concurrent engine runs behind one event loop.

    Parameters
    ----------
    max_concurrent:
        Runs executing at once; further admissions wait in FIFO order.
    queue_limit:
        Waiting runs beyond the executing pool; past this,
        :meth:`submit` raises :class:`QueueFullError` (backpressure).
    state_dir:
        Directory for checkpoints/metadata/artifacts.  ``None`` keeps
        everything in memory (no crash recovery, artifacts held on the
        heap).
    checkpoint_every:
        Auto-checkpoint period in *epochs* (0 disables).  Epoch counts,
        not wall clock, so the cadence is as deterministic as the runs.
    ring_size:
        Epoch events retained per run for mid-run SSE replay.
    """

    def __init__(
        self,
        *,
        max_concurrent: int = 4,
        queue_limit: int = 16,
        state_dir: Optional[Union[str, os.PathLike]] = None,
        checkpoint_every: int = 0,
        ring_size: int = 1024,
    ) -> None:
        self.max_concurrent = max(1, int(max_concurrent))
        self.queue_limit = max(0, int(queue_limit))
        self.checkpoint_every = max(0, int(checkpoint_every))
        self.ring_size = max(1, int(ring_size))
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self._runs: Dict[str, HostedRun] = {}
        self._queue: List[str] = []
        self._active = 0
        self._counter = 0
        self._pool: Optional[ThreadPoolExecutor] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "RunHost":
        """Create the worker pool and re-adopt any state directory."""
        self._pool = ThreadPoolExecutor(
            max_workers=self.max_concurrent + 2,
            thread_name_prefix="repro-run",
        )
        if self.state_dir is not None:
            (self.state_dir / "runs").mkdir(parents=True, exist_ok=True)
            self._adopt_state_dir()
        self._dispatch()
        return self

    async def close(self) -> None:
        """Drain the host: park every live run, then stop the pool.

        Running runs are checkpointed (when a state dir exists) and
        re-marked QUEUED in their metadata, so the next host on the
        same state dir resumes them; queued runs simply stay QUEUED.
        This is the graceful half of the crash-recovery contract — the
        SIGKILL half is :meth:`start`'s adoption pass.
        """
        if self._closed:
            return
        self._closed = True
        self._queue = []
        tasks = []
        for hosted in self._runs.values():
            if hosted.task is not None:
                hosted.shutdown_requested = True
                hosted.wake.set()
                tasks.append(hosted.task)
        for task in tasks:
            try:
                await task
            except asyncio.CancelledError:  # pragma: no cover - defensive
                pass
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(self, config: EngineConfig) -> str:
        """Admit a run; returns its id (raises when the queue is full)."""
        if self._closed:
            raise RuntimeError("the host is shut down")
        if not isinstance(config, EngineConfig):
            raise TypeError(
                f"submit() needs an EngineConfig, got {type(config).__name__}"
            )
        if (
            self._active >= self.max_concurrent
            and len(self._queue) >= self.queue_limit
        ):
            raise QueueFullError(
                f"{self._active} runs executing and {len(self._queue)} "
                f"waiting (queue limit {self.queue_limit}); retry later"
            )
        self._counter += 1
        run_id = f"r{self._counter:04d}"
        hosted = HostedRun(run_id, config, self.ring_size)
        self._runs[run_id] = hosted
        self._persist_meta(hosted)
        self._queue.append(run_id)
        self._dispatch()
        return run_id

    def _dispatch(self) -> None:
        """Start drivers while slots and queued runs remain."""
        while self._queue and self._active < self.max_concurrent:
            hosted = self._runs[self._queue.pop(0)]
            if hosted.cancel_requested:
                self._set_state(hosted, CANCELLED)
                self._end_stream(hosted)
                continue
            self._active += 1
            hosted.task = asyncio.get_running_loop().create_task(
                self._drive(hosted)
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _get(self, run_id: str) -> HostedRun:
        try:
            return self._runs[run_id]
        except KeyError:
            raise UnknownRunError(run_id) from None

    def runs(self) -> List[Dict[str, Any]]:
        return [hosted.info() for hosted in self._runs.values()]

    def run_info(self, run_id: str) -> Dict[str, Any]:
        return self._get(run_id).info()

    def artifact(self, run_id: str) -> bytes:
        """The canonical result document of a DONE run (its exact bytes)."""
        hosted = self._get(run_id)
        if hosted.state != DONE:
            raise RuntimeError(
                f"run {run_id} is {hosted.state}, not {DONE}"
            )
        if hosted.artifact_data is not None:
            return hosted.artifact_data
        path = self._run_dir(hosted.id) / "artifact.json"
        return path.read_bytes()

    async def wait(self, run_id: str) -> str:
        """Block until the run reaches a terminal state; returns it."""
        hosted = self._get(run_id)
        await hosted.terminal.wait()
        return hosted.state

    # ------------------------------------------------------------------
    # Control plane (pause / resume / checkpoint / cancel)
    # ------------------------------------------------------------------
    def pause(self, run_id: str) -> None:
        """Request a pause at the next epoch boundary (RUNNING only)."""
        hosted = self._get(run_id)
        if hosted.state != RUNNING:
            raise RuntimeError(
                f"can only pause a {RUNNING} run (run {run_id} is "
                f"{hosted.state})"
            )
        hosted.pause_requested = True
        hosted.wake.set()

    def resume_run(self, run_id: str) -> None:
        """Resume a PAUSED run (live driver or re-adopted checkpoint)."""
        hosted = self._get(run_id)
        if hosted.state != PAUSED:
            raise RuntimeError(
                f"can only resume a {PAUSED} run (run {run_id} is "
                f"{hosted.state})"
            )
        if hosted.task is not None:
            hosted.resume_requested = True
            hosted.wake.set()
        else:
            # Adopted from a previous host's state dir: re-enter the
            # admission queue (resume_from already points at the ckpt).
            hosted.state = QUEUED
            self._persist_meta(hosted)
            self._publish_state(hosted)
            self._queue.append(run_id)
            self._dispatch()

    def request_checkpoint(self, run_id: str) -> "asyncio.Future[str]":
        """Checkpoint at the next epoch boundary; resolves to the path."""
        if self.state_dir is None:
            raise RuntimeError(
                "checkpointing needs a state dir (start the host/serve "
                "with --state-dir)"
            )
        hosted = self._get(run_id)
        if hosted.state not in (RUNNING, PAUSED):
            raise RuntimeError(
                f"can only checkpoint a {RUNNING} or {PAUSED} run "
                f"(run {run_id} is {hosted.state})"
            )
        future: "asyncio.Future[str]" = (
            asyncio.get_running_loop().create_future()
        )
        hosted.checkpoint_waiters.append(future)
        hosted.wake.set()
        return future

    def cancel(self, run_id: str) -> None:
        """Cancel a non-terminal run; purge the record of a terminal one."""
        hosted = self._get(run_id)
        if hosted.state in TERMINAL_STATES:
            del self._runs[run_id]
            if self.state_dir is not None:
                shutil.rmtree(self._run_dir(run_id), ignore_errors=True)
            return
        hosted.cancel_requested = True
        hosted.wake.set()
        if hosted.task is None and hosted.state in (QUEUED, PAUSED):
            # No driver to honor the flag: settle it here.
            if run_id in self._queue:
                self._queue.remove(run_id)
            self._set_state(hosted, CANCELLED)
            self._end_stream(hosted)

    # ------------------------------------------------------------------
    # SSE subscriptions
    # ------------------------------------------------------------------
    def subscribe(
        self, run_id: str, after: int = 0
    ) -> "tuple[List[Dict[str, Any]], Optional[asyncio.Queue]]":
        """Join a run's event stream.

        Returns ``(replay, queue)``: every retained epoch event with
        index > ``after`` plus a current state event, then — for live
        runs — an :class:`asyncio.Queue` of further events ending with
        the ``STREAM_END`` sentinel.  Terminal runs return ``None`` for
        the queue (the replay is the whole stream).
        """
        hosted = self._get(run_id)
        replay = [
            event for event in hosted.ring if event["data"]["index"] > after
        ]
        replay.append(self._state_event(hosted))
        if hosted.state in TERMINAL_STATES:
            return replay, None
        queue: asyncio.Queue = asyncio.Queue()
        hosted.subscribers.append(queue)
        return replay, queue

    def unsubscribe(self, run_id: str, queue: asyncio.Queue) -> None:
        hosted = self._runs.get(run_id)
        if hosted is not None and queue in hosted.subscribers:
            hosted.subscribers.remove(queue)

    def _publish(self, hosted: HostedRun, event: Dict[str, Any]) -> None:
        if event["event"] == "epoch":
            hosted.ring.append(event)
            if len(hosted.ring) > hosted.ring_size:
                del hosted.ring[: -hosted.ring_size]
        for queue in hosted.subscribers:
            queue.put_nowait(event)

    def _state_event(self, hosted: HostedRun) -> Dict[str, Any]:
        return {
            "event": "state",
            "id": hosted.epoch,
            "data": hosted.info(),
        }

    def _publish_state(self, hosted: HostedRun) -> None:
        self._publish(hosted, self._state_event(hosted))

    def _end_stream(self, hosted: HostedRun) -> None:
        hosted.terminal.set()
        for queue in hosted.subscribers:
            queue.put_nowait(STREAM_END)
        hosted.subscribers = []

    def _set_state(self, hosted: HostedRun, state: str) -> None:
        hosted.state = state
        self._persist_meta(hosted)
        self._publish_state(hosted)

    # ------------------------------------------------------------------
    # The per-run driver
    # ------------------------------------------------------------------
    async def _call(self, fn, *args):
        """Run blocking engine work on the pool."""
        return await asyncio.get_running_loop().run_in_executor(
            self._pool, fn, *args
        )

    async def _drive(self, hosted: HostedRun) -> None:
        run: Optional[Run] = None
        parked = False  # left QUEUED/PAUSED on purpose (shutdown)
        try:
            if hosted.resume_from is not None:
                run = await self._call(resume, hosted.resume_from)
            else:
                run = await self._call(open_run, hosted.config)
            hosted.epochs_total = run.epochs_total
            hosted.epoch = run.epoch
            self._set_state(hosted, RUNNING)
            while True:
                if hosted.cancel_requested:
                    self._set_state(hosted, CANCELLED)
                    return
                if hosted.shutdown_requested:
                    parked = await self._park(hosted, run)
                    return
                if hosted.pause_requested:
                    await self._enter_pause(hosted, run)
                    if hosted.cancel_requested:
                        self._set_state(hosted, CANCELLED)
                        return
                    if hosted.shutdown_requested:
                        parked = True  # already checkpointed by the pause
                        return
                    self._set_state(hosted, RUNNING)
                snapshot = await self._call(run.advance)
                if snapshot is None:
                    break
                hosted.epoch = snapshot.index
                data = snapshot.to_dict()
                data["run"] = hosted.id
                self._publish(
                    hosted,
                    {"event": "epoch", "id": snapshot.index, "data": data},
                )
                if hosted.checkpoint_waiters:
                    await self._checkpoint(hosted, run)
                elif (
                    self.checkpoint_every
                    and self.state_dir is not None
                    and not snapshot.is_final
                    and snapshot.index % self.checkpoint_every == 0
                ):
                    await self._checkpoint(hosted, run)
            await self._call(self._finish, hosted, run)
            self._set_state(hosted, DONE)
        except Exception as exc:  # noqa: BLE001 - a failed run is a state
            hosted.error = f"{type(exc).__name__}: {exc}"
            if self.state_dir is not None:
                atomic_write(
                    self._run_dir(hosted.id) / "traceback.txt",
                    traceback.format_exc().encode(),
                )
            self._set_state(hosted, FAILED)
        finally:
            if run is not None:
                try:
                    await self._call(run.close)
                except Exception:  # pragma: no cover - teardown backstop
                    pass
            self._persist_meta(hosted)
            self._fail_checkpoint_waiters(hosted)
            hosted.task = None
            self._active -= 1
            if not parked:
                self._end_stream(hosted)
            if not self._closed:
                self._dispatch()

    async def _enter_pause(self, hosted: HostedRun, run: Run) -> None:
        """PAUSED: checkpoint (if persistent), park the engine, wait."""
        hosted.pause_requested = False
        if self.state_dir is not None:
            await self._checkpoint(hosted, run)
        await self._call(run.suspend)
        self._set_state(hosted, PAUSED)
        while True:
            if (
                hosted.cancel_requested
                or hosted.resume_requested
                or hosted.shutdown_requested
            ):
                break
            if hosted.checkpoint_waiters:
                # snapshot_state() transparently revives the parked
                # engine; park it again so PAUSED keeps its contract.
                await self._checkpoint(hosted, run)
                await self._call(run.suspend)
                continue
            hosted.wake.clear()
            await hosted.wake.wait()
        hosted.resume_requested = False

    async def _park(self, hosted: HostedRun, run: Run) -> bool:
        """Graceful shutdown: checkpoint and leave the run re-adoptable."""
        if self.state_dir is not None and hosted.state == RUNNING:
            await self._checkpoint(hosted, run)
        if hosted.state == RUNNING:
            hosted.state = QUEUED
            self._persist_meta(hosted)
        return True

    async def _checkpoint(self, hosted: HostedRun, run: Run) -> None:
        waiters = hosted.checkpoint_waiters
        hosted.checkpoint_waiters = []
        path = self._run_dir(hosted.id) / "run.ckpt"
        try:
            await self._call(run.checkpoint, path)
        except Exception as exc:
            for waiter in waiters:
                if not waiter.done():
                    waiter.set_exception(exc)
            raise
        hosted.resume_from = path
        self._persist_meta(hosted)
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(str(path))

    def _fail_checkpoint_waiters(self, hosted: HostedRun) -> None:
        waiters = hosted.checkpoint_waiters
        hosted.checkpoint_waiters = []
        for waiter in waiters:
            if not waiter.done():
                waiter.set_exception(
                    RuntimeError(f"run {hosted.id} ended before checkpoint")
                )

    def _finish(self, hosted: HostedRun, run: Run) -> None:
        """Blocking tail: drain, encode, hash, persist (pool thread)."""
        result = run.result()
        data = artifact_bytes(result_payload(hosted.kind, result))
        hosted.artifact_sha256 = sha256_hex(data)
        if self.state_dir is None:
            hosted.artifact_data = data
            return
        atomic_write(self._run_dir(hosted.id) / "artifact.json", data)

    # ------------------------------------------------------------------
    # State-dir persistence and adoption
    # ------------------------------------------------------------------
    def _run_dir(self, run_id: str) -> Path:
        if self.state_dir is None:
            raise RuntimeError("no state dir configured")
        return self.state_dir / "runs" / run_id

    def _persist_meta(self, hosted: HostedRun) -> None:
        if self.state_dir is None:
            return
        run_dir = self._run_dir(hosted.id)
        run_dir.mkdir(parents=True, exist_ok=True)
        meta = {
            "id": hosted.id,
            "state": hosted.state,
            "epoch": hosted.epoch,
            "epochs_total": hosted.epochs_total,
            "config": hosted.config.to_dict(),
            "error": hosted.error,
            "artifact_sha256": hosted.artifact_sha256,
        }
        atomic_write(
            run_dir / "meta.json",
            (json.dumps(meta, sort_keys=True, indent=2) + "\n").encode(),
        )

    def _adopt_state_dir(self) -> None:
        """Re-adopt a predecessor host's runs (the crash-recovery pass)."""
        runs_root = self.state_dir / "runs"
        entries = sorted(
            (p for p in runs_root.iterdir() if (p / "meta.json").exists()),
            key=lambda p: p.name,
        )
        for run_dir in entries:
            try:
                meta = json.loads((run_dir / "meta.json").read_text())
                config = EngineConfig.from_dict(meta["config"])
            except (ValueError, KeyError, TypeError):  # pragma: no cover
                continue  # unreadable record; leave the files for forensics
            hosted = HostedRun(meta["id"], config, self.ring_size)
            hosted.epoch = int(meta.get("epoch") or 0)
            hosted.epochs_total = meta.get("epochs_total")
            hosted.error = meta.get("error")
            hosted.artifact_sha256 = meta.get("artifact_sha256")
            checkpoint = run_dir / "run.ckpt"
            if checkpoint.exists():
                hosted.resume_from = checkpoint
            state = meta.get("state")
            if state == DONE and (run_dir / "artifact.json").exists():
                hosted.state = DONE
                hosted.terminal.set()
            elif state in (FAILED, CANCELLED):
                hosted.state = state
                hosted.terminal.set()
            elif state == PAUSED and hosted.resume_from is not None:
                hosted.state = PAUSED  # waits for an explicit resume
            else:
                # QUEUED/RUNNING (or PAUSED without a checkpoint): run it
                # again — from the checkpoint when there is one, from
                # scratch otherwise.  Determinism makes both identical.
                hosted.state = QUEUED
                hosted.epoch = 0
                self._queue.append(hosted.id)
            self._runs[hosted.id] = hosted
            self._persist_meta(hosted)
            number = hosted.id[1:]
            if number.isdigit():
                self._counter = max(self._counter, int(number))
