"""Tests for :class:`repro.service.host.RunHost` (no HTTP involved).

The host contracts pinned here:

* lifecycle — a submitted run executes to DONE and its artifact bytes
  equal encoding the same config's ``open_run`` result directly;
* admission — ``max_concurrent`` bounds execution, overflow queues in
  FIFO order, and past ``queue_limit`` submission raises
  :class:`QueueFullError` (the 503 backpressure);
* control — cancel works QUEUED and RUNNING; pause parks the engine
  and resume completes with a byte-identical
  artifact; an explicit checkpoint request resolves to a loadable file;
* persistence — auto-checkpoints appear on the epoch cadence, graceful
  ``close()`` leaves interrupted runs re-adoptable, and a second host
  on the same state dir finishes them byte-identically;
* failure — an engine exception fails the run with a one-line
  ``error`` and leaves the full traceback in the run's state dir.
"""

import asyncio
import json

import pytest

from repro.api import EngineConfig, Run, open_run, resume
from repro.service import QueueFullError, RunHost, UnknownRunError
from repro.service.artifact import artifact_bytes, result_payload, sha256_hex
from repro.workload.catalog import catalog_config


def small_catalog(**overrides):
    knobs = dict(
        num_channels=6, chunks_per_channel=4, horizon_hours=0.5,
        arrival_rate=0.5, num_shards=4, dt=60.0, interval_minutes=10.0,
    )
    knobs.update(overrides)
    return catalog_config(**knobs)


def small_config(**overrides) -> EngineConfig:
    workers = overrides.pop("workers", 1)
    return EngineConfig(spec=small_catalog(**overrides), workers=workers)


def reference_artifact(config: EngineConfig) -> bytes:
    with open_run(config) as run:
        return artifact_bytes(result_payload(config.kind, run.result()))


async def wait_for_state(host, run_id, state, *, polls=2000):
    for _ in range(polls):
        if host.run_info(run_id)["state"] == state:
            return
        await asyncio.sleep(0.01)
    raise AssertionError(
        f"run {run_id} never reached {state!r} "
        f"(now {host.run_info(run_id)['state']!r})"
    )


# ----------------------------------------------------------------------
# Lifecycle + artifact parity
# ----------------------------------------------------------------------
def test_hosted_run_artifact_matches_open_run():
    config = small_config()
    expected = sha256_hex(reference_artifact(config))

    async def scenario():
        host = RunHost(max_concurrent=2)
        await host.start()
        run_id = host.submit(config)
        assert await host.wait(run_id) == "done"
        info = host.run_info(run_id)
        data = host.artifact(run_id)
        assert sha256_hex(data) == expected == info["artifact_sha256"]
        assert info["epoch"] == info["epochs_total"]
        await host.close()

    asyncio.run(scenario())


def test_epoch_events_reach_subscribers_and_ring():
    config = small_config()

    async def scenario():
        host = RunHost(max_concurrent=1)
        await host.start()
        run_id = host.submit(config)
        replay, queue = host.subscribe(run_id)
        live = []
        while True:
            event = await queue.get()
            if event is None:
                break
            live.append(event)
        epochs = [e["data"]["index"] for e in live if e["event"] == "epoch"]
        total = host.run_info(run_id)["epochs_total"]
        assert epochs == list(range(1, total + 1))
        # A late subscriber replays the whole stream from the ring.
        replay, late_queue = host.subscribe(run_id, after=1)
        assert late_queue is None  # terminal: the replay is complete
        replayed = [
            e["data"]["index"] for e in replay if e["event"] == "epoch"
        ]
        assert replayed == list(range(2, total + 1))
        assert replay[-1]["event"] == "state"
        assert replay[-1]["data"]["state"] == "done"
        await host.close()

    asyncio.run(scenario())


def test_unknown_run_raises():
    async def scenario():
        host = RunHost()
        await host.start()
        with pytest.raises(UnknownRunError):
            host.run_info("r9999")
        with pytest.raises(UnknownRunError):
            host.pause("r9999")
        await host.close()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# Admission: bounded concurrency + backpressure
# ----------------------------------------------------------------------
def test_queue_limit_backpressure():
    async def scenario():
        host = RunHost(max_concurrent=1, queue_limit=1)
        await host.start()
        first = host.submit(small_config(seed=1))
        second = host.submit(small_config(seed=2))  # fills the queue
        with pytest.raises(QueueFullError):
            host.submit(small_config(seed=3))
        assert await host.wait(first) == "done"
        assert await host.wait(second) == "done"
        await host.close()

    asyncio.run(scenario())


def test_queued_overflow_runs_fifo():
    async def scenario():
        host = RunHost(max_concurrent=1, queue_limit=4)
        await host.start()
        ids = [host.submit(small_config(seed=s)) for s in (1, 2, 3)]
        states = [await host.wait(run_id) for run_id in ids]
        assert states == ["done"] * 3
        await host.close()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# Cancel
# ----------------------------------------------------------------------
def test_cancel_queued_and_running():
    async def scenario():
        host = RunHost(max_concurrent=1, queue_limit=4)
        await host.start()
        running = host.submit(small_config(seed=1))
        queued = host.submit(small_config(seed=2))
        host.cancel(queued)
        assert host.run_info(queued)["state"] == "cancelled"
        host.cancel(running)
        assert await host.wait(running) == "cancelled"
        with pytest.raises(RuntimeError):
            host.artifact(running)
        # Cancelling a terminal run purges the record.
        host.cancel(running)
        with pytest.raises(UnknownRunError):
            host.run_info(running)
        await host.close()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# Pause / resume / checkpoint
# ----------------------------------------------------------------------
def test_pause_parks_engine_and_resume_is_byte_identical(tmp_path):
    config = small_config(workers=2)
    expected = sha256_hex(reference_artifact(config))

    async def scenario():
        host = RunHost(max_concurrent=1, state_dir=tmp_path)
        await host.start()
        run_id = host.submit(config)
        _, queue = host.subscribe(run_id)
        while True:  # pause after the first epoch lands
            event = await queue.get()
            if event and event["event"] == "epoch":
                break
        host.pause(run_id)
        await wait_for_state(host, run_id, "paused")
        with pytest.raises(RuntimeError):
            host.pause(run_id)  # only RUNNING pauses
        meta = json.loads(
            (tmp_path / "runs" / run_id / "meta.json").read_text()
        )
        assert meta["state"] == "paused"
        host.resume_run(run_id)
        assert await host.wait(run_id) == "done"
        assert sha256_hex(host.artifact(run_id)) == expected
        await host.close()

    asyncio.run(scenario())


def test_checkpoint_request_resolves_to_resumable_file(tmp_path):
    config = small_config()
    expected = sha256_hex(reference_artifact(config))

    async def scenario():
        host = RunHost(max_concurrent=1, state_dir=tmp_path)
        await host.start()
        run_id = host.submit(config)
        await wait_for_state(host, run_id, "running")
        path = await host.request_checkpoint(run_id)
        assert path.endswith("run.ckpt")
        assert await host.wait(run_id) == "done"
        await host.close()
        return run_id, path

    run_id, path = asyncio.run(scenario())
    with resume(path) as resumed:
        data = artifact_bytes(
            result_payload(config.kind, resumed.result())
        )
    assert sha256_hex(data) == expected


def test_checkpoint_without_state_dir_rejected():
    async def scenario():
        host = RunHost(max_concurrent=1)
        await host.start()
        run_id = host.submit(small_config())
        with pytest.raises(RuntimeError, match="state dir"):
            host.request_checkpoint(run_id)
        await host.wait(run_id)
        await host.close()

    asyncio.run(scenario())


def test_auto_checkpoint_cadence(tmp_path):
    config = small_config()  # 3 epochs at these knobs

    async def scenario():
        host = RunHost(
            max_concurrent=1, state_dir=tmp_path, checkpoint_every=1
        )
        await host.start()
        run_id = host.submit(config)
        assert await host.wait(run_id) == "done"
        assert (tmp_path / "runs" / run_id / "run.ckpt").exists()
        assert (tmp_path / "runs" / run_id / "artifact.json").exists()
        await host.close()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# State-dir adoption (graceful restart)
# ----------------------------------------------------------------------
def test_graceful_close_then_adopt_finishes_byte_identically(tmp_path):
    config = small_config(workers=2)
    expected = sha256_hex(reference_artifact(config))

    async def first_host():
        host = RunHost(
            max_concurrent=1, state_dir=tmp_path, checkpoint_every=1
        )
        await host.start()
        run_id = host.submit(config)
        _, queue = host.subscribe(run_id)
        while True:
            event = await queue.get()
            if event and event["event"] == "epoch":
                break
        await host.close()  # parks the run mid-flight, checkpointed
        return run_id

    async def second_host(run_id):
        host = RunHost(max_concurrent=1, state_dir=tmp_path)
        await host.start()  # adoption requeues the interrupted run
        assert await host.wait(run_id) == "done"
        data = host.artifact(run_id)
        await host.close()
        return data

    run_id = asyncio.run(first_host())
    meta = json.loads((tmp_path / "runs" / run_id / "meta.json").read_text())
    assert meta["state"] == "queued"  # re-adoptable, not lost
    data = asyncio.run(second_host(run_id))
    assert sha256_hex(data) == expected


def test_adopted_done_run_still_serves_artifact(tmp_path):
    config = small_config()

    async def first_host():
        host = RunHost(max_concurrent=1, state_dir=tmp_path)
        await host.start()
        run_id = host.submit(config)
        assert await host.wait(run_id) == "done"
        data = host.artifact(run_id)
        await host.close()
        return run_id, data

    async def second_host(run_id):
        host = RunHost(state_dir=tmp_path)
        await host.start()
        info = host.run_info(run_id)
        assert info["state"] == "done"
        data = host.artifact(run_id)
        # New submissions never collide with adopted ids.
        new_id = host.submit(config)
        assert new_id != run_id
        assert await host.wait(new_id) == "done"
        await host.close()
        return data

    run_id, first = asyncio.run(first_host())
    second = asyncio.run(second_host(run_id))
    assert first == second


# ----------------------------------------------------------------------
# Failure
# ----------------------------------------------------------------------
def test_failed_run_keeps_its_traceback(tmp_path, monkeypatch):
    def exploding_advance(self):
        raise RuntimeError("injected engine failure")

    monkeypatch.setattr(Run, "advance", exploding_advance)

    async def scenario():
        host = RunHost(max_concurrent=1, state_dir=tmp_path)
        await host.start()
        run_id = host.submit(small_config())
        assert await host.wait(run_id) == "failed"
        info = host.run_info(run_id)
        await host.close()
        return run_id, info

    run_id, info = asyncio.run(scenario())
    assert info["error"] == "RuntimeError: injected engine failure"
    text = (tmp_path / "runs" / run_id / "traceback.txt").read_text()
    assert text.startswith("Traceback (most recent call last):")
    assert "exploding_advance" in text
    assert "RuntimeError: injected engine failure" in text
