"""End-to-end tests for the HTTP service (server + client + CLI).

The service-level acceptance contracts:

* parity — the artifact fetched over ``GET /runs/{id}/result`` is
  byte-identical (sha256) to encoding the same config's ``open_run``
  result directly;
* concurrency — eight runs admitted with a zero-length wait queue all
  execute together, each with a live SSE consumer that sees every
  epoch exactly once and in order;
* SSE replay — a consumer joining mid-run (``Last-Event-ID``) gets the
  missed epochs from the ring, then the live tail;
* HTTP error mapping — 400 / 404 / 409 / 503 (with ``Retry-After``),
  and raw-socket hostile input: a stalled request head (408), too many
  headers or a 70 KB header line (431), a malformed ``Content-Length``
  (400); fuzzed request heads and bodies only ever parse into a
  request, a departed client or a 4xx;
* crash recovery — a ``repro serve`` subprocess SIGKILLed mid-run
  leaves a state dir from which a fresh server finishes the run with a
  byte-identical artifact and no leaked ``/dev/shm`` segment.
"""

import asyncio
import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import EngineConfig, open_run
from repro.experiments.config import small_scenario
from repro.service import RunHost, ServiceClient, ServiceError, ServiceServer
from repro.service.server import _HttpError
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


def reference_sha(config: EngineConfig) -> str:
    with open_run(config) as run:
        return sha256_hex(
            artifact_bytes(result_payload(config.kind, run.result()))
        )


@contextlib.contextmanager
def running_service(**host_kwargs):
    """An in-process server on an ephemeral port, in its own loop thread."""
    started = threading.Event()
    box = {}

    async def main():
        server = ServiceServer(RunHost(**host_kwargs), port=0)
        await server.start()
        box["port"] = server.port
        box["stop"] = asyncio.Event()
        box["loop"] = asyncio.get_running_loop()
        started.set()
        await box["stop"].wait()
        await server.close()

    thread = threading.Thread(target=lambda: asyncio.run(main()), daemon=True)
    thread.start()
    assert started.wait(30), "server never came up"
    try:
        yield f"http://127.0.0.1:{box['port']}"
    finally:
        box["loop"].call_soon_threadsafe(box["stop"].set)
        thread.join(timeout=60)


# ----------------------------------------------------------------------
# Parity
# ----------------------------------------------------------------------
def test_http_artifact_matches_open_run():
    config = small_config(workers=2)
    expected = reference_sha(config)
    with running_service(max_concurrent=2) as url:
        client = ServiceClient(url)
        run_id = client.submit(config)
        info = client.wait(run_id)
        assert info["state"] == "done"
        data = client.result_bytes(run_id)
        assert sha256_hex(data) == expected == info["artifact_sha256"]
        # and the document parses back to the summary schema
        assert "summary" in json.loads(data.decode("utf-8"))


def test_submit_accepts_engine_config_document():
    config = small_config()
    with running_service() as url:
        client = ServiceClient(url)
        run_id = client.submit(config.to_dict())  # plain-dict path
        assert client.wait(run_id)["state"] == "done"


# ----------------------------------------------------------------------
# Concurrency + SSE
# ----------------------------------------------------------------------
def test_eight_concurrent_runs_with_interleaved_sse():
    configs = [small_config(seed=2011 + i) for i in range(8)]
    with running_service(max_concurrent=8, queue_limit=0) as url:
        client = ServiceClient(url)
        # queue_limit=0: all eight admissions must go straight to
        # execution slots — this IS the concurrency assertion.
        run_ids = [client.submit(config) for config in configs]

        def consume(run_id, out):
            stream = ServiceClient(url)
            out[run_id] = [
                event for event in stream.events(run_id)
                if event["event"] == "epoch"
            ]

        seen = {}
        threads = [
            threading.Thread(target=consume, args=(run_id, seen))
            for run_id in run_ids
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        for run_id in run_ids:
            info = client.run(run_id)
            assert info["state"] == "done"
            indices = [event["data"]["index"] for event in seen[run_id]]
            assert indices == list(range(1, info["epochs_total"] + 1))
            assert all(
                event["data"]["run"] == run_id for event in seen[run_id]
            )


def test_sse_mid_run_join_replays_missed_epochs():
    with running_service() as url:
        client = ServiceClient(url)
        run_id = client.submit(small_config())
        client.wait(run_id)
        # Joining after the run finished, claiming we saw epoch 1:
        # the ring must replay 2..N and close with the terminal state.
        events = list(client.events(run_id, last_event_id=1))
        indices = [
            event["data"]["index"]
            for event in events if event["event"] == "epoch"
        ]
        total = client.run(run_id)["epochs_total"]
        assert indices == list(range(2, total + 1))
        assert events[-1]["event"] == "state"
        assert events[-1]["data"]["state"] == "done"


# ----------------------------------------------------------------------
# HTTP error mapping
# ----------------------------------------------------------------------
def test_error_statuses():
    with running_service(max_concurrent=1, queue_limit=0) as url:
        client = ServiceClient(url)
        with pytest.raises(ServiceError) as excinfo:
            client.run("r9999")
        assert excinfo.value.status == 404

        document = small_config().to_dict()
        document["spec"]["bogus_knob"] = 1
        with pytest.raises(ServiceError) as excinfo:
            client.submit(document)
        assert excinfo.value.status == 400
        assert "bogus_knob" in excinfo.value.message

        document = small_config().to_dict()
        document["spec"]["dt"] = float("nan")  # sent as a bare NaN token
        with pytest.raises(ServiceError) as excinfo:
            client.submit(document)
        assert excinfo.value.status == 400
        assert "dt must be finite" in excinfo.value.message

        run_id = client.submit(small_config(seed=1))
        with pytest.raises(ServiceError) as excinfo:
            client.submit(small_config(seed=2))  # pool + queue both full
        assert excinfo.value.status == 503

        with pytest.raises(ServiceError) as excinfo:
            client.result_bytes(run_id)  # not done yet
        assert excinfo.value.status == 409

        with pytest.raises(ServiceError) as excinfo:
            client.checkpoint(run_id)  # host has no state dir
        assert excinfo.value.status == 409
        client.wait(run_id)


def test_stale_scenario_field_is_400():
    """A closed-loop spec carrying the removed ``bootstrap_rate_factor``
    is refused, not run with the field silently ignored."""
    document = EngineConfig(spec=small_scenario("p2p", horizon_hours=0.5)).to_dict()
    document["spec"]["bootstrap_rate_factor"] = 1.0
    with running_service(max_concurrent=1) as url:
        client = ServiceClient(url)
        with pytest.raises(ServiceError) as excinfo:
            client.submit(document)
        assert excinfo.value.status == 400
        assert "bootstrap_rate_factor" in excinfo.value.message
        assert client.runs() == []


def _raw_exchange(url: str, request: bytes) -> bytes:
    """Send raw bytes to the server; everything it answers until close."""
    host, port = url.rsplit("/", 1)[-1].split(":")
    with socket.create_connection((host, int(port)), timeout=30) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def test_stalled_request_head_gets_408(monkeypatch):
    monkeypatch.setattr("repro.service.server._HEAD_TIMEOUT", 0.3)
    with running_service() as url:
        # A request line, then silence: no blank line ever ends the head.
        reply = _raw_exchange(url, b"GET /healthz HTTP/1.1\r\nHost: x\r\n")
        assert reply.startswith(b"HTTP/1.1 408 "), reply


def test_too_many_headers_get_431():
    headers = b"".join(b"X-Pad-%d: 1\r\n" % i for i in range(101))
    with running_service() as url:
        reply = _raw_exchange(
            url, b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n"
        )
        assert reply.startswith(b"HTTP/1.1 431 "), reply
        # exactly the cap is still served
        headers = b"".join(b"X-Pad-%d: 1\r\n" % i for i in range(100))
        reply = _raw_exchange(
            url, b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n"
        )
        assert reply.startswith(b"HTTP/1.1 200 "), reply


def test_overlong_header_line_gets_431():
    with running_service() as url:
        reply = _raw_exchange(
            url,
            b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 70_000
            + b"\r\n\r\n",
        )
        assert reply.startswith(b"HTTP/1.1 431 "), reply


#: Head lines a fuzzed request is built from: arbitrary bytes, lines
#: around the reader's 64 KiB limit, and well-formed pieces with
#: hostile values.
_HEAD_LINES = st.one_of(
    st.binary(max_size=120),
    st.integers(65_000, 70_000).map(lambda n: b"x" * n),
    st.sampled_from([
        b"GET /healthz HTTP/1.1", b"POST /runs HTTP/1.1", b"GET / x",
        b"Content-Length: 5", b"Content-Length: 0", b"Content-Length: -1",
        b"content-length: 99999999999999999999", b"Content-Length: \xb2",
        b"Content-Length:", b"Host: x", b":", b"",
    ]),
)


@given(
    lines=st.lists(_HEAD_LINES, max_size=6),
    ending=st.sampled_from([b"", b"\r\n", b"\r\n\r\n", b"\n\n"]),
    body=st.binary(max_size=16),
)
@settings(max_examples=150, deadline=None)
def test_fuzzed_request_is_parsed_dropped_or_4xx(lines, ending, body):
    """Whatever a client sends, the parser returns a request or ``None``
    (the client left) or raises a 4xx ``_HttpError`` — nothing else."""
    async def parse():
        reader = asyncio.StreamReader()
        reader.feed_data(b"\r\n".join(lines) + ending + body)
        reader.feed_eof()
        return await ServiceServer(host=None)._read_request(reader)

    try:
        request = asyncio.run(parse())
    except _HttpError as exc:
        assert 400 <= exc.status < 500, exc.status
    else:
        assert request is None or len(request) == 4


@pytest.mark.parametrize("length", [b"twelve", b"-1", b"1.5"])
def test_bad_content_length_gets_400(length):
    with running_service() as url:
        reply = _raw_exchange(
            url,
            b"POST /runs HTTP/1.1\r\nContent-Length: " + length
            + b"\r\n\r\n{}",
        )
        assert reply.startswith(b"HTTP/1.1 400 "), reply
        assert b"Content-Length" in reply


def test_dashboard_and_health():
    with running_service() as url:
        client = ServiceClient(url)
        assert client.healthy()
        page = client._request("GET", "/").decode("utf-8")
        assert "<html" in page and "EventSource" in page


# ----------------------------------------------------------------------
# Crash recovery: serve subprocess, SIGKILL, restart, byte parity
# ----------------------------------------------------------------------
def _spawn_serve(state_dir) -> "tuple[subprocess.Popen, str]":
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--state-dir", str(state_dir), "--checkpoint-every", "1",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=dict(os.environ),
    )
    line = process.stdout.readline()
    assert "repro-service listening on" in line, line
    url = line.split("listening on ", 1)[1].split()[0]
    return process, url


def _child_pids(pid: int) -> set:
    """Child processes of ``pid``, over all of its threads (the host
    forks shard workers from the thread that advances the run)."""
    pids = set()
    for task in os.listdir(f"/proc/{pid}/task"):
        with contextlib.suppress(FileNotFoundError):
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                pids.update(int(child) for child in handle.read().split())
    return pids


def _alive(pid: int) -> bool:
    """Whether ``pid`` still runs (an unreaped zombie has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


def test_sigkill_restart_resume_byte_identical(tmp_path):
    # 2 h at 10-minute epochs: 12 epochs, so the kill lands mid-run.
    config = small_config(horizon_hours=2.0, workers=2)
    expected = reference_sha(config)

    process, url = _spawn_serve(tmp_path)
    try:
        client = ServiceClient(url)
        client.wait_healthy()
        run_id = client.submit(config)
        for event in client.events(run_id):
            # Two auto-checkpointed epochs recorded, then pull the plug.
            if event["event"] == "epoch" and event["data"]["index"] >= 2:
                break
        children = _child_pids(process.pid)
        assert children, "the run's shard workers should be alive"
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=30)
    finally:
        if process.poll() is None:  # pragma: no cover - cleanup backstop
            process.kill()
            process.wait(timeout=30)
        process.stdout.close()

    # The orphaned shard workers notice the dead parent and exit on
    # their own.
    deadline = time.monotonic() + 10.0
    while any(map(_alive, children)) and time.monotonic() < deadline:
        time.sleep(0.1)
    survivors = sorted(pid for pid in children if _alive(pid))
    assert not survivors, f"children outlived the killed server: {survivors}"

    meta = json.loads((tmp_path / "runs" / run_id / "meta.json").read_text())
    assert meta["state"] == "running"  # the crash left it mid-flight

    process, url = _spawn_serve(tmp_path)
    try:
        client = ServiceClient(url)
        client.wait_healthy()
        info = client.wait(run_id)  # adoption requeued + resumed it
        assert info["state"] == "done"
        assert info["epochs_total"] == 12
        data = client.result_bytes(run_id)
        assert sha256_hex(data) == expected
    finally:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=60)
        except subprocess.TimeoutExpired:  # pragma: no cover
            process.kill()
            process.wait(timeout=30)
        process.stdout.close()

    # Nothing in /dev/shm either (give the kernel a beat; the
    # session-level conftest guard re-checks too).
    time.sleep(0.2)
    leaked = [name for name in os.listdir("/dev/shm") if name.startswith("psm_")]
    assert not leaked, f"leaked shared-memory segments: {leaked}"
