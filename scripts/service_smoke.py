"""Service smoke: the crash-recovery acceptance gate, end to end.

Exercises the full ``repro serve`` lifecycle the way an operator (and
an unlucky kernel OOM-killer) would:

1. start a service subprocess with a state dir and per-epoch
   auto-checkpointing;
2. ``repro submit`` equivalent over the client: POST a sharded catalog
   run (shard worker processes in play) and a 1 h P2P closed-loop run
   (the one-shard engine);
3. follow the SSE epoch stream and request an explicit checkpoint;
4. SIGKILL the server mid-run — no teardown code gets to execute — and
   check that its orphaned shard workers exit on their own;
5. start a fresh server on the same state dir: it must re-adopt both
   runs and finish them (the catalog from its checkpoint);
6. compare each served artifact's sha256 against running the identical
   :class:`repro.api.EngineConfig` through ``open_run`` in this
   process — the bytes must match exactly;
7. fail on any ``psm_*`` segment left in ``/dev/shm``.

Non-zero exit on any violated step.  CI runs this as the gating
``service`` job (docs/ci.md); locally::

    PYTHONPATH=src python scripts/service_smoke.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import EngineConfig, open_run  # noqa: E402
from repro.experiments.config import small_scenario  # noqa: E402
from repro.service import ServiceClient  # noqa: E402
from repro.service.artifact import (  # noqa: E402
    artifact_bytes,
    result_payload,
    sha256_hex,
)
from repro.workload.catalog import catalog_config  # noqa: E402


def build_config() -> EngineConfig:
    spec = catalog_config(
        name="service-smoke",
        num_channels=8,
        chunks_per_channel=4,
        horizon_hours=2.0,
        arrival_rate=0.8,
        num_shards=4,
        dt=60.0,
        interval_minutes=10.0,  # 12 epochs: plenty of room for the kill
        seed=2011,
    )
    return EngineConfig(spec=spec, workers=2)


def build_closed_loop_config() -> EngineConfig:
    return EngineConfig(spec=small_scenario("p2p", horizon_hours=1.0))


def reference_sha256(config: EngineConfig) -> str:
    with open_run(config) as run:
        return sha256_hex(
            artifact_bytes(result_payload(config.kind, run.result()))
        )


def spawn_serve(state_dir: Path) -> "tuple[subprocess.Popen, str]":
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--state-dir", str(state_dir),
            "--checkpoint-every", "1",
            "--max-runs", "2",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
    )
    line = process.stdout.readline()
    if "repro-service listening on" not in line:
        process.kill()
        raise SystemExit(f"serve did not come up: {line!r}")
    url = line.split("listening on ", 1)[1].split()[0]
    return process, url


def child_pids(pid: int) -> "set[int]":
    """Child processes of ``pid``, over all of its threads (the host
    forks shard workers from the thread that advances the run)."""
    pids = set()
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                pids.update(int(child) for child in handle.read().split())
        except FileNotFoundError:  # the thread exited meanwhile
            continue
    return pids


def alive(pid: int) -> bool:
    """Whether ``pid`` still runs (an unreaped zombie has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


def dev_shm_entries() -> "list[str]":
    try:
        return sorted(
            name for name in os.listdir("/dev/shm") if name.startswith("psm_")
        )
    except FileNotFoundError:  # pragma: no cover - non-Linux dev boxes
        return []


def main() -> int:
    config = build_config()
    closed_loop = build_closed_loop_config()
    print("reference: running the same configs through open_run ...")
    expected = reference_sha256(config)
    expected_closed_loop = reference_sha256(closed_loop)
    print(f"reference sha256 {expected} (catalog), "
          f"{expected_closed_loop} (closed loop)")

    pre_existing = dev_shm_entries()

    with tempfile.TemporaryDirectory(prefix="repro-service-smoke-") as td:
        state_dir = Path(td)

        print("phase 1: serve, submit, stream, checkpoint, SIGKILL")
        process, url = spawn_serve(state_dir)
        try:
            client = ServiceClient(url)
            client.wait_healthy()
            run_id = client.submit(config)
            closed_loop_id = client.submit(closed_loop)
            print(f"  submitted {run_id} and {closed_loop_id} to {url}")
            for event in client.events(run_id):
                if event["event"] != "epoch":
                    continue
                index = event["data"]["index"]
                print(f"  epoch {index} streamed")
                if index == 2:
                    path = client.checkpoint(run_id)
                    print(f"  explicit checkpoint -> {path}")
                if index >= 3:
                    break
            workers = child_pids(process.pid)
            if not workers:
                raise SystemExit("the run's shard workers should be alive")
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=60)
            print("  server SIGKILLed mid-run")
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=60)

        deadline = time.monotonic() + 10.0
        while any(map(alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.1)
        survivors = sorted(pid for pid in workers if alive(pid))
        if survivors:
            raise SystemExit(
                f"shard workers outlived the killed server: {survivors}"
            )
        print(f"  its {len(workers)} shard workers exited")

        meta_path = state_dir / "runs" / run_id / "meta.json"
        meta = json.loads(meta_path.read_text())
        if meta["state"] != "running":
            raise SystemExit(
                f"expected the crashed run recorded as running, "
                f"got {meta['state']!r}"
            )

        print("phase 2: restart on the same state dir, resume, compare")
        process, url = spawn_serve(state_dir)
        try:
            client = ServiceClient(url)
            client.wait_healthy()
            info = client.wait(run_id, attempts=3000)
            if info["state"] != "done":
                raise SystemExit(
                    f"resumed run ended {info['state']!r}: "
                    f"{info.get('error')}"
                )
            data = client.result_bytes(run_id)
            actual = sha256_hex(data)
            print(f"  resumed artifact sha256 {actual}")
            if actual != expected:
                raise SystemExit(
                    "ARTIFACT MISMATCH after SIGKILL + resume: "
                    f"{actual} != {expected}"
                )
            if info["artifact_sha256"] != expected:
                raise SystemExit("status document carries a different sha256")
            info = client.wait(closed_loop_id, attempts=3000)
            if info["state"] != "done":
                raise SystemExit(
                    f"closed-loop run ended {info['state']!r}: "
                    f"{info.get('error')}"
                )
            actual = sha256_hex(client.result_bytes(closed_loop_id))
            print(f"  closed-loop artifact sha256 {actual}")
            if actual != expected_closed_loop or \
                    info["artifact_sha256"] != expected_closed_loop:
                raise SystemExit(
                    "CLOSED-LOOP ARTIFACT MISMATCH after SIGKILL + restart: "
                    f"{actual} != {expected_closed_loop}"
                )
        finally:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=120)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=60)

    time.sleep(0.5)  # give the kernel a beat after process exit
    leaked = sorted(set(dev_shm_entries()) - set(pre_existing))
    if leaked:
        raise SystemExit(f"leaked /dev/shm segments: {leaked}")

    print("service smoke OK: SIGKILL + restart resumed to byte-identical "
          "artifacts, no orphaned workers, no shm leaks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
