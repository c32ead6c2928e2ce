"""The repository's benchmark: one workload, checked, end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload catalog-flash --seed 2011 \\
        --seconds 15 --trace 0

Repeats the workload over a panel of seeds derived from ``--seed``, one
repetition at a time and each in a fresh process (so peak RSS is per
run), in whole passes until ``--seconds`` have passed, then prints every
end-to-end metric as the median over repetitions with its quartiles.  ``--trace 1`` adds traced repetitions and reports the
per-layer metrics instead.  Every repetition's output is checked; the
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

from tracing import RECONCILE_TOLERANCE
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Workload seeds one invocation runs, derived from ``--seed``.  The
#: load (flash-crowd channels, diurnal phases) and so the run time differ
#: from seed to seed; medians over a panel of seeds keep one invocation's
#: numbers from hanging on a single draw.
PANEL = 4


def panel(seed: int) -> List[int]:
    """The workload seeds of an invocation; the first is ``seed`` itself."""
    return [seed + i * 1_000_003 for i in range(PANEL)]


#: The whole invocation must finish within this many seconds.
DEADLINE_S = 170.0


def spawn_rep(workload: Workload, seed: int, *, tiny: bool, workers: int,
              traced: bool, timeout: float) -> dict:
    """One repetition in a fresh interpreter (fresh RSS high-water mark)."""
    cmd = [sys.executable, str(HERE / "workloads.py"),
           "--workload", workload.name, "--seed", str(seed),
           "--workers", str(workers), "--trace", str(int(traced))]
    if tiny:
        cmd.append("--tiny")
    failed = {"seed": seed, "workers": workers, "traced": traced}
    # A fixed hash seed keeps set/dict iteration order, and with it the
    # work done, identical between repetitions.
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT, env=env)
    except subprocess.TimeoutExpired:
        return {**failed, "errors": [f"repetition timed out after {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {**failed, "errors": [
            f"repetition exited {proc.returncode}: {proc.stderr[-2000:]}"
        ]}
    return json.loads(lines[-1])


def collect(workload: Workload, seed: int, seconds: float, trace: bool, *,
            tiny: bool = False, rep: Callable = spawn_rep):
    """Untraced repetitions over the seed panel, whole passes until
    ``seconds`` have passed, then — when ``trace`` is set — the
    workload's traced passes on the panel's first seed."""
    started = time.perf_counter()
    seeds = panel(seed)

    def remaining() -> float:
        return max(1.0, DEADLINE_S - (time.perf_counter() - started))

    untraced: List[dict] = []
    while (not untraced or len(untraced) % PANEL
           or time.perf_counter() - started < seconds):
        untraced.append(rep(workload, seeds[len(untraced) % PANEL],
                            tiny=tiny, traced=False,
                            workers=workload.workers, timeout=remaining()))
    traced = [
        rep(workload, seed, tiny=tiny, traced=True, workers=workers,
            timeout=remaining())
        for workers, _ in (workload.traced_passes if trace else ())
    ]
    return untraced, traced


def cross_check(untraced: List[dict], traced: List[dict]) -> Dict[int, str]:
    """Every passing repetition of one seed must produce the same result
    digest — across repetitions, traced or not, at any worker count.
    Returns the digest of each seed."""
    digests: Dict[int, str] = {}
    for outcome in untraced + traced:
        if outcome["errors"]:
            continue
        reference = digests.setdefault(outcome["seed"], outcome["digest"])
        if outcome["digest"] != reference:
            outcome["errors"].append(
                f"seed {outcome['seed']}: result digest {outcome['digest']} "
                f"!= {reference} (workers={outcome['workers']}, "
                f"traced={outcome['traced']})"
            )
    return digests


def summarize(values: List[float]) -> Dict[str, float]:
    """Median and quartiles (equal to the median for a single value)."""
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def layer_metrics(workload: Workload, traced: List[dict],
                  untraced_wall: float) -> Dict[str, float]:
    """Per-layer metrics from the traced passes (see Workload)."""
    merged: Dict[str, float] = {}
    for (_, prefix), outcome in zip(workload.traced_passes, traced):
        merged.update({
            key: value for key, value in outcome["layers"].items()
            if key.startswith(prefix)
        })
    first = traced[0]["layers"]
    merged["trace.wall_s"] = first["trace.wall_s"]
    merged["trace.overhead_s"] = first["trace.wall_s"] - untraced_wall
    merged["trace.reconcile_error"] = max(
        o["layers"]["trace.reconcile_error"] for o in traced
    )
    for outcome in traced:
        error = outcome["layers"]["trace.reconcile_error"]
        if error > RECONCILE_TOLERANCE:
            outcome["errors"].append(
                f"traced spans miss the wall clock by {error:.2%} "
                f"(tolerance {RECONCILE_TOLERANCE:.0%})"
            )
    return merged


def fingerprint() -> Dict[str, object]:
    """What the numbers were measured on, so runs on different machines
    are never compared silently."""
    import numpy

    import repro

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "repro": repro.__version__,
        "commit": _git_commit(),
    }


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="toy sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        machine = fingerprint()
    except ImportError as exc:
        print(f"perfbench: cannot import the program ({exc}); run from the "
              "repository root", file=sys.stderr)
        return 2

    untraced, traced = collect(workload, args.seed, args.seconds,
                               bool(args.trace), tiny=args.tiny)
    digests = cross_check(untraced, traced)
    outcomes = untraced + traced
    passing = [o for o in untraced if not o["errors"]]
    if not passing or any("layers" not in o for o in traced):
        for outcome in outcomes:
            for error in outcome["errors"]:
                print(error, file=sys.stderr)
        print(f"perfbench: {workload.name} has no passing repetition "
              "to report", file=sys.stderr)
        return 1
    same_input = [o for o in passing if o["seed"] == args.seed] or passing
    per_layer = layer_metrics(
        workload, traced, statistics.median(o["wall_s"] for o in same_input)
    ) if traced else {}
    failed = sum(bool(o["errors"]) for o in outcomes)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = spec["end_to_end"]
    stats = {
        m["name"]: summarize([o["metrics"][m["name"]] for o in passing])
        for m in end_to_end
    }
    print(f"perfbench {workload.name} seed={args.seed} "
          f"workers={workload.workers}")
    print(f"machine {json.dumps(machine)}")
    for seed, digest in sorted(digests.items()):
        print(f"digest seed={seed} {digest}")
    for m in end_to_end:
        s = stats[m["name"]]
        print(f"  {m['name']:<18} {s['median']:>14.6g} {m['unit']:<6} "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={len(passing)}  "
              f"({m['better']} is better)")
    print(f"  runs_failed {failed} of runs_attempted {len(outcomes)}")
    for outcome in outcomes:
        for error in outcome["errors"]:
            print(f"  FAILED: {error.strip().splitlines()[-1]}")

    if per_layer:
        print(f"traced passes at workers "
              f"{[w for w, _ in workload.traced_passes]}; top-level groups:")
        for key in sorted(k for k in per_layer if k.startswith("group.")):
            print(f"  {key:<38} {per_layer[key]:.6g} s")
        for m in spec["per_layer"]:
            print(f"  {m['name']:<38} {per_layer[m['name']]:.6g} {m['unit']}")
        metrics = {
            m["name"]: {"value": per_layer[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": stats[m["name"]]["median"], "unit": m["unit"]}
            for m in end_to_end
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
