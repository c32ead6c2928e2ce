"""Fig 5: average streaming quality in the VoD system over time.

Paper: client-server averages 0.97; P2P averages 0.95 — a minor quality
tradeoff for the large cost saving.

Timed kernel: the per-sample quality computation over the kernel's row
table (the metric the system evaluates every five minutes).

Registry scenario: ``fig05`` (``repro sweep fig05``).
"""

import numpy as np

from repro.experiments.figures import fig5_streaming_quality
from repro.experiments.reporting import downsample, format_table
from repro.vod.channel import make_uniform_channels
from repro.vod.multi import MultiChannelSimulator, VoDSystemConfig
from repro.workload.trace import Session, ShardTraceArrays, Trace


def test_fig05_streaming_quality(benchmark, cs_result, p2p_result, emit):
    data = fig5_streaming_quality(cs_result, p2p_result)

    cs_q = downsample(list(data["cs_quality"]), 12)
    p2p_q = downsample(list(data["p2p_quality"]), 12)
    hours = downsample(list(data["cs_hours"]), 12)
    rows = [
        [f"{h:.1f}", f"{a:.3f}", f"{b:.3f}"]
        for h, a, b in zip(hours, cs_q, p2p_q)
    ]
    table = format_table(
        ["hour", "C/S quality", "P2P quality"],
        rows,
        title="Fig 5 — average streaming quality",
    )
    summary = (
        f"averages: C/S {float(data['cs_average']):.3f} (paper: 0.97), "
        f"P2P {float(data['p2p_average']):.3f} (paper: 0.95)"
    )
    emit("fig05_streaming_quality", table + "\n\n" + summary)

    # Paper shape: both averages high and close to each other. (At paper
    # scale our ordering reverses — C/S dips on flash-crowd ramps from the
    # last-interval predictor's lag while the P2P swarm's supply scales
    # instantly — see EXPERIMENTS.md; we assert closeness, not order.)
    assert float(data["cs_average"]) >= 0.88
    assert float(data["p2p_average"]) >= 0.88
    assert abs(float(data["p2p_average"]) - float(data["cs_average"])) <= 0.1

    # Timed kernel: the 5-minute smooth-user sweep over 2000 users of 20
    # channels, a tenth of them with a recent unsmooth retrieval.
    rng = np.random.default_rng(0)
    sessions = [
        Session(float(i), int(rng.integers(0, 20)), 0, 50_000.0)
        for i in range(2000)
    ]
    sim = MultiChannelSimulator(
        make_uniform_channels(20, 20, 50_000.0, 300.0),
        ShardTraceArrays.from_trace(Trace(config_summary={}, sessions=sessions)),
        VoDSystemConfig(dt=2000.0),
    )
    sim.step()  # admits everyone at t=2000, no capacity so none progress
    sim._row_unsmooth[: sim._n][rng.random(sim._n) < 0.1] = 1900.0
    benchmark(sim._sample_quality)
