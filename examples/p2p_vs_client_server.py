#!/usr/bin/env python
"""Closed-loop comparison: client-server vs P2P CloudMedia.

Runs the full system twice — synthetic trace, fluid VoD simulator, hourly
provisioning controller, simulated cloud — once in each delivery mode, and
prints the paper's headline comparison (Figs 4, 5, 10): cloud bandwidth,
streaming quality, and hourly VM cost.

Run:  python examples/p2p_vs_client_server.py   (small scale, ~10 s)

The paper-scale comparison, checked against the paper's numbers, is
``repro claims`` (EXPERIMENTS.md).
"""

import numpy as np

from repro.api import open_run
from repro.experiments.registry import closed_loop_config
from repro.experiments.reporting import downsample, format_table


def main() -> None:
    results = {}
    for mode in ("client-server", "p2p"):
        scenario = closed_loop_config(mode=mode, scale="small",
                                      horizon_hours=12.0)
        print(f"running {mode} scenario "
              f"({scenario.num_channels} channels, "
              f"{scenario.horizon_seconds / 3600:.0f} h)...")
        # Stream the provisioning epochs as they complete (repro.api),
        # then collect the monolithic result for the summary tables.
        with open_run(scenario) as run:
            for epoch in run.epochs():
                print(f"  hour {epoch.t_end / 3600:4.0f}: "
                      f"{epoch.population:4d} viewers, "
                      f"{epoch.provisioned_mbps:5.0f} Mbps reserved, "
                      f"quality {epoch.quality:.3f}")
            results[mode] = run.result()

    cs, p2p = results["client-server"], results["p2p"]

    print("\nHourly series (Mbps, downsampled)")
    hours = downsample([t / 3600 for t in cs.interval_times])
    rows = [
        ["hour"] + [f"{h:.0f}" for h in hours],
        ["C/S reserved"] + [f"{v:.0f}" for v in downsample(cs.provisioned_mbps())],
        ["C/S used"] + [f"{v:.0f}" for v in downsample(cs.used_mbps())],
        ["P2P reserved"] + [f"{v:.0f}" for v in downsample(p2p.provisioned_mbps())],
        ["P2P used"] + [f"{v:.0f}" for v in downsample(p2p.used_mbps())],
    ]
    width = max(len(r) for r in rows)
    for row in rows:
        print("  " + "  ".join(str(c).rjust(8) for c in row))

    print("\nSummary (paper Figs 4/5/10 shape)")
    print(
        format_table(
            ["metric", "client-server", "p2p"],
            [
                [
                    "avg streaming quality",
                    cs.average_quality,
                    p2p.average_quality,
                ],
                [
                    "mean cloud used (Mbps)",
                    float(np.mean(cs.used_mbps())),
                    float(np.mean(p2p.used_mbps())),
                ],
                [
                    "mean reserved (Mbps)",
                    float(np.mean(cs.provisioned_mbps())),
                    float(np.mean(p2p.provisioned_mbps())),
                ],
                [
                    "mean VM cost ($/h)",
                    cs.mean_vm_cost_per_hour,
                    p2p.mean_vm_cost_per_hour,
                ],
                [
                    "storage cost ($/day)",
                    cs.cost_report.hourly_storage_cost * 24,
                    p2p.cost_report.hourly_storage_cost * 24,
                ],
            ],
        )
    )
    savings = 1.0 - p2p.mean_vm_cost_per_hour / max(cs.mean_vm_cost_per_hour, 1e-9)
    print(f"\nP2P cuts the VM bill by {100 * savings:.0f}% at a quality cost of "
          f"{cs.average_quality - p2p.average_quality:+.3f} — the paper's "
          "'hybrid P2P + cloud' conclusion.")


if __name__ == "__main__":
    main()
