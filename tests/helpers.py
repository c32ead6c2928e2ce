"""Shared test helpers."""

import numpy as np

from repro.workload.trace import ShardTraceArrays


def trace_arrays(rows):
    """A trace from ``(arrival_time, channel, start_chunk, upload)`` rows,
    stably sorted by arrival time (ties keep the rows' order)."""
    rows = list(rows)
    times = np.array([row[0] for row in rows], dtype=float)
    order = np.argsort(times, kind="stable")
    return ShardTraceArrays(
        times=times[order],
        channels=np.array([row[1] for row in rows], dtype=np.int64)[order],
        start_chunks=np.array([row[2] for row in rows], dtype=np.int64)[order],
        upload_capacities=np.array(
            [row[3] for row in rows], dtype=float
        )[order],
    )
