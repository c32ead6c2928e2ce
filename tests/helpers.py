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


#: What :func:`row_chunks` reports for a row that is watching out its
#: chunk's playback slot (holding) rather than downloading.
HOLDING = -2


def row_chunks(sim):
    """Each table row's chunk, read back from the kernel's columns: the
    chunk a downloading row is in (``cell - local * chunks``),
    :data:`HOLDING` for a held row (finite ``hold_until``) and ``-1``
    for a dead one."""
    n = sim._n
    chunks = sim._row_cell[:n] - sim._row_chan[:n] * sim.num_chunks
    chunks[np.isfinite(sim._row_hold_until[:n])] = HOLDING
    chunks[~sim._row_alive[:n]] = -1
    return chunks


def live_chunks(sim):
    """:func:`row_chunks` of the live rows, in admission order."""
    return row_chunks(sim)[sim._row_alive[: sim._n]]


def serves_consecutive_run(vm):
    """Do a packed VM's chunks form one consecutive run of one channel
    (paper footnote 3)?  Read from ``vm.shares``, whose keys are
    ``(channel, chunk)`` pairs."""
    keys = list(vm.shares)
    if len(keys) <= 1:
        return True
    if len({channel for channel, _ in keys}) != 1:
        return False
    indices = sorted(chunk for _, chunk in keys)
    return indices == list(range(indices[0], indices[0] + len(indices)))


def plan_allocations(plan, keys):
    """An Eqn (7) plan's rows as ``{(chunk key, cluster name): z}`` in
    row order, the map the Section V-A2 packer takes; ``keys[c]`` names
    the plan's cell ``c``."""
    return {
        (keys[chunk], plan.clusters[cluster][1]): z
        for chunk, cluster, z in zip(
            plan.chunk.tolist(), plan.cluster.tolist(), plan.z.tolist()
        )
    }


def decision_allocations(decision):
    """:func:`plan_allocations` of a single-region decision, its cells
    keyed ``(channel, chunk)`` in the layout of ``decision.demands``."""
    keys = [
        (demand.channel_id, i)
        for demand in decision.demands
        for i in range(demand.cloud_demand.size)
    ]
    return plan_allocations(decision.plan, keys)
