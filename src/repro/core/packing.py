"""Packing fractional VM shares onto concrete VMs (paper Section V-A2).

The paper notes that z_iv may be fractional: the integer part gives whole
VMs dedicated to a chunk, and the fractional remainders share VMs — with
the rule that "if one VM is used to serve more than one chunk, we will
maximally allow consecutive chunks in one channel to be served by the VM"
(this minimizes VM switching during a user's playback, footnote 3).

The packer therefore walks each cluster's chunk shares in (channel, chunk)
order and fills VMs first-fit, so fractional remainders of neighbouring
chunks end up co-located.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Tuple

__all__ = ["PackedVM", "PackingResult", "pack_allocations"]

ChunkKey = Hashable  # expected to be a (channel_id, chunk_index) tuple

_EPS = 1e-9


@dataclass
class PackedVM:
    """One concrete VM and the chunk shares it serves (fractions of R)."""

    cluster: str
    shares: Dict[ChunkKey, float] = field(default_factory=dict)

    @property
    def load(self) -> float:
        return float(sum(self.shares.values()))

    @property
    def free(self) -> float:
        return 1.0 - self.load

    def channels(self) -> List[object]:
        """Distinct channel ids served (chunk keys must be (channel, idx))."""
        seen: List[object] = []
        for key in self.shares:
            channel = key[0] if isinstance(key, tuple) and len(key) == 2 else key
            if channel not in seen:
                seen.append(channel)
        return seen


@dataclass(frozen=True)
class PackingResult:
    """All packed VMs plus summary statistics."""

    vms: Tuple[PackedVM, ...]

    @property
    def total_vms(self) -> int:
        return len(self.vms)

    @property
    def shared_vms(self) -> int:
        """VMs serving more than one chunk."""
        return sum(1 for vm in self.vms if len(vm.shares) > 1)

    @property
    def cross_channel_vms(self) -> int:
        """Shared VMs mixing chunks from different channels (switch cost)."""
        return sum(1 for vm in self.vms if len(vm.channels()) > 1)

    @property
    def mean_load(self) -> float:
        if not self.vms:
            return 0.0
        return sum(vm.load for vm in self.vms) / len(self.vms)


def _chunk_sort_key(key: ChunkKey) -> Tuple:
    if isinstance(key, tuple) and len(key) == 2:
        return (0, repr(key[0]), key[1])
    return (1, repr(key), 0)


def pack_allocations(
    allocations: Mapping[Tuple[ChunkKey, str], float],
) -> PackingResult:
    """Pack fractional allocations ``{(chunk, cluster): z}`` onto VMs.

    Per cluster: chunks are visited in (channel, chunk-index) order; whole
    units open dedicated VMs; the fractional remainder goes into the
    cluster's currently open shared VM if it fits (keeping consecutive
    chunks together), otherwise a new shared VM opens.
    """
    by_cluster: Dict[str, List[Tuple[ChunkKey, float]]] = {}
    for (chunk, cluster), z in allocations.items():
        if z < -_EPS:
            raise ValueError(f"negative allocation for {(chunk, cluster)!r}")
        if z <= _EPS:
            continue
        by_cluster.setdefault(cluster, []).append((chunk, float(z)))

    vms: List[PackedVM] = []
    for cluster in sorted(by_cluster):
        entries = sorted(by_cluster[cluster], key=lambda e: _chunk_sort_key(e[0]))
        open_vm: PackedVM = PackedVM(cluster)
        for chunk, z in entries:
            whole = int(z + _EPS)
            frac = z - whole
            for _ in range(whole):
                dedicated = PackedVM(cluster)
                dedicated.shares[chunk] = 1.0
                vms.append(dedicated)
            if frac <= _EPS:
                continue
            if open_vm.free + _EPS < frac:
                if open_vm.shares:
                    vms.append(open_vm)
                open_vm = PackedVM(cluster)
            open_vm.shares[chunk] = open_vm.shares.get(chunk, 0.0) + frac
        if open_vm.shares:
            vms.append(open_vm)

    return PackingResult(vms=tuple(vms))
