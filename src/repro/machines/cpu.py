"""CPU machine model: topology + cache hierarchy + calibrated rates.

Constants that appear in the paper (Table 2) are taken verbatim: core
frequency, core counts, sockets/NUMA nodes, per-node memory and the STREAM
single-core / all-core bandwidths that anchor the roofline.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.errors import MachineError
from repro.machines.cache import CacheHierarchy
from repro.machines.topology import Topology
from repro.util.validation import check_positive

__all__ = ["CpuMachine"]


@dataclass(frozen=True)
class CpuMachine:
    """A modeled shared-memory multi-core machine.

    Attributes
    ----------
    name, arch:
        Identification ("Mach A", "Skylake").
    frequency_hz:
        Core clock (Table 2).
    ipc:
        Sustained scalar instructions per cycle for the benchmark kernels.
    simd_width_bits:
        Widest vector unit (drives packed-FP accounting for backends that
        vectorise, cf. Table 4 where HPX/ICC emit 256-bit packed ops).
    topology, caches:
        See :class:`Topology` and :class:`CacheHierarchy`.
    stream_bw_1core / stream_bw_allcores:
        STREAM triad bandwidth in bytes/s with one core and with all cores
        (Table 2's "STREAM BW 1 | all" row).
    interconnect_bw:
        Total bytes/s the cross-node interconnect sustains.
    remote_bw_factor:
        Multiplier (< 1) on a single stream's bandwidth when the page is on
        a remote node.
    seq_turbo_factor:
        Clock multiplier enjoyed by a run using a single thread (turbo
        headroom). This is why the paper's 128-core speedups against the
        sequential GCC baseline cap near ~100-107 (Table 5): the baseline
        runs at boost clock while the full-machine run does not.
    node_bw_boost:
        How much more than ``stream_bw_allcores / nodes`` one node's memory
        controllers sustain when traffic is concentrated on it. The global
        all-core STREAM figure still caps aggregate bandwidth; the boost
        calibrates the default-allocator penalty of Fig. 1 (observed ~1.6x,
        not the naive 2x of splitting the STREAM figure per node).
    """

    name: str
    arch: str
    frequency_hz: float
    ipc: float
    simd_width_bits: int
    topology: Topology
    caches: CacheHierarchy
    stream_bw_1core: float
    stream_bw_allcores: float
    interconnect_bw: float
    remote_bw_factor: float = 0.6
    seq_turbo_factor: float = 1.0
    node_bw_boost: float = 1.2
    description: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        check_positive(self.frequency_hz, "frequency_hz")
        check_positive(self.ipc, "ipc")
        check_positive(self.stream_bw_1core, "stream_bw_1core")
        check_positive(self.stream_bw_allcores, "stream_bw_allcores")
        check_positive(self.interconnect_bw, "interconnect_bw")
        if self.simd_width_bits not in (128, 256, 512):
            raise MachineError(
                f"simd_width_bits must be 128/256/512, got {self.simd_width_bits}"
            )
        if not 0.0 < self.remote_bw_factor <= 1.0:
            raise MachineError("remote_bw_factor must be in (0, 1]")
        if self.stream_bw_allcores < self.stream_bw_1core:
            raise MachineError("all-core bandwidth below single-core bandwidth")
        if self.seq_turbo_factor < 1.0:
            raise MachineError("seq_turbo_factor must be >= 1")
        if self.node_bw_boost < 1.0:
            raise MachineError("node_bw_boost must be >= 1")

    def __hash__(self) -> int:
        """Value hash matching dataclass equality, computed once.

        The wave executor keys its context and profile memos by resolved
        machine objects, so it hashes a machine on every lookup; the
        generated hash would re-fold the topology and cache hierarchy
        each time.
        """
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(tuple(getattr(self, f.name)
                                for f in dataclasses.fields(self) if f.compare))
            object.__setattr__(self, "_hash", cached)
        return cached

    @property
    def total_cores(self) -> int:
        """Physical core count (the paper's maximum thread count)."""
        return self.topology.total_cores

    @property
    def num_numa_nodes(self) -> int:
        """Number of NUMA nodes."""
        return self.topology.num_nodes

    @property
    def node_bandwidth(self) -> float:
        """DRAM bandwidth of one NUMA node's controllers (bytes/s)."""
        return self.stream_bw_allcores / self.topology.num_nodes

    @property
    def scalar_instr_rate(self) -> float:
        """Sustained scalar instructions/s of a single core."""
        return self.frequency_hz * self.ipc

    def simd_lanes(self, elem_size: int) -> int:
        """Vector lanes for elements of ``elem_size`` bytes."""
        if elem_size <= 0:
            raise MachineError("elem_size must be positive")
        return max(1, self.simd_width_bits // (8 * elem_size))

    def ideal_bandwidth_speedup(self) -> float:
        """STREAM-predicted speedup ceiling for memory-bound kernels.

        Section 5.3 uses exactly this figure: on Mach B, STREAM predicts a
        ~7x speedup (204/26), and ``X::find`` tops out around 6.
        """
        return self.stream_bw_allcores / self.stream_bw_1core
