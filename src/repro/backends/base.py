"""Backend model base: a data-driven description of a parallel STL runtime.

Each compiler+runtime combination the paper studies (GCC-TBB, GCC-GNU,
GCC-HPX, ICC-TBB, NVC-OMP, NVC-CUDA, plus the sequential GCC baseline) is
an instance of :class:`Backend` with calibrated parameters. Every knob
corresponds to a mechanism the paper names:

* fork/scheduling overheads -- why sequential wins below ~2^10..2^16
  elements (Figs 2, 4, 6);
* per-element runtime instructions -- Tables 3 and 4;
* bandwidth efficiency / NUMA quality -- why speedups saturate (Figs 3-7);
* sequential fallback thresholds -- GNU below 2^10 (for_each) and 2^9
  (find), TBB sort below 2^9, HPX sort at/below 2^15;
* capability gaps -- GNU has no parallel scan, NVC-OMP's scan is
  sequential (Section 5.4);
* vector widths -- ICC and HPX execute ``reduce`` with 256-bit packed FP
  (Table 4);
* scalability model -- HPX's task-queue contention keeps its speedup
  nearly flat past 16 threads (Fig. 3).
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from repro.errors import BackendError
from repro.execution.partition import (
    BlockCyclicPartitioner,
    FixedGrainPartitioner,
    Partition,
    Partitioner,
    StaticPartitioner,
)
from repro.execution.policy import ExecutionPolicy

__all__ = ["Support", "SortStrategy", "Backend"]


class Support(enum.Enum):
    """How a backend implements a given algorithm."""

    PARALLEL = "parallel"
    SEQUENTIAL_FALLBACK = "sequential-fallback"
    UNSUPPORTED = "unsupported"


class SortStrategy(enum.Enum):
    """Parallel sort structure; drives the sort work profile."""

    #: TBB-style parallel quicksort: recursive partition, subranges in
    #: parallel; partition passes stream DRAM until subranges fit cache.
    PARALLEL_QUICKSORT = "parallel-quicksort"
    #: GNU multiway mergesort: cache-sized sorted runs + one k-way merge;
    #: two DRAM passes total, NUMA-friendly.
    MULTIWAY_MERGESORT = "multiway-mergesort"
    #: Task-based quicksort with small tasks (HPX).
    TASK_QUICKSORT = "task-quicksort"
    #: Quicksort whose top-level partition passes are serial (NVC-OMP).
    SERIAL_PARTITION_QUICKSORT = "serial-partition-quicksort"
    #: Sequential introsort.
    SEQUENTIAL = "sequential"


def _freeze(mapping: Mapping[str, object] | None) -> Mapping[str, object]:
    return MappingProxyType(dict(mapping or {}))


@dataclass(frozen=True)
class Backend:
    """A parallel STL backend's calibrated runtime model.

    Per-algorithm mappings fall back to the ``default_*`` value when the
    algorithm family is absent.
    """

    name: str
    compiler: str
    runtime: str
    is_sequential: bool = False
    affinity_strategy: str = "scatter"

    # --- fork/join & scheduling -------------------------------------------------
    fork_base: float = 8e-6
    fork_per_thread: float = 0.25e-6
    join_base: float = 2e-6
    join_per_thread: float = 0.1e-6
    sched_per_chunk: float = 0.4e-6
    #: Task-queue contention: scheduling cost is multiplied by
    #: ``1 + (threads / contention_threads) ** contention_exp`` when
    #: ``contention_exp > 0`` (HPX).
    contention_exp: float = 0.0
    contention_threads: int = 16
    sync_base: float = 0.05e-6
    sync_per_thread: float = 0.002e-6

    # --- chunking ----------------------------------------------------------------
    chunks_per_thread: int = 1
    #: Fixed chunk size in elements (HPX-style task grains); 0 = derive
    #: from chunks_per_thread.
    fixed_chunk_elems: int = 0
    max_chunks: int = 1 << 20

    # --- compute model -----------------------------------------------------------
    default_instr_overhead: float = 2.0
    instr_overhead: Mapping[str, float] = field(default_factory=dict)
    #: Extra per-element instructions per NUMA node of the machine beyond
    #: the first (captures runtimes whose bookkeeping grows with topology).
    instr_overhead_per_node: float = 0.0
    default_ipc_factor: float = 1.0
    ipc_factors: Mapping[str, float] = field(default_factory=dict)
    #: Effective-parallelism model: threads beyond ``eff_thread_cap``
    #: contribute only ``(p - cap) ** eff_thread_exp`` additional workers.
    eff_thread_cap: int = 0
    eff_thread_exp: float = 1.0

    # --- memory model ------------------------------------------------------------
    default_bw_efficiency: float = 0.85
    bw_efficiencies: Mapping[str, float] = field(default_factory=dict)
    #: Aggregate-bandwidth decay with active NUMA node count: caps are
    #: multiplied by ``active_nodes ** -numa_bw_decay``. Zero for runtimes
    #: that manage multi-node traffic well; ~0.5 for HPX, whose measured
    #: bandwidth (Table 3: 75.6 GiB/s vs. 104-119 for the others) and flat
    #: scaling past one NUMA node both point at cross-node traffic loss.
    numa_bw_decay: float = 0.0
    default_numa_quality: float = 0.90
    numa_qualities: Mapping[str, float] = field(default_factory=dict)
    default_traffic_factor: float = 1.15
    traffic_factors: Mapping[str, float] = field(default_factory=dict)

    # --- codegen -----------------------------------------------------------------
    vector_widths: Mapping[str, int] = field(default_factory=dict)
    default_seq_codegen: float = 1.0
    seq_codegen: Mapping[str, float] = field(default_factory=dict)

    # --- capabilities ------------------------------------------------------------
    seq_fallback_thresholds: Mapping[str, int] = field(default_factory=dict)
    support_overrides: Mapping[str, Support] = field(default_factory=dict)
    sort_strategy: SortStrategy = SortStrategy.PARALLEL_QUICKSORT

    def __post_init__(self) -> None:
        for fname in (
            "instr_overhead",
            "ipc_factors",
            "bw_efficiencies",
            "numa_qualities",
            "traffic_factors",
            "vector_widths",
            "seq_codegen",
            "seq_fallback_thresholds",
            "support_overrides",
        ):
            object.__setattr__(self, fname, _freeze(getattr(self, fname)))
        if not 0.0 < self.default_bw_efficiency <= 1.0:
            raise BackendError("default_bw_efficiency must be in (0, 1]")
        if not 0.0 < self.default_numa_quality <= 1.0:
            raise BackendError("default_numa_quality must be in (0, 1]")
        if self.chunks_per_thread <= 0:
            raise BackendError("chunks_per_thread must be positive")
        if self.fixed_chunk_elems < 0:
            raise BackendError("fixed_chunk_elems must be non-negative")

    def __hash__(self) -> int:
        """Value hash matching dataclass equality.

        The generated hash would choke on the mapping-proxy fields, but
        backends need to be dict/``lru_cache`` keys (the campaign
        executor's wave path memoizes contexts and profiles by resolved
        model objects, so a re-registered or perturbed model can never
        be served stale). Mappings are folded as sorted item tuples.
        The fold is computed once and memoized on the (frozen) instance:
        the wave executor hashes each model on every cache lookup, so a
        recomputed fold would tax the hot path it exists to serve.
        """
        cached = self.__dict__.get("_hash")
        if cached is not None:
            return cached
        parts = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Mapping):
                value = tuple(sorted(value.items()))
            parts.append(value)
        result = hash(tuple(parts))
        object.__setattr__(self, "_hash", result)
        return result

    # --- BackendModel protocol ----------------------------------------------------
    def fork_overhead(self, threads: int) -> float:
        """Seconds to open a parallel region."""
        if self.is_sequential or threads <= 1:
            return 0.0
        return self.fork_base + self.fork_per_thread * threads

    def join_overhead(self, threads: int) -> float:
        """Seconds to barrier/close a parallel region."""
        if self.is_sequential or threads <= 1:
            return 0.0
        return self.join_base + self.join_per_thread * threads

    def sched_overhead(self, chunks: int, threads: int) -> float:
        """Scheduling cost for ``chunks`` units, with optional contention."""
        if chunks <= 0:
            return 0.0
        cost = chunks * self.sched_per_chunk
        if self.contention_exp > 0.0 and threads > 1:
            cost *= 1.0 + (threads / self.contention_threads) ** self.contention_exp
        return cost

    def sync_cost(self, threads: int) -> float:
        """Cost of one synchronisation event."""
        return self.sync_base + self.sync_per_thread * threads

    def instr_overhead_per_elem(self, alg: str) -> float:
        """Runtime bookkeeping instructions per element for ``alg``."""
        base = float(self.instr_overhead.get(alg, self.default_instr_overhead))
        return base

    def instr_overhead_for(self, alg: str, numa_nodes: int) -> float:
        """Per-element overhead including the per-NUMA-node component."""
        return self.instr_overhead_per_elem(alg) + self.instr_overhead_per_node * max(
            0, numa_nodes - 1
        )

    def ipc_factor(self, alg: str) -> float:
        """Relative IPC for ``alg``."""
        return float(self.ipc_factors.get(alg, self.default_ipc_factor))

    def bw_efficiency(self, alg: str) -> float:
        """Sustained fraction of peak DRAM bandwidth for ``alg``."""
        return float(self.bw_efficiencies.get(alg, self.default_bw_efficiency))

    def bw_efficiency_at(self, alg: str, active_nodes: int) -> float:
        """Bandwidth efficiency derated by the NUMA decay model."""
        eff = self.bw_efficiency(alg)
        if self.numa_bw_decay > 0.0 and active_nodes > 1:
            eff *= active_nodes ** (-self.numa_bw_decay)
        return max(1e-6, min(1.0, eff))

    def numa_quality(self, alg: str) -> float:
        """Locality achieved under matched first-touch placement."""
        return float(self.numa_qualities.get(alg, self.default_numa_quality))

    def traffic_factor(self, alg: str) -> float:
        """DRAM traffic multiplier for ``alg``."""
        return float(self.traffic_factors.get(alg, self.default_traffic_factor))

    def vector_width(self, alg: str, policy: ExecutionPolicy) -> int:
        """SIMD width in bits used for ``alg`` under ``policy`` (0=scalar)."""
        del policy  # compilers vectorise under par as well as par_unseq
        return int(self.vector_widths.get(alg, 0))

    def seq_codegen_factor(self, alg: str) -> float:
        """Sequential-code slowdown vs. the GCC -O3 baseline."""
        return float(self.seq_codegen.get(alg, self.default_seq_codegen))

    # --- capability / dispatch helpers ---------------------------------------------
    def support(self, alg: str) -> Support:
        """Whether ``alg`` runs parallel, falls back, or is missing."""
        if self.is_sequential:
            return Support.SEQUENTIAL_FALLBACK
        return self.support_overrides.get(alg, Support.PARALLEL)

    def seq_fallback_threshold(self, alg: str) -> int:
        """Problem size at/below which the backend runs sequentially."""
        return int(self.seq_fallback_thresholds.get(alg, 0))

    def runs_parallel(self, alg: str, n: int, threads: int) -> bool:
        """Dispatch decision for one invocation."""
        if self.is_sequential or threads <= 1:
            return False
        if self.support(alg) is not Support.PARALLEL:
            return False
        return n > self.seq_fallback_threshold(alg)

    def effective_threads(self, threads: int) -> float:
        """Workers that contribute compute after the scalability cap."""
        if threads <= 1:
            return float(threads)
        if self.eff_thread_cap <= 0 or threads <= self.eff_thread_cap:
            return float(threads)
        return self.eff_thread_cap + (threads - self.eff_thread_cap) ** self.eff_thread_exp

    def partitioner(self) -> Partitioner:
        """Partitioner matching this backend's scheduling style."""
        if self.fixed_chunk_elems:
            return FixedGrainPartitioner(self.fixed_chunk_elems, self.max_chunks)
        if self.chunks_per_thread <= 1:
            return StaticPartitioner()
        return BlockCyclicPartitioner(chunks_per_thread=self.chunks_per_thread)

    def make_partition(self, n: int, threads: int) -> Partition:
        """Partition [0, n) the way this backend's runtime would."""
        return self.partitioner().partition(n, threads)

    def num_chunks(self, n: int, threads: int) -> int:
        """Scheduling-unit count without materialising the partition."""
        if n <= 0:
            return 0
        if self.fixed_chunk_elems:
            return min(self.max_chunks, max(1, -(-n // self.fixed_chunk_elems)))
        return min(n, threads * self.chunks_per_thread)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name

