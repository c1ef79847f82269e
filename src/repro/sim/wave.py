"""The cost engine: array profiles evaluated as fused waves.

Every case builds its work once, as an *array* profile
(:class:`ArrayProfile`: per phase, a chunk->thread array, an element
count array and four per-element costs; ``repro.algorithms._build``),
and this module costs it. Whatever the caller holds -- one point, one
sweep curve, or a whole heterogeneous campaign wave of any cases -- is
one wave:

* :func:`fuse_wave` validates every point against its machine and
  resolves each phase's model scalars (SIMD lanes, issue rate,
  per-element instruction overhead, traffic factor) once, into a
  :class:`WaveProgram` that refers to the profiles' chunk arrays
  without copying them;
* :func:`simulate_wave` evaluates the program in **blocks**: phases
  with the same chunk count are stacked as a (rows x chunks) matrix of
  at most :data:`BLOCK_ENTRIES` entries, with the phase scalars
  broadcast as columns.

  - *Per block*, the elementwise stage (instruction totals, FP lane
    execution, traffic scaling, time conversion) writes each row's
    per-chunk instruction seconds and memory bytes in place
    (:func:`_block_stage`).
  - *Per layout group* (the block's rows that share one chunk->thread
    partition), the per-thread folds run, and the tail computes every
    row's compute, memory, overhead and phase seconds as columns: the
    max reductions, ``effective_threads`` scaling, cache-level
    bandwidth, spread penalty and scheduling and sync overheads
    (:func:`_tail`).
  - *Per phase*, only a phase whose working set spills to DRAM runs the
    NUMA bandwidth model, row by row.
  - *Per entry*, its phase seconds are summed in phase order, then
    fork/join.

  The result (:class:`WaveResult`) holds every entry's seconds, which
  is all the fused feeders read, and the per-phase columns. An entry's
  :class:`~repro.sim.report.SimReport` -- its ``PhaseReport`` per phase
  and its ``Counters``, folded from the phase's chunk arrays -- is
  built only when a caller reads ``result[i]``: a one-entry wave
  (:func:`simulate_cpu_arrays`), the tracer's narration, and the
  checks that compare reports.

The index bookkeeping the folds need is not recomputed per wave: each
distinct partition's chunk->thread fold layout and each distinct
placement's thread->node map are built once per process and kept in
two process-wide memos (:func:`_layout`, :func:`_nodes_of`), LRUs of at
most :data:`WAVE_CHUNK_BUDGET` entries. A sweep or a campaign repeats
its partitions across waves and scenarios, so most waves build none.
No float is memoised, so every report is the same warm or cold.

Working memory is therefore the block budget plus the layout memo (8
bytes per chunk entry: the int32 key and the int32 fold index), never a
copy of the whole wave: evaluating 64 GCC-HPX points at 2^30 elements
(32,768 fixed-grain tasks each, 64 distinct partitions, twice the memo
budget) peaks at about 5.3 bytes per chunk entry.

A sweep curve is a wave whose points share a cell; a single point --
every CPU ``ExecutionContext.simulate`` call -- is a one-entry wave
(:func:`simulate_cpu_arrays`). Profiles are validated when they are
built (:class:`ArrayPhase`, :class:`ArrayProfile`), with the checks and
messages of the scalar IR in ``repro.sim.work``.

**Bit-identical by construction.** ``repro.sim.engine.simulate_cpu``,
which walks one ``ChunkWork`` object per chunk, is kept as the
reference this engine is checked against (``tools/diffcheck.py``, the
differential tests); no product path calls it. Every floating-point
operation here reproduces the reference's operations exactly:

* elementwise IEEE-754 ops (``a * b``, ``a / b``, ``a + b``) are
  bit-identical whether issued from Python floats or float64 arrays, and
  whether a scalar operand is a Python float or a broadcast column --
  so the per-chunk ``elems x cost`` products each block forms are the
  reference's ``ChunkWork`` fields;
* order-sensitive accumulations (``acc += x`` loops) are reproduced with
  ``np.cumsum`` along the chunk axis of each block row, which is a
  sequential left fold -- **never** ``np.sum`` or ``np.add.reduce``,
  whose pairwise summation rounds differently;
* per-thread left folds scatter each row into an occurrence-slot
  matrix and cumsum it along the slot axis; padding slots hold ``+0.0``,
  and ``x + 0.0 == x`` exactly for the non-negative partial sums that
  occur here;
* dict-ordered folds over threads (``sum(mem_bytes.values())`` and the
  NUMA node-demand accumulation) follow the reference's dict insertion
  order, i.e. first appearance of each thread in chunk order.

Observability: :func:`fuse_wave` and :func:`simulate_wave` emit the
``wave.fuse`` and ``wave.execute`` spans (category ``"wave"``, track
:data:`WAVE_TRACK`) documented in docs/OBSERVABILITY.md. Under a
tracer, every entry costed -- fused or alone -- also records one
``phase`` span per phase, one ``lane`` span per thread and a
``fork/join`` overhead span, placed at its simulated start time. A
fused wave advances the clock by its total, a one-entry wave by its
report's seconds.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.execution.affinity import ThreadPlacement
from repro.machines.cpu import CpuMachine
from repro.memory.layout import PagePlacement
from repro.sim.bandwidth import MATCHED_POLICIES, MemoryTimes
from repro.sim.interfaces import BackendModel
from repro.sim.report import Counters, PhaseReport, SimReport
from repro.sim.work import PhaseKind
from repro.trace.core import PHASE_TRACK, get_tracer, thread_track
from repro.types import ElemType

__all__ = [
    "ArrayPhase",
    "ArrayProfile",
    "WAVE_TRACK",
    "BLOCK_ENTRIES",
    "WAVE_CHUNK_BUDGET",
    "WeightedLRU",
    "WaveEntry",
    "WaveProgram",
    "WaveResult",
    "fuse_wave",
    "simulate_wave",
    "simulate_wave_entries",
    "simulate_cpu_arrays",
]

#: Trace track that ``wave.fuse`` / ``wave.execute`` spans are recorded on.
WAVE_TRACK = "wave"

#: Most chunk entries one evaluation block stacks (rows x chunks). The
#: block stage holds three (rows x chunks) float64 buffers -- instruction
#: seconds, memory bytes and one scratch -- plus the stacked element
#: counts, so each is at most 16 KiB. A phase with more chunks than this
#: is a one-row block, which reads its phase's element array in place.
#: Wave throughput measured flat from 2^11 to 2^16 on campaign-shaped
#: waves (2-vCPU x86-64), so the budget sits at the small end.
BLOCK_ENTRIES = 1 << 11

#: Entries of array data kept alive at once: the chunk entries one fused
#: campaign sub-wave holds, and what each process-wide memo retains (the
#: campaign executor's array profiles and this module's fold layouts in
#: chunk entries, its node maps in threads). A GCC-HPX profile at 2^30
#: elements alone is 32,769 chunk entries (~1.5 MiB); its fold layout,
#: 256 KiB.
WAVE_CHUNK_BUDGET = 1 << 20


# ---------------------------------------------------------------------------
# Array profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ArrayPhase:
    """Array-backed counterpart of :class:`~repro.sim.work.Phase`.

    ``thread`` (int64) and ``elems`` (float64) are parallel arrays: entry
    ``i`` describes chunk ``i`` in chunk order (which is also execution
    order for the order-sensitive folds). Every other per-chunk quantity
    is ``elems`` times one of the four per-element costs, the same
    elementwise product the reference's
    :class:`~repro.sim.work.ChunkWork` fields hold. The arrays are
    usually shared with the partition the phase was cut from, so they
    are read-only.

    Construction applies the checks of ``ChunkWork`` and ``Phase``,
    once over the arrays and with their messages: non-negative thread
    ids, elements, working set and scheduling counts, and one thread
    for a sequential phase.
    """

    name: str
    kind: PhaseKind
    thread: np.ndarray
    elems: np.ndarray
    instr_per_elem: float
    fp_per_elem: float
    read_per_elem: float
    write_per_elem: float
    placement: PagePlacement | None
    working_set: float
    sched_chunks: int = 0
    sync_points: int = 0
    spread_penalty: float = 1.0
    apply_instr_overhead: bool = True
    vectorizable: bool = True

    def __post_init__(self) -> None:
        if len(self.elems) == 0 or len(self.thread) != len(self.elems):
            raise ConfigurationError("chunk arrays must be non-empty and aligned")
        if min(self.instr_per_elem, self.fp_per_elem, self.read_per_elem,
               self.write_per_elem) < 0:
            raise ConfigurationError("per-element costs must be non-negative")
        if self.spread_penalty < 1.0:
            raise ConfigurationError("spread_penalty must be >= 1")
        thread, elems = self.thread, self.elems
        low = thread.min()
        if low < 0 or not elems.min() >= 0:  # a NaN minimum looks closer
            bad = (thread < 0) | (elems < 0)
            if bad.any():
                first = int(bad.argmax())
                raise SimulationError("thread id must be non-negative"
                                      if thread[first] < 0 else
                                      "elems must be non-negative")
        if self.kind is PhaseKind.SEQUENTIAL and thread.max() != low:
            raise SimulationError(
                f"sequential phase {self.name!r} must use exactly one thread"
            )
        if self.working_set < 0:
            raise SimulationError("working_set must be non-negative")
        if self.sched_chunks < 0 or self.sync_points < 0:
            raise SimulationError("sched_chunks/sync_points must be non-negative")

    def __len__(self) -> int:
        return len(self.elems)

    @property
    def total_elems(self) -> float:
        """Total elements processed in this phase (a left fold)."""
        return _fold(self.elems)


@dataclass(frozen=True, slots=True)
class ArrayProfile:
    """Array-backed counterpart of :class:`~repro.sim.work.WorkProfile`.

    Construction applies ``WorkProfile``'s checks with its messages:
    ``n >= 0``, ``threads > 0``, at least one phase, ``regions >= 0``,
    and every chunk's thread below ``threads``.
    """

    alg: str
    n: int
    elem: ElemType
    threads: int
    policy: object
    phases: tuple[ArrayPhase, ...]
    regions: int = 1
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 0:
            raise SimulationError("n must be non-negative")
        if self.threads <= 0:
            raise SimulationError("threads must be positive")
        if not self.phases:
            raise SimulationError("profile needs at least one phase")
        if self.regions < 0:
            raise SimulationError("regions must be non-negative")
        for phase in self.phases:
            thread = phase.thread
            if thread.max() >= self.threads:
                first = thread[int((thread >= self.threads).argmax())]
                raise SimulationError(
                    f"phase {phase.name!r} uses thread {int(first)} "
                    f"but profile has {self.threads} threads"
                )

    @property
    def is_parallel(self) -> bool:
        """Whether any phase runs on more than one thread."""
        return self.regions > 0 and any(
            p.kind is PhaseKind.PARALLEL for p in self.phases
        )

    @property
    def chunk_entries(self) -> int:
        """Chunk entries across all phases: the profile's array footprint."""
        return sum(len(p) for p in self.phases)


# ---------------------------------------------------------------------------
# Exact fold kernels
# ---------------------------------------------------------------------------

def _fold(values: np.ndarray) -> float:
    """Sequential left-fold sum (bit-identical to ``acc += x`` loops)."""
    if len(values) == 0:
        return 0.0
    return float(np.cumsum(values)[-1])


def _thread_layout(thread: np.ndarray):
    """Execution-order layout of the chunk->thread assignment.

    Returns ``(thread_order, tidx, slot)`` where ``thread_order`` lists
    the distinct thread ids in first-appearance order (the reference
    engine's dict insertion order), ``tidx[i]`` is chunk ``i``'s index
    into ``thread_order`` and ``slot[i]`` counts that chunk's earlier
    same-thread chunks.
    """
    uniq, first_idx, inverse = np.unique(
        thread, return_index=True, return_inverse=True
    )
    appearance = np.argsort(first_idx, kind="stable")
    # Map sorted-unique positions to first-appearance positions.
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[appearance] = np.arange(len(uniq), dtype=np.int64)
    tidx = rank[inverse]
    thread_order = uniq[appearance]

    order = np.argsort(tidx, kind="stable")
    sorted_t = tidx[order]
    boundary = np.empty(len(sorted_t), dtype=bool)
    boundary[0] = True
    boundary[1:] = sorted_t[1:] != sorted_t[:-1]
    group_starts = np.flatnonzero(boundary)
    start_per_elem = np.repeat(
        group_starts,
        np.diff(np.concatenate([group_starts, [len(sorted_t)]])),
    )
    ranks = np.arange(len(sorted_t), dtype=np.int64) - start_per_elem
    slot = np.empty(len(sorted_t), dtype=np.int64)
    slot[order] = ranks
    return thread_order, tidx, slot


def _thread_fold(values: np.ndarray, layout) -> np.ndarray:
    """Per-thread sequential left folds of each row of ``values``.

    ``values`` is a (rows x chunks) block whose rows share one
    :func:`_layout`. Each row is scattered into a (slots, threads) matrix
    holding each thread's contributions in occurrence order, and the
    matrix is cumulative-summed down the slot axis; the padding zeros
    are exact for the non-negative partials folded here. Returns a
    (rows x threads) array in first-appearance thread order.
    """
    thread_order, flat, depth = layout
    rows, threads = len(values), len(thread_order)
    matrix = np.zeros((rows, depth * threads))
    matrix[:, flat] = values
    return np.cumsum(matrix.reshape(rows, depth, threads), axis=1)[:, -1]


def _dram_memory_time_arrays(
    machine: CpuMachine,
    placement: PagePlacement,
    thread_bytes: np.ndarray,
    thread_nodes: np.ndarray,
    matched_quality: float | None,
    bw_efficiency: float,
) -> MemoryTimes:
    """``repro.sim.bandwidth.dram_memory_time`` over thread arrays.

    ``thread_bytes``/``thread_nodes`` are indexed by the engine's
    first-appearance thread order, so the node-demand and remote-bytes
    folds reproduce the reference implementation's accumulation order.
    """
    if len(thread_bytes) == 0:
        raise SimulationError("phase has no memory traffic to time")
    if not 0.0 < bw_efficiency <= 1.0:
        raise SimulationError(f"bw_efficiency must be in (0, 1], got {bw_efficiency}")
    if matched_quality is not None and not 0.0 <= matched_quality <= 1.0:
        raise SimulationError("matched_quality must be in [0, 1]")
    if np.any(thread_bytes < 0):
        raise SimulationError("thread bytes must be non-negative")

    nnodes = machine.topology.num_nodes
    nbytes = thread_bytes
    count = len(nbytes)
    active = nbytes > 0.0

    if matched_quality is not None:
        local = np.full(count, matched_quality)
    else:
        fractions = np.asarray(placement.node_fractions, dtype=float)
        local = fractions[thread_nodes]
    remote = 1.0 - local

    remote_bytes = _fold(np.where(active, nbytes * remote, 0.0))

    stream_bw = (
        machine.stream_bw_1core
        * (local + remote * machine.remote_bw_factor)
        * bw_efficiency
    )
    per_thread_time = float(
        np.max(np.where(active, nbytes / stream_bw, 0.0), initial=0.0)
    )

    # Node demand: each thread first adds its local share to its own node,
    # then its remote shares -- two fold rows per thread keep the per-cell
    # accumulation order identical to the reference loop.
    rows = np.zeros((2 * count, nnodes))
    idx = np.arange(count)
    rows[2 * idx, thread_nodes] = np.where(active, nbytes * local, 0.0)
    remote_active = active & (remote > 0.0)
    if matched_quality is not None:
        others = nnodes - 1
        if others > 0:
            share = np.where(remote_active, nbytes * remote / others, 0.0)
            spread = np.tile(share[:, None], (1, nnodes))
            spread[idx, thread_nodes] = 0.0
            rows[2 * idx + 1] = spread
        else:
            rows[2 * idx + 1, thread_nodes] = np.where(
                remote_active, nbytes * remote, 0.0
            )
    else:
        denom = np.maximum(1e-30, 1.0 - local)
        for j in range(nnodes):
            vals = nbytes * placement.fraction_on(j) / denom * remote
            vals = np.where(remote_active & (thread_nodes != j), vals, 0.0)
            rows[2 * idx + 1, j] = vals
    node_demand = np.cumsum(rows, axis=0)[-1]

    total_bytes = _fold(nbytes)
    node_cap = (
        machine.node_bw_boost
        * (machine.stream_bw_allcores / nnodes)
        * bw_efficiency
    )
    global_cap = machine.stream_bw_allcores * bw_efficiency
    node_cap = min(node_cap, global_cap)

    per_node_time = float(np.max(node_demand / node_cap, initial=0.0))
    global_time = total_bytes / global_cap
    interconnect_time = remote_bytes / machine.interconnect_bw

    return MemoryTimes(
        per_thread=per_thread_time,
        per_node=per_node_time,
        global_dram=global_time,
        interconnect=interconnect_time,
    )


# ---------------------------------------------------------------------------
# Wave fusion
# ---------------------------------------------------------------------------

def _lanes(machine: CpuMachine, backend: BackendModel, phase, profile) -> int:
    """SIMD lanes the backend uses for this phase's FP work (1 = scalar).

    Reads only ``phase.vectorizable`` and the profile's ``alg``,
    ``policy`` and ``elem``, so the reference engine shares it.
    """
    if not phase.vectorizable:
        return 1
    width = backend.vector_width(profile.alg, profile.policy)
    if width <= 0:
        return 1
    width = min(width, machine.simd_width_bits)
    return max(1, width // (8 * profile.elem.size))


@dataclass(frozen=True, slots=True)
class WaveEntry:
    """One point of a wave: an array profile plus its execution target."""

    machine: CpuMachine
    backend: BackendModel
    profile: ArrayProfile


@dataclass(frozen=True, slots=True)
class _PhaseSlot:
    """One phase of one entry with its model scalars resolved."""

    entry: int
    phase: ArrayPhase
    lanes: int
    rate: float
    ovh_per_elem: float
    traffic: float


@dataclass(frozen=True, slots=True)
class WaveProgram:
    """A whole wave with every phase's model scalars resolved.

    ``slots`` lists the phases of every entry in entry-then-phase order,
    entry ``i``'s at ``slots[offsets[i]:offsets[i + 1]]``. Each slot
    refers to its phase's chunk arrays (never a copy) and holds the four
    scalars the elementwise stage needs: SIMD lanes, issue rate,
    per-element instruction overhead and traffic factor.
    :func:`simulate_wave` stacks slots of equal chunk count into blocks
    and broadcasts those scalars as columns, so a program costs no
    memory beyond its profiles until it is evaluated.
    """

    entries: tuple[WaveEntry, ...]
    slots: tuple[_PhaseSlot, ...]
    offsets: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.entries)


def _pack(entries: tuple[WaveEntry, ...]) -> WaveProgram:
    """Span-free core of :func:`fuse_wave`."""
    slots: list[_PhaseSlot] = []
    offsets = [0]
    for i, entry in enumerate(entries):
        machine, backend, profile = entry.machine, entry.backend, entry.profile
        if profile.threads > machine.total_cores:
            raise SimulationError(
                f"profile uses {profile.threads} threads but {machine.name} "
                f"has {machine.total_cores} cores"
            )
        turbo = machine.seq_turbo_factor if profile.threads == 1 else 1.0
        base_rate = machine.frequency_hz * machine.ipc * turbo
        alg = profile.alg
        for phase in profile.phases:
            phase_rate = base_rate * backend.ipc_factor(alg)
            if phase.kind is PhaseKind.SEQUENTIAL:
                phase_rate /= backend.seq_codegen_factor(alg)
            slots.append(_PhaseSlot(
                entry=i, phase=phase,
                lanes=_lanes(machine, backend, phase, profile),
                rate=phase_rate,
                ovh_per_elem=(
                    backend.instr_overhead_for(alg, machine.topology.num_nodes)
                    if phase.apply_instr_overhead else 0.0
                ),
                traffic=backend.traffic_factor(alg),
            ))
        offsets.append(len(slots))
    return WaveProgram(entries=entries, slots=tuple(slots),
                       offsets=tuple(offsets))


def fuse_wave(entries: list[WaveEntry] | tuple[WaveEntry, ...]) -> WaveProgram:
    """Pack a wave of array profiles into one :class:`WaveProgram`.

    Validates each profile against its machine (an oversubscribed
    profile raises :class:`~repro.errors.SimulationError`, as in the
    reference engine) and computes every phase's model scalars once; the
    chunk arrays stay where the profiles hold them. Emits a
    zero-duration ``wave.fuse`` span (fusion is bookkeeping, not
    simulated time) when tracing is enabled.
    """
    program = _pack(tuple(entries))
    tracer = get_tracer()
    if tracer.enabled and program.entries:
        tracer.record(
            "wave.fuse", 0.0, category="wave", track=WAVE_TRACK,
            points=len(program.entries), phases=len(program.slots),
            chunks=sum(e.profile.chunk_entries for e in program.entries),
        )
    return program


# ---------------------------------------------------------------------------
# Wave evaluation
# ---------------------------------------------------------------------------

class WeightedLRU:
    """Thread-safe LRU memo, weighted by a size per value.

    Holds values of at most ``budget`` total ``size(value)``: storing a
    value evicts the least recently used ones until the total fits
    again, and a value larger than the whole budget is never stored.
    ``hits``/``misses`` count :meth:`get` outcomes, so for a caller that
    builds on every miss, ``misses`` counts its builds. Callers build
    outside the lock (the daemon costs waves from several threads at
    once); when two build the same key, :meth:`put` keeps the first.
    A plain dict in recency order (a hit re-inserts its key at the end)
    keeps the per-value overhead to one dict entry.
    """

    def __init__(self, budget: int, size: Callable[[object], int]) -> None:
        self.budget = budget
        self.size = size
        self.hits = 0
        self.misses = 0
        self.weight = 0
        self._lock = threading.Lock()
        self._values: dict = {}

    def __len__(self) -> int:
        return len(self._values)

    def get(self, key):
        """The value stored under ``key`` (now most recent), else None."""
        with self._lock:
            value = self._values.pop(key, None)
            if value is None:
                self.misses += 1
                return None
            self._values[key] = value
            self.hits += 1
            return value

    def put(self, key, value):
        """Store ``value`` under ``key``, evicting to stay in budget.

        Returns the value now stored under ``key`` (the first one, when
        a concurrent caller stored it first), or ``value`` when it is
        over budget.
        """
        weight = self.size(value)
        if weight > self.budget:
            return value
        with self._lock:
            stored = self._values.get(key)
            if stored is not None:
                return stored
            self._values[key] = value
            self.weight += weight
            while self.weight > self.budget:
                oldest = next(iter(self._values))
                self.weight -= self.size(self._values.pop(oldest))
            return value

    def clear(self) -> None:
        """Drop every value (the hit and miss counts stay)."""
        with self._lock:
            self._values.clear()
            self.weight = 0


#: What a memo entry holds besides its arrays, in array units. Measured
#: with tracemalloc on CPython 3.11: a fold layout holds about 380 B of
#: key, tuple and array headers beside its 8 B per chunk entry, and a
#: node map about 260 B beside its 16 B per thread. Without this term a
#: memo of tiny values could hold some 50 times its budget in bytes.
LAYOUT_ENTRY_UNITS = 48
NODE_MAP_ENTRY_UNITS = 16

#: Fold layouts by thread-id bytes; weighed in chunk entries (8 B each).
_LAYOUTS = WeightedLRU(WAVE_CHUNK_BUDGET,
                       lambda layout: len(layout[1]) + LAYOUT_ENTRY_UNITS)

#: thread-order -> NUMA node maps by placement; weighed in threads (16 B each).
_NODE_MAPS = WeightedLRU(WAVE_CHUNK_BUDGET,
                         lambda nodes: len(nodes) + NODE_MAP_ENTRY_UNITS)

_INT32 = np.iinfo(np.int32)


def _layout(thread: np.ndarray):
    """Fold layout of one phase's chunk->thread map, memoised per process.

    Returns ``(thread_order, flat, depth)``: the distinct thread ids in
    first-appearance order (the reference engine's dict insertion order),
    each chunk's cell in the flattened (depth, threads) occurrence-slot
    matrix of :func:`_thread_fold`, and the deepest thread's chunk count.
    The layout is a pure function of the thread-id array, so every phase
    cut from an equal partition -- in any wave, sweep or campaign of
    this process -- shares one read-only tuple from :data:`_LAYOUTS`.
    The key is the ids' exact bytes narrowed to int32 (never a digest),
    so sharing works even when builders materialised separate arrays,
    and the fold index is stored as int32: 8 bytes per chunk entry. A
    partition either narrowing would not represent exactly is built
    every time and never stored.
    """
    thread = np.asarray(thread, dtype=np.int64)
    key = None
    if _INT32.min <= thread.min() and thread.max() <= _INT32.max:
        key = thread.astype(np.int32).tobytes()
        hit = _LAYOUTS.get(key)
        if hit is not None:
            return hit
    thread_order, tidx, slot = _thread_layout(thread)
    threads, depth = len(thread_order), int(slot.max()) + 1
    flat = slot * threads + tidx
    if key is None or depth * threads - 1 > _INT32.max:
        return thread_order, flat, depth
    flat = flat.astype(np.int32)
    thread_order.flags.writeable = flat.flags.writeable = False
    return _LAYOUTS.put(key, (thread_order, flat, depth))


def _nodes_of(
    machine: CpuMachine,
    backend: BackendModel,
    threads: int,
    thread_order: np.ndarray,
) -> np.ndarray:
    """thread-order -> NUMA node array, memoised per placement.

    The placement reads only the machine's topology, so the key is that
    resolved :class:`~repro.machines.topology.Topology` with the
    affinity strategy, thread count and thread order -- never the
    machine's name, which a perturbed model can share. The array is
    read-only.
    """
    strategy = backend.affinity_strategy
    key = (machine.topology, strategy, threads, thread_order.tobytes())
    nodes = _NODE_MAPS.get(key)
    if nodes is None:
        placement = ThreadPlacement(machine, threads, strategy=strategy)
        nodes = np.array(
            [placement.node_of_thread(int(t) % threads) for t in thread_order],
            dtype=np.int64,
        )
        nodes.flags.writeable = False
        nodes = _NODE_MAPS.put(key, nodes)
    return nodes


def _blocks(slots: tuple[_PhaseSlot, ...]):
    """Slot indices grouped by chunk count and cut into blocks.

    Yields the blocks of each chunk count in first-appearance order; a
    block holds at most ``BLOCK_ENTRIES // chunks`` rows (at least one).
    """
    groups: dict[int, list[int]] = {}
    for index, slot in enumerate(slots):
        groups.setdefault(len(slot.phase), []).append(index)
    for chunks, indices in groups.items():
        rows = max(1, BLOCK_ENTRIES // chunks)
        for lo in range(0, len(indices), rows):
            yield indices[lo:lo + rows]


def _column(owners, name: str) -> np.ndarray:
    """One attribute per owner, as a float64 column over a block's rows."""
    return np.array([getattr(o, name) for o in owners],
                    dtype=np.float64)[:, None]


def _block_stage(slots: list[_PhaseSlot]):
    """Elementwise stage and per-thread folds of one block of phases.

    The phases share a chunk count; their element counts are stacked as
    rows (a one-row block reads its phase's array in place) and their
    scalars broadcast as columns. Three buffers -- instruction seconds,
    memory bytes and a scratch -- hold every temporary: each ufunc
    writes into one of them (``out=``), with the reference's per-chunk
    IEEE-754 operations in its order. No counter is folded here
    (:func:`_counters` folds an entry's when its report is read).

    Yields, per fold layout the rows use, ``(rows, layout, instr_time,
    mem_bytes)``: the block rows that share the layout and their
    per-thread instruction seconds and memory bytes (rows x threads, in
    first-appearance thread order).
    """
    phases = [s.phase for s in slots]
    if len(phases) == 1:
        elems = np.asarray(phases[0].elems, dtype=np.float64)[None, :]
    else:
        elems = np.stack([p.elems for p in phases], dtype=np.float64)
    # instr_vals = (elems * instr + elems * ovh + executed) / rate
    instr_vals = np.multiply(elems, _column(phases, "instr_per_elem"))
    scratch = np.multiply(elems, _column(slots, "ovh_per_elem"))
    np.add(instr_vals, scratch, out=instr_vals)
    # executed = where(fp_ops > 0, fp_ops / lanes, 0.0): fmax maps a NaN
    # quotient (an infinite element count times a zero cost) to 0.0, and
    # adding +0.0 turns a -0.0 one into 0.0. A positive quotient stays.
    np.multiply(elems, _column(phases, "fp_per_elem"), out=scratch)
    np.divide(scratch, _column(slots, "lanes"), out=scratch)
    np.fmax(scratch, 0.0, out=scratch)
    np.add(scratch, 0.0, out=scratch)
    np.add(instr_vals, scratch, out=instr_vals)
    np.divide(instr_vals, _column(slots, "rate"), out=instr_vals)
    # mem_vals = (elems * read + elems * write) * traffic
    mem_vals = np.multiply(elems, _column(phases, "read_per_elem"))
    np.multiply(elems, _column(phases, "write_per_elem"), out=scratch)
    np.add(mem_vals, scratch, out=mem_vals)
    np.multiply(mem_vals, _column(slots, "traffic"), out=mem_vals)
    del scratch  # before the folds allocate theirs

    # A block's rows mostly share a few partition arrays (a campaign
    # grid's 6,318 rows: 354 arrays), so each array is looked up once.
    of_array: dict[int, tuple] = {}
    by_layout: dict[int, tuple] = {}
    for row, slot in enumerate(slots):
        thread = slot.phase.thread
        layout = of_array.get(id(thread))
        if layout is None:
            layout = of_array[id(thread)] = _layout(thread)
        by_layout.setdefault(id(layout), (layout, []))[1].append(row)
    for layout, rows in by_layout.values():
        whole = len(rows) == len(slots)  # every row, in order: no gather
        yield (rows, layout,
               _thread_fold(instr_vals if whole else instr_vals[rows], layout),
               _thread_fold(mem_vals if whole else mem_vals[rows], layout))


def _tail(entries: tuple[WaveEntry, ...], slots: list[_PhaseSlot], layout,
          instr_time: np.ndarray, mem_bytes: np.ndarray):
    """The roofline, NUMA and overhead stage of rows sharing a fold layout.

    ``instr_time`` and ``mem_bytes`` are the rows' per-thread folds
    (rows x threads). Every row's compute, memory, overhead and phase
    seconds are computed as columns, with the reference's per-phase
    operations: exact max reductions, the ``effective_threads`` scaling,
    the fitting cache level's bandwidth, the spread penalty and the
    scheduling and sync overheads. Only the rows whose working set
    spills to DRAM go through the NUMA model one by one
    (:func:`_dram_memory_time_arrays`). A scale, penalty or overhead a
    row does not have is ``1.0``, ``1.0`` or ``0.0``, which leave its
    values unchanged. A row whose model can fold a negative counter (a
    negative traffic factor or instruction overhead) has its counters
    folded, so it raises where its report would.

    Returns a (4 x rows) array of phase, compute, memory and overhead
    seconds, and the rows' lanes (rows x threads): each thread's scaled
    instruction seconds and its memory seconds (zero when the row
    streams nothing), which a traced phase narrates.
    """
    thread_order = layout[0]
    active = max(1, len(thread_order))
    streams = (np.cumsum(mem_bytes, axis=1)[:, -1] > 0.0).tolist()
    scale, penalty, overhead = [], [], []
    cached, bandwidth, dram = [], [], []
    for row, slot in enumerate(slots):
        entry = entries[slot.entry]
        machine, backend = entry.machine, entry.backend
        phase, threads = slot.phase, entry.profile.threads
        if slot.traffic < 0.0 or slot.ovh_per_elem < 0.0:
            _counters(slot)
        scaling = 1.0
        if phase.kind is PhaseKind.PARALLEL and threads > 1:
            scaling = max(1.0, threads / backend.effective_threads(threads))
        scale.append(scaling)
        placement = phase.placement
        if placement is not None and streams[row]:
            level = machine.caches.fitting_level(int(phase.working_set),
                                                 active)
            if level is None:
                dram.append(row)
            else:
                cached.append(row)
                bandwidth.append(level.bandwidth_per_core)
        factor = 1.0
        if (
            phase.spread_penalty > 1.0
            and placement is not None
            and max(placement.node_fractions) < 1.0 - 1e-3
        ):
            weight = min(1.0, 2.0 / machine.topology.num_nodes)
            factor = 1.0 + (phase.spread_penalty - 1.0) * weight
        penalty.append(factor)
        cost = 0.0
        if phase.sched_chunks:
            cost += backend.sched_overhead(phase.sched_chunks, threads)
        if phase.sync_points:
            cost += phase.sync_points * backend.sync_cost(threads)
        overhead.append(cost)

    scale = np.array(scale)
    compute = instr_time.max(axis=1) * scale
    instr_time = instr_time * scale[:, None]
    memory = np.zeros(len(slots))
    roofline = compute.copy()
    lane_mem = np.zeros_like(mem_bytes)
    if cached:
        from_cache = mem_bytes[cached] / np.array(bandwidth)[:, None]
        memory[cached] = from_cache.max(axis=1)
        roofline[cached] = np.maximum(instr_time[cached],
                                      from_cache).max(axis=1)
        lane_mem[cached] = from_cache
    for row in dram:
        entry, phase = entries[slots[row].entry], slots[row].phase
        machine, backend, profile = entry.machine, entry.backend, entry.profile
        alg = profile.alg
        thread_nodes = _nodes_of(machine, backend, profile.threads,
                                 thread_order)
        active_nodes = len(set(thread_nodes.tolist()))
        matched = None
        if phase.placement.policy in MATCHED_POLICIES:
            matched = backend.numa_quality(alg) ** max(0, active_nodes - 1)
        times = _dram_memory_time_arrays(
            machine,
            phase.placement,
            mem_bytes[row],
            thread_nodes,
            matched_quality=matched,
            bw_efficiency=backend.bw_efficiency_at(alg, active_nodes),
        )
        memory[row] = times.total
        lane = lane_mem[row] = mem_bytes[row] * (
            times.per_thread / max(1e-30, float(mem_bytes[row].max())))
        roofline[row] = max(
            float(np.maximum(instr_time[row], lane).max()),
            times.per_node,
            times.global_dram,
            times.interconnect,
        )

    seconds = np.maximum(compute, roofline)
    seconds *= penalty
    seconds += overhead
    if (seconds < 0.0).any():
        raise SimulationError("phase time must be non-negative")
    return np.stack([seconds, compute, memory, overhead]), instr_time, lane_mem


def _counters(slot: _PhaseSlot) -> Counters:
    """One phase's hardware counters, folded from its chunk arrays.

    The per-chunk products are the block stage's, and each counter is a
    left fold along the phase's chunks, so they equal the reference's
    counters whichever block the phase was costed in.
    """
    phase, lanes, traffic = slot.phase, slot.lanes, slot.traffic
    elems = np.asarray(phase.elems, dtype=np.float64)
    fp_ops = elems * phase.fp_per_elem
    executed = np.where(fp_ops > 0.0, fp_ops / lanes, 0.0)
    # A one-lane phase counts ``executed`` as scalar FP: x / 1.0 == x.
    fp = _fold(executed)
    return Counters(
        instructions=_fold(elems * phase.instr_per_elem
                           + elems * slot.ovh_per_elem + executed),
        fp_scalar=fp if lanes <= 1 else 0.0,
        fp_packed_128=fp if lanes == 2 else 0.0,
        fp_packed_256=fp if lanes > 2 else 0.0,
        bytes_read=_fold(elems * phase.read_per_elem * traffic),
        bytes_written=_fold(elems * phase.write_per_elem * traffic),
    )


class WaveResult(Sequence):
    """What :func:`simulate_wave` returns: seconds now, reports on demand.

    ``seconds`` holds every entry's total simulated seconds, computed
    with no counter fold and no report object; it is all a fused feeder
    reads. ``result[i]`` (and iteration) builds entry ``i``'s
    :class:`SimReport` from the wave's per-phase columns (``columns``:
    phase, compute, memory and overhead seconds per slot of
    ``program``), folding that entry's counters from its chunk arrays
    (:func:`_counters`). Nothing is cached: each read builds an equal,
    new report. ``len(result)`` counts the entries.
    """

    __slots__ = ("program", "seconds", "fork_join", "columns")

    def __init__(self, program: WaveProgram, seconds: tuple[float, ...],
                 fork_join: tuple[float, ...], columns: np.ndarray) -> None:
        self.program = program
        self.seconds = seconds
        self.fork_join = fork_join
        self.columns = columns

    def __len__(self) -> int:
        return len(self.seconds)

    def __getitem__(self, index: int) -> SimReport:
        index = range(len(self.seconds))[index]
        lo, hi = self.program.offsets[index], self.program.offsets[index + 1]
        total = Counters()
        phases = []
        for slot, (seconds, compute, memory, overhead) in zip(
            self.program.slots[lo:hi], self.columns[:, lo:hi].T.tolist()
        ):
            counters = _counters(slot)
            total = total + counters
            phases.append(PhaseReport(
                name=slot.phase.name,
                seconds=seconds,
                compute_seconds=compute,
                memory_seconds=memory,
                overhead_seconds=overhead,
                counters=counters,
            ))
        return SimReport(
            seconds=self.seconds[index],
            counters=total,
            phases=tuple(phases),
            fork_join_seconds=self.fork_join[index],
        )


def _entry_seconds(program: WaveProgram, phase_seconds: list[float]):
    """Every entry's fork/join and total seconds, in the reference's order.

    A total is a left fold from ``0.0`` over the entry's phase seconds in
    phase order, then its fork/join.
    """
    offsets = program.offsets
    totals, fork_joins = [], []
    for i, entry in enumerate(program.entries):
        backend, profile = entry.backend, entry.profile
        total = 0.0
        for seconds in phase_seconds[offsets[i]:offsets[i + 1]]:
            total += seconds
        fork_join = 0.0
        if profile.is_parallel:
            fork_join = profile.regions * (
                backend.fork_overhead(profile.threads)
                + backend.join_overhead(profile.threads)
            )
        total += fork_join
        if total < 0.0:
            raise SimulationError("total time must be non-negative")
        totals.append(total)
        fork_joins.append(fork_join)
    return tuple(totals), tuple(fork_joins)


def _evaluate(program: WaveProgram, tracer) -> WaveResult:
    """Evaluate ``program``; under an enabled ``tracer``, also narrate
    every entry from the current clock (:func:`_narrate`), leaving the
    clock where it was."""
    slots = program.slots
    # NaN until a block evaluates the slot: a missed phase cannot pass
    # for a free one.
    columns = np.full((4, len(slots)), np.nan)
    lanes = [None] * len(slots) if tracer.enabled else None
    for block in _blocks(slots):
        rows = [slots[i] for i in block]
        for group, layout, instr_time, mem_bytes in _block_stage(rows):
            index = [block[row] for row in group]
            columns[:, index], instr_time, lane_mem = _tail(
                program.entries, [rows[row] for row in group], layout,
                instr_time, mem_bytes,
            )
            if lanes is not None:
                for k, i in enumerate(index):
                    lanes[i] = (layout[0], instr_time[k], lane_mem[k])
    result = WaveResult(program, *_entry_seconds(program, columns[0].tolist()),
                        columns)
    if lanes is not None:
        _narrate(tracer, result, lanes)
    return result


def _bound(report: PhaseReport) -> str:
    """Which cost bounds a phase: overhead, compute or memory."""
    compute, memory = report.compute_seconds, report.memory_seconds
    if report.overhead_seconds >= max(compute, memory):
        return "overhead"
    return "compute" if compute >= memory else "memory"


def _narrate(tracer, result: WaveResult, lanes: list) -> None:
    """Record every entry's phase, lane and fork/join spans.

    Entries follow one another on the timeline from the current clock.
    Each phase span sits at its simulated start, with its thread lanes
    (in thread-id order) beside it, and a parallel entry ends with its
    ``fork/join`` span. Builds every entry's report. Never advances the
    clock.
    """
    cursor = tracer.clock
    slots = iter(zip(result.program.slots, lanes))
    for entry, report in zip(result.program.entries, result):
        for phase_report in report.phases:
            slot, (thread_order, instr_time, lane_mem) = next(slots)
            phase, counters = slot.phase, phase_report.counters
            tracer.record(
                phase.name, phase_report.seconds, category="phase",
                track=PHASE_TRACK, start=cursor,
                kind=phase.kind.value,
                bound=_bound(phase_report),
                compute_seconds=phase_report.compute_seconds,
                memory_seconds=phase_report.memory_seconds,
                overhead_seconds=phase_report.overhead_seconds,
                instructions=counters.instructions,
                bytes_read=counters.bytes_read,
                bytes_written=counters.bytes_written,
            )
            instr = instr_time.tolist()
            mem = lane_mem.tolist()
            threads = thread_order.tolist()
            for i in sorted(range(len(threads)), key=threads.__getitem__):
                tracer.record(
                    phase.name, max(instr[i], mem[i]), category="lane",
                    track=thread_track(threads[i]), start=cursor,
                    instruction_seconds=instr[i], memory_seconds=mem[i],
                )
            cursor += phase_report.seconds
        if report.fork_join_seconds > 0.0:
            profile = entry.profile
            tracer.record(
                "fork/join", report.fork_join_seconds, category="overhead",
                track=PHASE_TRACK, start=cursor,
                regions=profile.regions, threads=profile.threads,
            )
            cursor += report.fork_join_seconds


def simulate_wave(program: WaveProgram) -> WaveResult:
    """Evaluate a fused wave: every entry's seconds, reports on demand.

    Each entry's seconds, and each report built from the result, are
    bit-identical to the reference engine's for the equivalent
    :class:`~repro.sim.work.WorkProfile` (``tools/diffcheck.py``
    enforces this): each block computes the same per-element IEEE-754
    operations, every order-sensitive fold is a sequential left fold
    along one phase's row, and each entry's phase seconds are summed in
    phase order, then fork/join. Under a tracer it records every entry's
    spans (:func:`_narrate`) and one ``wave.execute`` span carrying the
    wave's total simulated seconds (a left fold over the entries), and
    advances the clock by that total.
    """
    tracer = get_tracer()
    result = _evaluate(program, tracer)
    if tracer.enabled and result.seconds:
        total = 0.0
        for seconds in result.seconds:
            total += seconds
        tracer.record(
            "wave.execute", total, category="wave", track=WAVE_TRACK,
            points=len(result),
        )
        tracer.advance(total)
    return result


def simulate_wave_entries(
    entries: list[WaveEntry] | tuple[WaveEntry, ...],
) -> WaveResult:
    """Fuse and evaluate ``entries`` in one call (span-emitting shortcut)."""
    return simulate_wave(fuse_wave(entries))


def simulate_cpu_arrays(
    machine: CpuMachine, backend: BackendModel, profile: ArrayProfile
) -> SimReport:
    """Cost one :class:`ArrayProfile` as a one-entry wave; its full report.

    Records no wave spans. Under a tracer it narrates the entry's
    phases, lanes and fork/join (:func:`_narrate`) and advances the
    clock by the report's seconds.
    """
    tracer = get_tracer()
    report = _evaluate(_pack((WaveEntry(machine, backend, profile),)),
                       tracer)[0]
    tracer.advance(report.seconds)
    return report
