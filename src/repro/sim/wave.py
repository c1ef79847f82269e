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
  broadcast as columns, and the elementwise stage (instruction totals,
  FP lane execution, traffic scaling, time conversion), the counter
  folds and the per-thread folds run once per block. Only the NUMA
  bandwidth model and report assembly run per phase.

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
budget) peaks at about 6 bytes per chunk entry.

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
    "fuse_wave",
    "simulate_wave",
    "simulate_wave_entries",
    "simulate_cpu_arrays",
]

#: Trace track that ``wave.fuse`` / ``wave.execute`` spans are recorded on.
WAVE_TRACK = "wave"

#: Most chunk entries one evaluation block stacks (rows x chunks). Bounds
#: every block temporary of :func:`simulate_wave` to 16 KiB; a phase with
#: more chunks than this is evaluated as a one-row block. Wave throughput
#: measured flat from 2^11 to 2^16 on campaign-shaped waves (2-vCPU
#: x86-64), so the budget sits at the small end.
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

    ``slots`` lists the phases of every entry in entry-then-phase order.
    Each slot refers to its phase's chunk arrays (never a copy) and
    holds the four scalars the elementwise stage needs: SIMD lanes,
    issue rate, per-element instruction overhead and traffic factor.
    :func:`simulate_wave` stacks slots of equal chunk count into blocks
    and broadcasts those scalars as columns, so a program costs no
    memory beyond its profiles until it is evaluated.
    """

    entries: tuple[WaveEntry, ...]
    slots: tuple[_PhaseSlot, ...]

    def __len__(self) -> int:
        return len(self.entries)


def _pack(entries: tuple[WaveEntry, ...]) -> WaveProgram:
    """Span-free core of :func:`fuse_wave`."""
    slots: list[_PhaseSlot] = []
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
    return WaveProgram(entries=entries, slots=tuple(slots))


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


#: Fold layouts by thread-id bytes; weighed in chunk entries.
_LAYOUTS = WeightedLRU(WAVE_CHUNK_BUDGET, lambda layout: len(layout[1]))

#: thread-order -> NUMA node maps by placement; weighed in threads.
_NODE_MAPS = WeightedLRU(WAVE_CHUNK_BUDGET, len)

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


def _row_folds(block: np.ndarray) -> list[float]:
    """Sequential left fold of every row (``_fold`` per row, at once)."""
    return np.cumsum(block, axis=1)[:, -1].tolist()


def _block_folds(slots: list[_PhaseSlot]):
    """Elementwise stage and every chunk fold of one block of phases.

    The phases share a chunk count; their chunk fields are stacked as
    rows and their scalars broadcast as columns. Yields, per phase:
    its :class:`Counters`, its per-thread instruction time and memory
    bytes (first-appearance thread order), and that thread order.
    """
    def column(owners, name: str) -> np.ndarray:
        return np.array([getattr(o, name) for o in owners],
                        dtype=np.float64)[:, None]

    phases = [s.phase for s in slots]
    elems = np.stack([p.elems for p in phases], dtype=np.float64)
    # The builders' per-chunk products, elementwise exactly as ChunkWork.
    instr = elems * column(phases, "instr_per_elem")
    fp_ops = elems * column(phases, "fp_per_elem")
    bytes_read = elems * column(phases, "read_per_elem")
    bytes_written = elems * column(phases, "write_per_elem")
    traffic = column(slots, "traffic")

    executed = np.where(fp_ops > 0.0, fp_ops / column(slots, "lanes"), 0.0)
    instrs = instr + elems * column(slots, "ovh_per_elem") + executed
    instr_vals = instrs / column(slots, "rate")
    mem_vals = (bytes_read + bytes_written) * traffic
    instructions = _row_folds(instrs)
    # A one-lane phase counts ``executed`` as scalar FP: x / 1.0 == x.
    fp = _row_folds(executed)
    read = _row_folds(bytes_read * traffic)
    written = _row_folds(bytes_written * traffic)

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
    per_thread: list = [None] * len(slots)
    for layout, rows in by_layout.values():
        instr_time = _thread_fold(instr_vals[rows], layout)
        mem_bytes = _thread_fold(mem_vals[rows], layout)
        for k, row in enumerate(rows):
            per_thread[row] = (instr_time[k], mem_bytes[k], layout[0])

    for row, slot in enumerate(slots):
        lanes = slot.lanes
        counters = Counters(
            instructions=instructions[row],
            fp_scalar=fp[row] if lanes <= 1 else 0.0,
            fp_packed_128=fp[row] if lanes == 2 else 0.0,
            fp_packed_256=fp[row] if lanes > 2 else 0.0,
            bytes_read=read[row],
            bytes_written=written[row],
        )
        yield (counters, *per_thread[row])


def _phase_report(
    entry: WaveEntry,
    phase: ArrayPhase,
    counters: Counters,
    instr_time: np.ndarray,
    mem_bytes: np.ndarray,
    thread_order: np.ndarray,
) -> tuple[PhaseReport, tuple]:
    """The per-phase roofline, NUMA and overhead stage over thread folds.

    Returns the phase's report and its lanes: ``(thread_order,
    instr_time, lane_mem)``, each thread's scaled instruction time and
    its memory time (``None`` when the phase streams nothing), the
    values a traced phase narrates.
    """
    machine, backend, profile = entry.machine, entry.backend, entry.profile
    alg = profile.alg
    num_threads = len(thread_order)

    compute_time = float(instr_time.max()) if num_threads else 0.0
    if phase.kind is PhaseKind.PARALLEL and profile.threads > 1:
        scaling = profile.threads / backend.effective_threads(profile.threads)
        if scaling > 1.0:
            compute_time *= scaling
            instr_time = instr_time * scaling

    memory_time = 0.0
    lane_mem = None
    total_phase_bytes = _fold(mem_bytes)
    if total_phase_bytes > 0.0 and phase.placement is not None:
        active = max(1, num_threads)
        level = machine.caches.fitting_level(int(phase.working_set), active)
        if level is not None:
            bw = level.bandwidth_per_core
            lane_mem = mem_bytes / bw
            memory_time = float(lane_mem.max())
            per_thread_roofline = float(
                np.maximum(instr_time, lane_mem).max()
            )
        else:
            thread_nodes = _nodes_of(
                machine, backend, profile.threads, thread_order
            )
            active_nodes = len(set(thread_nodes.tolist()))
            matched = None
            if phase.placement.policy in MATCHED_POLICIES:
                matched = backend.numa_quality(alg) ** max(0, active_nodes - 1)
            times = _dram_memory_time_arrays(
                machine,
                phase.placement,
                mem_bytes,
                thread_nodes,
                matched_quality=matched,
                bw_efficiency=backend.bw_efficiency_at(alg, active_nodes),
            )
            memory_time = times.total
            scale = times.per_thread / max(1e-30, float(mem_bytes.max()))
            lane_mem = mem_bytes * scale
            per_thread_roofline = float(
                np.maximum(instr_time, lane_mem).max()
            )
            per_thread_roofline = max(
                per_thread_roofline,
                times.per_node,
                times.global_dram,
                times.interconnect,
            )
    else:
        per_thread_roofline = compute_time

    phase_time = max(compute_time, per_thread_roofline)

    if (
        phase.spread_penalty > 1.0
        and phase.placement is not None
        and max(phase.placement.node_fractions) < 1.0 - 1e-3
    ):
        weight = min(1.0, 2.0 / machine.topology.num_nodes)
        phase_time *= 1.0 + (phase.spread_penalty - 1.0) * weight

    overhead_time = 0.0
    if phase.sched_chunks:
        overhead_time += backend.sched_overhead(
            phase.sched_chunks, profile.threads
        )
    if phase.sync_points:
        overhead_time += phase.sync_points * backend.sync_cost(profile.threads)
    phase_time += overhead_time

    return PhaseReport(
        name=phase.name,
        seconds=phase_time,
        compute_seconds=compute_time,
        memory_seconds=memory_time,
        overhead_seconds=overhead_time,
        counters=counters,
    ), (thread_order, instr_time, lane_mem)


def _evaluate(program: WaveProgram, tracer) -> tuple[SimReport, ...]:
    """Evaluate ``program``; under an enabled ``tracer``, also narrate
    every entry from the current clock (:func:`_narrate`), leaving the
    clock where it was."""
    if not program.entries:
        return ()

    # --- blocked elementwise and fold stages, then per-phase tails ------
    slots = program.slots
    by_slot: list[PhaseReport | None] = [None] * len(slots)
    lanes = [None] * len(slots) if tracer.enabled else None
    for block in _blocks(slots):
        rows = [slots[i] for i in block]
        for index, slot, folds in zip(block, rows, _block_folds(rows)):
            by_slot[index], lane = _phase_report(
                program.entries[slot.entry], slot.phase, *folds,
            )
            if lanes is not None:
                lanes[index] = lane

    per_entry_phases: list[list[PhaseReport]] = [[] for _ in program.entries]
    for slot, phase_report in zip(slots, by_slot):
        per_entry_phases[slot.entry].append(phase_report)

    # --- per-entry report assembly (reference accumulation order) -------
    reports: list[SimReport] = []
    for entry, phase_reports in zip(program.entries, per_entry_phases):
        backend, profile = entry.backend, entry.profile
        total_counters = Counters()
        total_time = 0.0
        for pr in phase_reports:
            total_counters = total_counters + pr.counters
            total_time += pr.seconds
        fork_join = 0.0
        if profile.is_parallel:
            fork_join = profile.regions * (
                backend.fork_overhead(profile.threads)
                + backend.join_overhead(profile.threads)
            )
        total_time += fork_join
        reports.append(
            SimReport(
                seconds=total_time,
                counters=total_counters,
                phases=tuple(phase_reports),
                fork_join_seconds=fork_join,
            )
        )
    if lanes is not None:
        _narrate(tracer, program, reports, lanes)
    return tuple(reports)


def _bound(report: PhaseReport) -> str:
    """Which cost bounds a phase: overhead, compute or memory."""
    compute, memory = report.compute_seconds, report.memory_seconds
    if report.overhead_seconds >= max(compute, memory):
        return "overhead"
    return "compute" if compute >= memory else "memory"


def _narrate(tracer, program: WaveProgram, reports: list[SimReport],
             lanes: list) -> None:
    """Record every entry's phase, lane and fork/join spans.

    Entries follow one another on the timeline from the current clock.
    Each phase span sits at its simulated start, with its thread lanes
    (in thread-id order) beside it, and a parallel entry ends with its
    ``fork/join`` span. Never advances the clock.
    """
    cursor = tracer.clock
    slots = iter(zip(program.slots, lanes))
    for entry, report in zip(program.entries, reports):
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
            mem = [0.0] * len(instr) if lane_mem is None else lane_mem.tolist()
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


def simulate_wave(program: WaveProgram) -> tuple[SimReport, ...]:
    """Evaluate a fused wave; one :class:`SimReport` per entry.

    Each report is bit-identical to the reference engine's report for
    the equivalent :class:`~repro.sim.work.WorkProfile`
    (``tools/diffcheck.py`` enforces this): each block computes the same
    per-element IEEE-754 operations, and every order-sensitive fold is a
    sequential left fold along one phase's row. Under a tracer it
    records every entry's spans (:func:`_narrate`) and one
    ``wave.execute`` span carrying the wave's total simulated seconds (a
    left fold over the entries), and advances the clock by that total.
    """
    tracer = get_tracer()
    reports = _evaluate(program, tracer)
    if tracer.enabled and reports:
        total = 0.0
        for report in reports:
            total += report.seconds
        tracer.record(
            "wave.execute", total, category="wave", track=WAVE_TRACK,
            points=len(reports),
        )
        tracer.advance(total)
    return reports


def simulate_wave_entries(
    entries: list[WaveEntry] | tuple[WaveEntry, ...],
) -> tuple[SimReport, ...]:
    """Fuse and evaluate ``entries`` in one call (span-emitting shortcut)."""
    return simulate_wave(fuse_wave(entries))


def simulate_cpu_arrays(
    machine: CpuMachine, backend: BackendModel, profile: ArrayProfile
) -> SimReport:
    """Cost one :class:`ArrayProfile` as a one-entry wave.

    Records no wave spans. Under a tracer it narrates the entry's
    phases, lanes and fork/join (:func:`_narrate`) and advances the
    clock by the report's seconds.
    """
    tracer = get_tracer()
    (report,) = _evaluate(_pack((WaveEntry(machine, backend, profile),)),
                          tracer)
    tracer.advance(report.seconds)
    return report
