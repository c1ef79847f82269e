"""Batch (vectorized) evaluation of benchmark curves.

``repro.sim.wave`` provides the array-based cost engine; this module
provides the *builders* that produce :class:`~repro.sim.wave.ArrayProfile`
objects for the headline benchmark cases without materialising any
``Chunk``/``ChunkWork`` Python objects -- the per-object allocation that
dominates scalar sweep time. Each builder replicates, operation for
operation, what the corresponding scalar algorithm
(``repro.algorithms.*``) would emit in model mode, so the resulting
``SimReport`` is bit-identical to the scalar path's (enforced by
``tools/diffcheck.py`` and ``tests/sim/test_batch_differential.py``).

The vectorized path applies when **all** of the following hold (see
:func:`batch_supported`):

* the case is one of :data:`BATCH_CASES`;
* the context is a CPU context in ``model`` mode (run mode must execute
  real kernels, and the GPU engine has its own cost path).

Curve helpers (:func:`batch_problem_scaling`,
:func:`batch_strong_scaling`) build every profile of a size or thread
sweep and evaluate the curve as one fused wave, so a traced curve shows
up as one ``wave.fuse`` and one clocked ``wave.execute`` span instead of
the scalar path's per-phase spans.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms._build import PerElem, blend_placement, require_support
from repro.algorithms._ops import PLUS
from repro.algorithms.find import COMPARE_INSTR, FIND_SPREAD_PENALTY
from repro.algorithms.foreach import FOR_EACH_LOOP_INSTR
from repro.algorithms.reduce import COMBINE_INSTR_PER_PARTIAL
from repro.algorithms.scan import SCAN_SPREAD_PENALTY, _SCAN_LOOP_INSTR
from repro.algorithms.sort import (
    MERGE_INSTR_PER_LEVEL,
    SERIAL_PARTITION_FACTOR,
    SORT_INSTR_PER_LEVEL,
    _log2,
)
from repro.backends.base import SortStrategy
from repro.errors import ConfigurationError, UnsupportedOperationError
from repro.execution.context import ExecutionContext
from repro.memory.layout import PagePlacement
from repro.sim import wave as _wave
from repro.sim.report import SimReport
from repro.sim.wave import (
    ArrayPhase,
    ArrayProfile,
    ChunkArrays,
    WaveEntry,
    partition_arrays,
    simulate_cpu_arrays,
)
from repro.sim.wave import _thread_layout
from repro.sim.work import PhaseKind
from repro.suite.generators import generate_increment, shuffled_permutation
from repro.suite.kernels import listing1_kernel
from repro.trace import get_tracer
from repro.types import ElemType, FLOAT64

__all__ = [
    "BATCH_CASES",
    "batch_supported",
    "use_batch_path",
    "build_array_profile",
    "simulate_case_batch",
    "measure_case_batch",
    "batch_problem_scaling",
    "batch_strong_scaling",
]

#: Cases with a vectorized profile builder (the paper's headline set).
BATCH_CASES = (
    "find",
    "for_each_k1",
    "for_each_k1000",
    "inclusive_scan",
    "reduce",
    "sort",
    "stable_sort",
)

_Partition = tuple[np.ndarray, np.ndarray, np.ndarray, int]


def batch_supported(case_name: str, ctx: ExecutionContext) -> bool:
    """Whether the vectorized path can evaluate ``case_name`` under ``ctx``."""
    return (
        case_name in _BUILDERS
        and not ctx.is_gpu
        and ctx.mode == "model"
    )


def use_batch_path(
    batch: bool | None, case_name: str, ctx: ExecutionContext
) -> bool:
    """Resolve a sweep's ``batch`` tri-state into a concrete decision.

    ``False`` always forces the scalar path (the ``--no-batch`` debugging
    escape hatch). ``True`` requests the batch path wherever it is
    supported. ``None`` (auto) uses the batch path when supported *and*
    tracing is disabled -- the scalar engine is the one that knows how to
    narrate per-phase spans, so traced runs keep their familiar timeline
    unless batch is requested explicitly.
    """
    if batch is False:
        return False
    if batch is True:
        return batch_supported(case_name, ctx)
    return batch_supported(case_name, ctx) and not get_tracer().enabled


# ---------------------------------------------------------------------------
# Phase construction (array twins of _build.parallel_phase/sequential_phase)
# ---------------------------------------------------------------------------

def _parallel_phase_arrays(
    name: str,
    part: _Partition,
    per_elem: PerElem,
    placement: PagePlacement | None,
    working_set: float,
    scan_fractions: np.ndarray | None = None,
    sync_points: int = 0,
    spread_penalty: float = 1.0,
    vectorizable: bool = True,
) -> ArrayPhase:
    """Array twin of ``_build.parallel_phase`` (same drop/pad semantics)."""
    _starts, sizes, tids, parts = part
    elems = sizes.astype(np.float64)
    if scan_fractions is not None:
        elems = elems * scan_fractions
    if parts > 1:
        keep = elems > 0.0
        if not keep.all():
            elems = elems[keep]
            tids = tids[keep]
    if len(elems) == 0:
        chunks = ChunkArrays(
            thread=np.zeros(1, dtype=np.int64),
            elems=np.zeros(1),
            instr=np.zeros(1),
            fp_ops=np.zeros(1),
            bytes_read=np.zeros(1),
            bytes_written=np.zeros(1),
        )
    else:
        chunks = ChunkArrays.from_per_elem(
            tids, elems, per_elem.instr, per_elem.fp, per_elem.read, per_elem.write
        )
    return ArrayPhase(
        name=name,
        kind=PhaseKind.PARALLEL,
        chunks=chunks,
        placement=placement,
        working_set=working_set,
        sched_chunks=parts,
        sync_points=sync_points,
        spread_penalty=spread_penalty,
        apply_instr_overhead=True,
        vectorizable=vectorizable,
    )


def _sequential_phase_arrays(
    name: str,
    elems: float,
    per_elem: PerElem,
    placement: PagePlacement | None,
    working_set: float,
    vectorizable: bool = True,
) -> ArrayPhase:
    """Array twin of ``_build.sequential_phase`` (single thread-0 chunk)."""
    e = np.array([elems])
    chunks = ChunkArrays.from_per_elem(
        np.zeros(1, dtype=np.int64),
        e,
        per_elem.instr,
        per_elem.fp,
        per_elem.read,
        per_elem.write,
    )
    return ArrayPhase(
        name=name,
        kind=PhaseKind.SEQUENTIAL,
        chunks=chunks,
        placement=placement,
        working_set=working_set,
        apply_instr_overhead=False,
        vectorizable=vectorizable,
    )


def _profile(
    ctx: ExecutionContext,
    alg: str,
    n: int,
    elem: ElemType,
    phases: list[ArrayPhase],
    parallel: bool,
    regions: int = 1,
) -> ArrayProfile:
    """Array twin of ``_build.make_profile``."""
    return ArrayProfile(
        alg=alg,
        n=n,
        elem=elem,
        threads=ctx.threads if parallel else 1,
        policy=ctx.policy,
        phases=tuple(phases),
        regions=regions if parallel else 0,
    )


def _scan_fractions_arrays(part: _Partition, hit: int | None, n: int) -> np.ndarray:
    """Vectorized model-mode ``find._scan_fractions``.

    Reproduces the scalar loop's floats exactly: the expectation budget is
    a rounded sum of exact half-integer products folded in chunk order,
    and the per-thread clamped-subtraction chain collapses to
    ``min(len, max(0, budget - prefix))`` because every intermediate
    ``remaining`` value is an exact float (budget and the integer chunk
    lengths share a quantum, so the subtractions never round).
    """
    starts, sizes, _tids, parts = part
    if hit is None:
        return np.ones(parts)

    _order, tidx, slot = _thread_layout(part[2])
    depth = int(slot.max()) + 1 if parts else 1
    incl = np.zeros((depth, len(_order)), dtype=np.int64)
    incl[slot, tidx] = sizes
    incl = np.cumsum(incl, axis=0)
    prefix = (incl[slot, tidx] - sizes).astype(np.float64)

    lens = sizes.astype(np.float64)
    nonzero = sizes > 0
    limit = min(n, 2 * hit + 1)
    contrib = nonzero & (starts < limit)
    covered = np.where(
        contrib, np.minimum(starts + sizes, limit) - starts, 0
    ).astype(np.float64)
    weighted_terms = np.where(contrib, covered * (prefix + covered / 2.0), 0.0)
    weighted = float(np.cumsum(weighted_terms)[-1]) if parts else 0.0
    total_weight = float(np.cumsum(covered)[-1]) if parts else 0.0
    budget = (weighted / total_weight + 1.0) if total_weight else float(n)

    take = np.minimum(lens, np.maximum(0.0, budget - prefix))
    return np.where(nonzero, take / np.where(nonzero, lens, 1.0), 0.0)


# ---------------------------------------------------------------------------
# Case builders (array twins of the scalar algorithms, model mode)
# ---------------------------------------------------------------------------

def _build_for_each(k_it: int):
    """Builder factory for the ``for_each_k{k}`` cases (Listing 1 kernel)."""

    def build(ctx: ExecutionContext, n: int, elem: ElemType) -> ArrayProfile:
        arr = generate_increment(ctx, n, elem)
        kernel = listing1_kernel(k_it, arr.elem, target="cpu")
        es = arr.elem.size
        per_elem = PerElem(
            instr=kernel.instr_per_elem + FOR_EACH_LOOP_INSTR,
            fp=kernel.fp_per_elem,
            read=es,
            write=es,
        )
        working_set = float(n * es)
        placement = blend_placement([(arr, 1.0)])
        parallel = ctx.runs_parallel("for_each", n)
        if parallel:
            part = partition_arrays(ctx.backend, n, ctx.threads)
            phases = [
                _parallel_phase_arrays("map", part, per_elem, placement, working_set)
            ]
        else:
            phases = [
                _sequential_phase_arrays(
                    "map", float(n), per_elem, placement, working_set
                )
            ]
        return _profile(ctx, "for_each", n, arr.elem, phases, parallel)

    return build


def _build_find(ctx: ExecutionContext, n: int, elem: ElemType) -> ArrayProfile:
    """Array twin of the ``find`` case (expected hit at ``n // 2``)."""
    arr = generate_increment(ctx, n, elem)
    es = arr.elem.size
    per_elem = PerElem(instr=COMPARE_INSTR, read=es)
    hit = arr.n // 2
    if not 0 <= hit < arr.n:
        raise ConfigurationError("expected_position out of range")
    placement = blend_placement([(arr, 1.0)])
    working_set = float(n * es)
    parallel = ctx.runs_parallel("find", n)
    if parallel:
        part = partition_arrays(ctx.backend, n, ctx.threads)
        fractions = _scan_fractions_arrays(part, hit, n)
        phases = [
            _parallel_phase_arrays(
                "scan",
                part,
                per_elem,
                placement,
                working_set,
                scan_fractions=fractions,
                sync_points=part[3],
                spread_penalty=FIND_SPREAD_PENALTY,
            )
        ]
    else:
        scanned = float(hit + 1)
        phases = [
            _sequential_phase_arrays(
                "scan", scanned, per_elem, placement, working_set
            )
        ]
    return _profile(ctx, "find", n, arr.elem, phases, parallel)


def _build_reduce(ctx: ExecutionContext, n: int, elem: ElemType) -> ArrayProfile:
    """Array twin of the ``reduce`` case (PLUS reduction)."""
    arr = generate_increment(ctx, n, elem)
    es = arr.elem.size
    per_elem = PerElem(
        instr=PLUS.instr_per_elem, fp=PLUS.fp_per_elem, read=es
    )
    placement = blend_placement([(arr, 1.0)])
    working_set = float(n * es)
    parallel = ctx.runs_parallel("reduce", n)
    if parallel:
        part = partition_arrays(ctx.backend, n, ctx.threads)
        phases = [
            _parallel_phase_arrays(
                "chunk-reduce", part, per_elem, placement, working_set
            ),
            _sequential_phase_arrays(
                "combine",
                float(part[3]),
                PerElem(instr=COMBINE_INSTR_PER_PARTIAL, fp=PLUS.fp_per_elem),
                None,
                0.0,
                vectorizable=False,
            ),
        ]
    else:
        phases = [
            _sequential_phase_arrays(
                "reduce", float(n), per_elem, placement, working_set
            )
        ]
    return _profile(ctx, "reduce", n, arr.elem, phases, parallel)


def _build_inclusive_scan(
    ctx: ExecutionContext, n: int, elem: ElemType
) -> ArrayProfile:
    """Array twin of the ``inclusive_scan`` case (separate output array)."""
    arr = generate_increment(ctx, n, elem)
    dest = ctx.allocate(n, elem)
    require_support(ctx, "inclusive_scan")
    es = arr.elem.size
    working_set = float(n * es) * 2.0
    parallel = ctx.runs_parallel("inclusive_scan", n)
    if parallel:
        part = partition_arrays(ctx.backend, n, ctx.threads)
        in_placement = blend_placement([(arr, 1.0)])
        rw_placement = blend_placement([(arr, 1.0), (dest, 1.0)])
        phases = [
            _parallel_phase_arrays(
                "chunk-reduce",
                part,
                PerElem(instr=PLUS.instr_per_elem, fp=PLUS.fp_per_elem, read=es),
                in_placement,
                working_set,
                spread_penalty=SCAN_SPREAD_PENALTY,
            ),
            _sequential_phase_arrays(
                "carry-scan",
                float(part[3]),
                PerElem(instr=3.0, fp=PLUS.fp_per_elem),
                None,
                0.0,
                vectorizable=False,
            ),
            _parallel_phase_arrays(
                "rescan",
                part,
                PerElem(
                    instr=PLUS.instr_per_elem + _SCAN_LOOP_INSTR,
                    fp=PLUS.fp_per_elem,
                    read=es,
                    write=es,
                ),
                rw_placement,
                working_set,
                spread_penalty=SCAN_SPREAD_PENALTY,
            ),
        ]
        regions = 2
    else:
        phases = [
            _sequential_phase_arrays(
                "scan",
                float(n),
                PerElem(
                    instr=PLUS.instr_per_elem + _SCAN_LOOP_INSTR,
                    fp=PLUS.fp_per_elem,
                    read=es,
                    write=es,
                ),
                blend_placement([(arr, 1.0), (dest, 1.0)]),
                working_set,
            )
        ]
        regions = 1
    return _profile(
        ctx, "inclusive_scan", n, arr.elem, phases, parallel, regions=regions
    )


def _sort_phases_arrays(ctx: ExecutionContext, n: int, elem: ElemType, stable: bool):
    """Array twin of ``sort._sort_phases`` for one invocation."""
    arr = shuffled_permutation(ctx, n, elem)
    es = arr.elem.size
    p = ctx.threads
    placement = blend_placement([(arr, 1.0)])
    working_set = float(n * es)
    strategy = ctx.backend.sort_strategy
    instr_scale = 1.1 if stable else 1.0
    c = SORT_INSTR_PER_LEVEL * instr_scale

    seq = [
        _sequential_phase_arrays(
            "introsort",
            float(n),
            PerElem(instr=c * _log2(n), read=2 * es, write=2 * es),
            placement,
            working_set,
            vectorizable=False,
        )
    ]
    if strategy is SortStrategy.SEQUENTIAL or p <= 1:
        return seq, False

    part = partition_arrays(ctx.backend, n, p)
    local_levels = _log2(n / p)

    if strategy is SortStrategy.MULTIWAY_MERGESORT:
        phases = [
            _parallel_phase_arrays(
                "local-sort",
                part,
                PerElem(instr=c * local_levels, read=2 * es, write=2 * es),
                placement,
                working_set,
                vectorizable=False,
            ),
            _parallel_phase_arrays(
                "multiway-merge",
                part,
                PerElem(
                    instr=MERGE_INSTR_PER_LEVEL * instr_scale * _log2(p),
                    read=es,
                    write=es,
                ),
                placement,
                working_set,
                sync_points=p,
                vectorizable=False,
            ),
        ]
        return phases, True

    if strategy is SortStrategy.SERIAL_PARTITION_QUICKSORT:
        tree_span = SERIAL_PARTITION_FACTOR
    else:
        tree_span = 2.0 * (1.0 - 1.0 / p)
    phases = [
        _parallel_phase_arrays(
            "partition-tree",
            part,
            PerElem(instr=c * tree_span * p, read=es, write=es),
            placement,
            working_set,
            sync_points=2 * p,
            vectorizable=False,
        ),
        _parallel_phase_arrays(
            "local-sort",
            part,
            PerElem(instr=c * local_levels, read=2 * es, write=2 * es),
            placement,
            working_set,
            vectorizable=False,
        ),
    ]
    return phases, True


def _build_sort(stable: bool):
    """Builder factory for ``sort`` / ``stable_sort``."""

    def build(ctx: ExecutionContext, n: int, elem: ElemType) -> ArrayProfile:
        parallel = ctx.runs_parallel("sort", n)
        if parallel:
            phases, parallel = _sort_phases_arrays(ctx, n, elem, stable)
        else:
            phases, _ = _sort_phases_arrays(
                ctx.with_(threads=1), n, elem, stable
            )
        return _profile(ctx, "sort", n, elem, phases, parallel, regions=2)

    return build


_BUILDERS = {
    "for_each_k1": _build_for_each(1),
    "for_each_k1000": _build_for_each(1000),
    "find": _build_find,
    "reduce": _build_reduce,
    "inclusive_scan": _build_inclusive_scan,
    "sort": _build_sort(stable=False),
    "stable_sort": _build_sort(stable=True),
}


# ---------------------------------------------------------------------------
# Point + curve evaluation
# ---------------------------------------------------------------------------

def build_array_profile(
    case_name: str, ctx: ExecutionContext, n: int, elem: ElemType = FLOAT64
) -> ArrayProfile:
    """The :class:`ArrayProfile` the batch path costs for one point.

    Raises :class:`~repro.errors.ConfigurationError` for cases outside
    :data:`BATCH_CASES` or contexts the batch path cannot serve, and
    :class:`~repro.errors.UnsupportedOperationError` exactly where the
    scalar algorithm would (e.g. GNU ``inclusive_scan``).
    """
    if not batch_supported(case_name, ctx):
        raise ConfigurationError(
            f"case {case_name!r} has no batch path under this context"
        )
    return _BUILDERS[case_name](ctx, n, elem)


def simulate_case_batch(
    case_name: str, ctx: ExecutionContext, n: int, elem: ElemType = FLOAT64
) -> SimReport:
    """Full :class:`SimReport` for one point via the vectorized path."""
    profile = build_array_profile(case_name, ctx, n, elem)
    return simulate_cpu_arrays(ctx.machine, ctx.backend, profile)


def measure_case_batch(
    case_name: str, ctx: ExecutionContext, n: int, elem: ElemType = FLOAT64
) -> float:
    """Seconds for one point; bit-identical to ``measure_case``."""
    return simulate_case_batch(case_name, ctx, n, elem).seconds


def _wave_curve(
    case_name: str,
    points: list[tuple[int, ExecutionContext, int]],
    elem: ElemType,
) -> list[tuple[int, float, bool]]:
    """Cost a curve's ``(x, ctx, n)`` points as one fused wave.

    A builder's ``UnsupportedOperationError`` marks only that point
    unsupported; every other point joins the wave.
    """
    entries: list[WaveEntry] = []
    supported: list[bool] = []
    for _x, ctx, n in points:
        try:
            profile = build_array_profile(case_name, ctx, n, elem)
        except UnsupportedOperationError:
            supported.append(False)
            continue
        entries.append(WaveEntry(ctx.machine, ctx.backend, profile))
        supported.append(True)
    # Looked up on the module, so wrappers installed there see curves too.
    reports = iter(_wave.simulate_wave(_wave.fuse_wave(entries)))
    return [
        (x, next(reports).seconds, True) if ok else (x, float("nan"), False)
        for (x, _ctx, _n), ok in zip(points, supported)
    ]


def batch_problem_scaling(
    case_name: str,
    ctx: ExecutionContext,
    sizes: list[int],
    elem: ElemType = FLOAT64,
) -> list[tuple[int, float, bool]]:
    """Evaluate a whole size sweep vectorized: (n, seconds, supported) rows."""
    return _wave_curve(case_name, [(n, ctx, n) for n in sizes], elem)


def batch_strong_scaling(
    case_name: str,
    ctx: ExecutionContext,
    n: int,
    threads: list[int],
    elem: ElemType = FLOAT64,
) -> list[tuple[int, float, bool]]:
    """Evaluate a whole thread sweep vectorized: (t, seconds, supported) rows."""
    return _wave_curve(
        case_name, [(t, ctx.with_(threads=t), n) for t in threads], elem
    )
