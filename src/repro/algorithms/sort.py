"""``sort`` / ``stable_sort`` / ``is_sorted`` (paper Section 5.6).

Each backend's sort has a different parallel structure (Backend.sort_strategy):

* **parallel quicksort** (TBB): a partition *tree* whose top levels expose
  little parallelism -- level d has only 2^d concurrent tasks -- followed
  by fully parallel local sorts. The tree's span is ~2n(1-1/p) partition
  steps, which is the Amdahl term that caps TBB's sort speedup near 10
  regardless of core count (Table 5).
* **multiway mergesort** (GNU): each thread sorts its chunk, then one
  cooperative p-way merge pass. Only ~2 DRAM round trips and NUMA-friendly
  -- why GNU reaches speedups of 25-67 where everyone else gets ~10.
* **task quicksort** (HPX): the quicksort structure plus HPX's task
  overheads.
* **serial-partition quicksort** (NVC-OMP): the top-level partition passes
  are fully serial, capping speedup near 6-7.

Run mode actually sorts: chunk-local ``np.sort`` plus a real stable
two-way merge (searchsorted-based), so correctness tests exercise genuine
parallel-merge logic rather than a re-sort.
"""

from __future__ import annotations

import math

import numpy as np

from repro.algorithms._build import (
    PerElem,
    blend_placement,
    make_profile,
    parallel_phase,
    sequential_phase,
)
from repro.algorithms._result import AlgoResult
from repro.backends.base import SortStrategy
from repro.execution.context import ExecutionContext
from repro.memory.array import SimArray

__all__ = ["sort", "stable_sort", "is_sorted", "is_sorted_until", "merge_sorted_arrays"]

#: Compare/swap instructions per element per quicksort/mergesort level.
SORT_INSTR_PER_LEVEL = 2.5
#: Instructions per element per binary-merge level (loser-tree step).
MERGE_INSTR_PER_LEVEL = 1.5
#: Extra serialisation of NVC-OMP's top-level partitioning.
SERIAL_PARTITION_FACTOR = 3.5


def _log2(x: float) -> float:
    return math.log2(max(2.0, x))


def _sort_phases(ctx: ExecutionContext, arr: SimArray, stable: bool):
    """Build the per-strategy phase list for one sort invocation."""
    n = arr.n
    es = arr.elem.size
    p = ctx.threads
    placement = blend_placement([(arr, 1.0)])
    working_set = float(n * es)
    strategy = ctx.backend.sort_strategy
    instr_scale = 1.1 if stable else 1.0
    c = SORT_INSTR_PER_LEVEL * instr_scale

    seq = [
        sequential_phase(
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

    partition = ctx.backend.make_partition(n, p)
    local_levels = _log2(n / p)

    if strategy is SortStrategy.MULTIWAY_MERGESORT:
        phases = [
            parallel_phase(
                "local-sort",
                partition,
                PerElem(instr=c * local_levels, read=2 * es, write=2 * es),
                placement,
                working_set,
                vectorizable=False,
            ),
            parallel_phase(
                "multiway-merge",
                partition,
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

    # Quicksort family: a partition tree with limited parallelism on top.
    if strategy is SortStrategy.SERIAL_PARTITION_QUICKSORT:
        tree_span = SERIAL_PARTITION_FACTOR  # per element, serialised harder
    else:
        tree_span = 2.0 * (1.0 - 1.0 / p)
    # The tree's *span* is tree_span * n partition steps; expressing it as
    # a parallel phase over p threads needs per-element instructions of
    # tree_span * p (each thread holds n/p elements). Counters therefore
    # reflect span, not total work -- acceptable, as no paper table counts
    # sort instructions.
    phases = [
        parallel_phase(
            "partition-tree",
            partition,
            PerElem(instr=c * tree_span * p, read=es, write=es),
            placement,
            working_set,
            sync_points=2 * p,
            vectorizable=False,
        ),
        parallel_phase(
            "local-sort",
            partition,
            PerElem(instr=c * local_levels, read=2 * es, write=2 * es),
            placement,
            working_set,
            vectorizable=False,
        ),
    ]
    return phases, True


def merge_sorted_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stable O(n) merge of two sorted arrays (run-mode building block).

    Elements of ``b`` are placed after equal elements of ``a``, matching a
    stable mergesort where ``a`` precedes ``b``.
    """
    out = np.empty(len(a) + len(b), dtype=a.dtype)
    positions = np.searchsorted(a, b, side="right") + np.arange(len(b))
    mask = np.ones(len(out), dtype=bool)
    mask[positions] = False
    out[positions] = b
    out[mask] = a
    return out


def _run_parallel_sort(arr: SimArray, partition) -> None:
    """Execute a real chunked mergesort on the backing buffer."""
    data = arr.view()
    runs = [np.sort(data[c.start : c.stop], kind="stable") for c in partition.chunks]
    runs = [r for r in runs if len(r)]
    while len(runs) > 1:
        merged = []
        for i in range(0, len(runs) - 1, 2):
            merged.append(merge_sorted_arrays(runs[i], runs[i + 1]))
        if len(runs) % 2:
            merged.append(runs[-1])
        runs = merged
    if runs:
        data[:] = runs[0]


def _sort_impl(ctx: ExecutionContext, arr: SimArray, stable: bool) -> AlgoResult:
    alg = "sort"
    n = arr.n
    parallel = ctx.runs_parallel(alg, n)
    if parallel:
        phases, parallel = _sort_phases(ctx, arr, stable)
    else:
        phases, _ = _sort_phases(ctx.with_(threads=1), arr, stable)

    if arr.materialized:
        if parallel:
            _run_parallel_sort(arr, ctx.backend.make_partition(n, ctx.threads))
        else:
            arr.view()[:] = np.sort(arr.view(), kind="stable")

    profile = make_profile(ctx, alg, n, arr.elem, phases, parallel, regions=2)
    return AlgoResult(ctx, None, profile, (arr,))


def sort(ctx: ExecutionContext, arr: SimArray) -> AlgoResult:
    """Sort ``arr`` ascending in place."""
    return _sort_impl(ctx, arr, stable=False)


def stable_sort(ctx: ExecutionContext, arr: SimArray) -> AlgoResult:
    """Stable sort (modeled ~10 % more expensive per level)."""
    return _sort_impl(ctx, arr, stable=True)


def is_sorted(ctx: ExecutionContext, arr: SimArray) -> AlgoResult:
    """Whether ``arr`` is ascending (full scan when it is)."""
    inner = is_sorted_until(ctx, arr)
    value = None
    if arr.materialized:
        value = inner.value == arr.n
    return inner.with_value(value)


def is_sorted_until(ctx: ExecutionContext, arr: SimArray) -> AlgoResult:
    """Length of the sorted prefix (n when fully sorted)."""
    alg = "find"  # early-exit scan family
    n = arr.n
    es = arr.elem.size
    placement = blend_placement([(arr, 1.0)])
    working_set = float(n * es)
    parallel = ctx.runs_parallel(alg, n)

    violation: int | None = None
    if arr.materialized:
        data = arr.view()
        bad = np.nonzero(data[1:] < data[:-1])[0]
        violation = int(bad[0]) + 1 if len(bad) else None

    per_elem = PerElem(instr=1.5, read=es)
    if parallel:
        partition = ctx.backend.make_partition(n, ctx.threads)
        from repro.algorithms.find import _scan_fractions

        fractions = _scan_fractions(partition, violation, n, exact=arr.materialized)
        phases = [
            parallel_phase(
                "adjacent-scan",
                partition,
                per_elem,
                placement,
                working_set,
                scan_fractions=fractions,
                sync_points=partition.num_chunks,
            )
        ]
    else:
        scanned = float(n if violation is None else violation + 1)
        phases = [sequential_phase("adjacent-scan", scanned, per_elem, placement, working_set)]

    value = None
    if arr.materialized:
        value = n if violation is None else violation

    profile = make_profile(ctx, alg, n, arr.elem, phases, parallel)
    return AlgoResult(ctx, value, profile, (arr,))
