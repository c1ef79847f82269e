"""Selection algorithms: ``nth_element``, ``partial_sort``,
``partial_sort_copy``, ``inplace_merge``.

``nth_element`` is quickselect: the expected work is a geometric series of
partition passes (~2n touched elements total), with the same limited
top-level parallelism as quicksort. ``partial_sort`` keeps a k-heap while
streaming the range (n log k compares). ``inplace_merge`` is a merge pass
with buffer traffic.
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
from repro.algorithms.sort import SORT_INSTR_PER_LEVEL, merge_sorted_arrays
from repro.errors import ConfigurationError
from repro.execution.context import ExecutionContext
from repro.memory.array import SimArray

__all__ = ["nth_element", "partial_sort", "partial_sort_copy", "inplace_merge"]


def nth_element(ctx: ExecutionContext, arr: SimArray, nth: int) -> AlgoResult:
    """Place the nth-smallest element at index ``nth``; partition around it.

    Value is that element (run mode). Cost: quickselect's expected ~2n
    partition steps, parallel below the top levels like quicksort.
    """
    n = arr.n
    if not 0 <= nth < n:
        raise ConfigurationError(f"nth must be in [0, {n}), got {nth}")
    es = arr.elem.size
    placement = blend_placement([(arr, 1.0)])
    working_set = float(n * es)
    parallel = ctx.runs_parallel("sort", n)
    c = SORT_INSTR_PER_LEVEL
    p = ctx.threads if parallel else 1

    if parallel:
        part = ctx.backend.make_partition(n, p)
        # Expected quickselect work ~2n; the first partition pass (n of
        # those 2n) has the quicksort tree's limited parallelism.
        phases = [
            parallel_phase(
                "select-tree",
                part,
                PerElem(instr=c * (1.0 - 1.0 / p) * p, read=es, write=0.3 * es),
                placement,
                working_set,
                sync_points=p,
                vectorizable=False,
            ),
            parallel_phase(
                "select-local",
                part,
                PerElem(instr=c, read=es, write=0.3 * es),
                placement,
                working_set,
                vectorizable=False,
            ),
        ]
    else:
        phases = [
            sequential_phase(
                "quickselect",
                float(2 * n),
                PerElem(instr=c, read=es, write=0.3 * es),
                placement,
                working_set,
                vectorizable=False,
            )
        ]

    value = None
    if arr.materialized:
        data = arr.view()
        data[:] = np.partition(data, nth)
        value = float(data[nth])

    profile = make_profile(ctx, "sort", n, arr.elem, phases, parallel, regions=2)
    return AlgoResult(ctx, value, profile, (arr,))


def _partial_sort_phases(ctx, arr_in, n, k, es, placement, working_set, writes_out):
    parallel = ctx.runs_parallel("sort", n)
    heap_instr = SORT_INSTR_PER_LEVEL * math.log2(max(2, k))
    if parallel:
        part = ctx.backend.make_partition(n, ctx.threads)
        phases = [
            parallel_phase(
                "heap-scan",
                part,
                PerElem(instr=heap_instr, read=es),
                placement,
                working_set,
                vectorizable=False,
            ),
            sequential_phase(
                "merge-heaps",
                elems=float(k * max(1, min(ctx.threads, 16))),
                per_elem=PerElem(instr=SORT_INSTR_PER_LEVEL, read=es, write=es),
                placement=placement,
                working_set=float(k * es),
                vectorizable=False,
            ),
        ]
    else:
        phases = [
            sequential_phase(
                "heap-scan",
                float(n),
                PerElem(instr=heap_instr, read=es, write=writes_out * es * k / n),
                placement,
                working_set,
                vectorizable=False,
            )
        ]
    return phases, parallel


def partial_sort(ctx: ExecutionContext, arr: SimArray, middle: int) -> AlgoResult:
    """Sort the smallest ``middle`` elements into the range's front."""
    n = arr.n
    if not 0 < middle <= n:
        raise ConfigurationError(f"middle must be in (0, {n}], got {middle}")
    es = arr.elem.size
    placement = blend_placement([(arr, 1.0)])
    phases, parallel = _partial_sort_phases(
        ctx, arr, n, middle, es, placement, float(n * es), writes_out=1.0
    )
    if arr.materialized:
        data = arr.view()
        smallest = np.sort(np.partition(data, middle - 1)[:middle], kind="stable")
        rest = np.partition(data, middle - 1)[middle:]
        data[:middle] = smallest
        data[middle:] = rest
    profile = make_profile(ctx, "sort", n, arr.elem, phases, parallel, regions=2)
    return AlgoResult(ctx, None, profile, (arr,))


def partial_sort_copy(
    ctx: ExecutionContext, src: SimArray, dst: SimArray
) -> AlgoResult:
    """Copy the smallest ``dst.n`` elements of ``src`` into ``dst``, sorted."""
    n, k = src.n, dst.n
    if k > n:
        raise ConfigurationError("destination larger than source")
    es = src.elem.size
    placement = blend_placement([(src, 1.0), (dst, 0.2)])
    phases, parallel = _partial_sort_phases(
        ctx, src, n, k, es, placement, float(n * es), writes_out=1.0
    )
    if src.materialized and dst.materialized:
        dst.view()[:] = np.sort(np.partition(src.view(), k - 1)[:k], kind="stable")
    profile = make_profile(ctx, "sort", n, src.elem, phases, parallel, regions=2)
    return AlgoResult(ctx, None, profile, (src, dst))


def inplace_merge(ctx: ExecutionContext, arr: SimArray, middle: int) -> AlgoResult:
    """Merge the sorted halves ``[0, middle)`` and ``[middle, n)`` in place.

    Either half may be empty (``0 <= middle <= n``), as for
    ``std::inplace_merge``. Costed as a merge with an extra buffer round
    trip (libstdc++ uses a temporary buffer when available).
    """
    n = arr.n
    if not 0 <= middle <= n:
        raise ConfigurationError(f"middle must be in [0, {n}], got {middle}")
    es = arr.elem.size
    placement = blend_placement([(arr, 1.0)])
    working_set = float(n * es)
    per_elem = PerElem(instr=2.0, read=1.5 * es, write=1.5 * es)
    parallel = ctx.runs_parallel("merge", n)
    if parallel:
        part = ctx.backend.make_partition(n, ctx.threads)
        phases = [
            sequential_phase(
                "corank",
                elems=float(part.num_chunks),
                per_elem=PerElem(instr=2.0 * math.log2(max(2, n))),
                placement=None,
                working_set=0.0,
                vectorizable=False,
            ),
            parallel_phase("inplace-merge", part, per_elem, placement, working_set),
        ]
    else:
        phases = [
            sequential_phase("inplace-merge", float(n), per_elem, placement, working_set)
        ]
    if arr.materialized:
        data = arr.view()
        data[:] = merge_sorted_arrays(data[:middle].copy(), data[middle:].copy())
    profile = make_profile(ctx, "merge", n, arr.elem, phases, parallel)
    return AlgoResult(ctx, None, profile, (arr,))
