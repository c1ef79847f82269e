"""Heap-property checks: ``is_heap`` and ``is_heap_until``.

A max-heap over [0, n) satisfies ``a[(i-1)//2] >= a[i]`` for all i >= 1.
Both checks are early-exit scans (find-family cost); ``is_heap_until``
returns the length of the longest heap prefix.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms._build import (
    PerElem,
    blend_placement,
    make_profile,
    parallel_phase,
    sequential_phase,
)
from repro.algorithms._result import AlgoResult
from repro.algorithms.find import _scan_fractions
from repro.execution.context import ExecutionContext
from repro.memory.array import SimArray

__all__ = ["is_heap", "is_heap_until"]


def _first_violation(data: np.ndarray) -> int | None:
    """Smallest i whose parent is smaller (max-heap violation)."""
    n = len(data)
    if n <= 1:
        return None
    idx = np.arange(1, n)
    bad = np.nonzero(data[(idx - 1) // 2] < data[idx])[0]
    return int(bad[0]) + 1 if len(bad) else None


def is_heap_until(ctx: ExecutionContext, arr: SimArray) -> AlgoResult:
    """Length of the longest prefix that is a max-heap."""
    n = arr.n
    es = arr.elem.size
    placement = blend_placement([(arr, 1.0)])
    working_set = float(n * es)
    parallel = ctx.runs_parallel("find", n)

    violation: int | None = None
    if arr.materialized:
        violation = _first_violation(arr.view())

    # Each check loads the element and its parent: ~2 reads, 2 instr.
    per_elem = PerElem(instr=2.0, read=2 * es)
    if parallel:
        part = ctx.backend.make_partition(n, ctx.threads)
        fractions = _scan_fractions(part, violation, n, exact=arr.materialized)
        phases = [
            parallel_phase(
                "heap-check",
                part,
                per_elem,
                placement,
                working_set,
                scan_fractions=fractions,
                sync_points=part.num_chunks,
            )
        ]
    else:
        scanned = float(n if violation is None else violation + 1)
        phases = [sequential_phase("heap-check", scanned, per_elem, placement, working_set)]

    value = None
    if arr.materialized:
        value = n if violation is None else violation

    profile = make_profile(ctx, "find", n, arr.elem, phases, parallel)
    return AlgoResult(ctx, value, profile, (arr,))


def is_heap(ctx: ExecutionContext, arr: SimArray) -> AlgoResult:
    """Whether the whole range is a max-heap."""
    inner = is_heap_until(ctx, arr)
    value = None
    if arr.materialized:
        value = inner.value == arr.n
    return inner.with_value(value)
