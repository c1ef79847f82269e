"""In-place rearrangements: ``reverse`` and ``swap_ranges``.

Both are perfectly parallel swap passes over half/full the range.
"""

from __future__ import annotations

from repro.algorithms._build import (
    PerElem,
    blend_placement,
    make_profile,
    parallel_phase,
    sequential_phase,
)
from repro.algorithms._result import AlgoResult
from repro.errors import ConfigurationError
from repro.execution.context import ExecutionContext
from repro.memory.array import SimArray

__all__ = ["reverse", "swap_ranges"]


def reverse(ctx: ExecutionContext, arr: SimArray) -> AlgoResult:
    """Reverse ``arr`` in place (n/2 swaps, each touching two elements)."""
    alg = "transform"
    n = arr.n
    es = arr.elem.size
    half = max(1, n // 2)
    per_elem = PerElem(instr=2.0, read=2 * es, write=2 * es)
    placement = blend_placement([(arr, 1.0)])
    working_set = float(n * es)
    parallel = ctx.runs_parallel(alg, half)

    if parallel:
        partition = ctx.backend.make_partition(half, ctx.threads)
        phases = [parallel_phase("swap", partition, per_elem, placement, working_set)]
    else:
        phases = [sequential_phase("swap", float(half), per_elem, placement, working_set)]

    if arr.materialized:
        arr.view()[:] = arr.view()[::-1].copy()

    profile = make_profile(ctx, alg, n, arr.elem, phases, parallel)
    return AlgoResult(ctx, None, profile, (arr,))


def swap_ranges(ctx: ExecutionContext, a: SimArray, b: SimArray) -> AlgoResult:
    """Exchange the contents of two equal-length ranges."""
    if a.n != b.n:
        raise ConfigurationError("swap_ranges requires same-length ranges")
    alg = "transform"
    n = a.n
    es = a.elem.size
    per_elem = PerElem(instr=2.0, read=2 * es, write=2 * es)
    placement = blend_placement([(a, 1.0), (b, 1.0)])
    working_set = float(2 * n * es)
    parallel = ctx.runs_parallel(alg, n)

    if parallel:
        partition = ctx.backend.make_partition(n, ctx.threads)
        phases = [parallel_phase("swap", partition, per_elem, placement, working_set)]
    else:
        phases = [sequential_phase("swap", float(n), per_elem, placement, working_set)]

    if a.materialized and b.materialized:
        av, bv = a.view(), b.view()
        tmp = av.copy()
        av[:] = bv
        bv[:] = tmp

    profile = make_profile(ctx, alg, n, a.elem, phases, parallel)
    return AlgoResult(ctx, None, profile, (a, b))
