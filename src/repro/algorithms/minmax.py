"""``min_element`` / ``max_element`` / ``minmax_element``: index-returning
reductions. Reduce-family profiles; run mode computes real argmin/argmax."""

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
from repro.execution.context import ExecutionContext
from repro.memory.array import SimArray

__all__ = ["min_element", "max_element", "minmax_element"]


def _extreme_impl(
    ctx: ExecutionContext, arr: SimArray, alg_label: str, both: bool
) -> AlgoResult:
    alg = "reduce"  # cost family
    n = arr.n
    es = arr.elem.size
    per_elem = PerElem(instr=1.0 + (1.0 if both else 0.0), fp=1.0, read=es)
    placement = blend_placement([(arr, 1.0)])
    working_set = float(n * es)
    parallel = ctx.runs_parallel(alg, n)

    if parallel:
        partition = ctx.backend.make_partition(n, ctx.threads)
        phases = [
            parallel_phase(alg_label, partition, per_elem, placement, working_set),
            sequential_phase(
                "combine",
                elems=float(partition.num_chunks),
                per_elem=PerElem(instr=3.0),
                placement=None,
                working_set=0.0,
                vectorizable=False,
            ),
        ]
    else:
        phases = [sequential_phase(alg_label, float(n), per_elem, placement, working_set)]

    value = None
    if arr.materialized:
        data = arr.view()
        imin = int(np.argmin(data))
        imax = int(np.argmax(data))
        if both:
            value = (imin, imax)
        elif alg_label == "min_element":
            value = imin
        else:
            value = imax

    profile = make_profile(ctx, alg, n, arr.elem, phases, parallel)
    return AlgoResult(ctx, value, profile, (arr,))


def min_element(ctx: ExecutionContext, arr: SimArray) -> AlgoResult:
    """Index of the smallest element."""
    return _extreme_impl(ctx, arr, "min_element", both=False)


def max_element(ctx: ExecutionContext, arr: SimArray) -> AlgoResult:
    """Index of the largest element."""
    return _extreme_impl(ctx, arr, "max_element", both=False)


def minmax_element(ctx: ExecutionContext, arr: SimArray) -> AlgoResult:
    """(argmin, argmax) in one pass."""
    return _extreme_impl(ctx, arr, "minmax_element", both=True)
