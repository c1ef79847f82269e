"""``reduce`` / ``transform_reduce``: parallel reductions (Section 5.5).

Structure: each thread reduces its chunks locally, then partial results
are combined on one thread -- a log-depth combine modeled as a small
sequential phase. GNU's library has no ``reduce``; the paper substitutes
``accumulate``, which we mirror by treating reduce as supported there but
carrying GNU's accumulate overhead in its backend model.
"""

from __future__ import annotations

from repro.algorithms._build import (
    PerElem,
    blend_placement,
    make_profile,
    parallel_phase,
    sequential_phase,
)
from repro.algorithms._ops import PLUS, BinaryOp, ElementOp
from repro.algorithms._result import AlgoResult
from repro.execution.context import ExecutionContext
from repro.memory.array import SimArray

__all__ = ["reduce", "transform_reduce", "COMBINE_INSTR_PER_PARTIAL"]

#: Instructions to merge one partial result into the accumulator.
COMBINE_INSTR_PER_PARTIAL = 4.0


def reduce(
    ctx: ExecutionContext,
    arr: SimArray,
    op: BinaryOp = PLUS,
    init: float = 0.0,
) -> AlgoResult:
    """Reduce ``arr`` with ``op``; value is the reduction in run mode."""
    return _reduce_impl(ctx, arr, op, init, transform=None)


def transform_reduce(
    ctx: ExecutionContext,
    arr: SimArray,
    transform: ElementOp,
    op: BinaryOp = PLUS,
    init: float = 0.0,
) -> AlgoResult:
    """Apply ``transform`` to each element, then reduce with ``op``."""
    return _reduce_impl(ctx, arr, op, init, transform=transform)


def _reduce_impl(
    ctx: ExecutionContext,
    arr: SimArray,
    op: BinaryOp,
    init: float,
    transform: ElementOp | None,
) -> AlgoResult:
    alg = "reduce" if transform is None else "transform_reduce"
    n = arr.n
    es = arr.elem.size
    instr = op.instr_per_elem
    fp = op.fp_per_elem
    if transform is not None:
        instr += transform.instr_per_elem
        fp += transform.fp_per_elem
    per_elem = PerElem(instr=instr, fp=fp, read=es)
    placement = blend_placement([(arr, 1.0)])
    working_set = float(n * es)
    parallel = ctx.runs_parallel(alg, n)

    if parallel:
        partition = ctx.backend.make_partition(n, ctx.threads)
        phases = [
            parallel_phase("chunk-reduce", partition, per_elem, placement, working_set),
            sequential_phase(
                "combine",
                elems=float(partition.num_chunks),
                per_elem=PerElem(instr=COMBINE_INSTR_PER_PARTIAL, fp=op.fp_per_elem),
                placement=None,
                working_set=0.0,
                vectorizable=False,
            ),
        ]
    else:
        phases = [
            sequential_phase("reduce", float(n), per_elem, placement, working_set)
        ]

    value = None
    if arr.materialized:
        data = arr.view()
        if transform is not None:
            transformed = transform(data)
        else:
            transformed = data
        if parallel:
            partials = [
                op.reduce(transformed[c.start : c.stop]) for c in partition.chunks
            ]
            acc = init
            for partial in partials:
                acc = op.combine(acc, partial)
            value = acc
        else:
            value = op.combine(init, op.reduce(transformed))

    profile = make_profile(ctx, alg, n, arr.elem, phases, parallel)
    return AlgoResult(ctx, value, profile, (arr,))
