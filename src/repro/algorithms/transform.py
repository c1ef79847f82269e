"""``transform`` (unary and binary): map into a destination range."""

from __future__ import annotations

from repro.algorithms._build import (
    PerElem,
    blend_placement,
    make_profile,
    parallel_phase,
    sequential_phase,
)
from repro.algorithms._ops import BinaryOp, ElementOp
from repro.algorithms._result import AlgoResult
from repro.errors import ConfigurationError
from repro.execution.context import ExecutionContext
from repro.memory.array import SimArray

__all__ = ["transform", "transform_binary"]


def transform(
    ctx: ExecutionContext, src: SimArray, dst: SimArray, op: ElementOp
) -> AlgoResult:
    """``dst[i] = op(src[i])`` for all i."""
    if dst.n < src.n:
        raise ConfigurationError("destination too small for transform")
    alg = "transform"
    n = src.n
    es = src.elem.size
    per_elem = PerElem(
        instr=op.instr_per_elem + 1.0,
        fp=op.fp_per_elem,
        read=es,
        write=dst.elem.size,
    )
    placement = blend_placement([(src, 1.0), (dst, 1.0)])
    working_set = float(n * (es + dst.elem.size))
    parallel = ctx.runs_parallel(alg, n)

    if parallel:
        partition = ctx.backend.make_partition(n, ctx.threads)
        phases = [parallel_phase("map", partition, per_elem, placement, working_set)]
    else:
        phases = [sequential_phase("map", float(n), per_elem, placement, working_set)]

    if src.materialized and dst.materialized:
        sview, dview = src.view(), dst.view()
        if parallel:
            for c in partition.chunks:
                dview[c.start : c.stop] = op(sview[c.start : c.stop])
        else:
            dview[:n] = op(sview[:n])

    profile = make_profile(ctx, alg, n, src.elem, phases, parallel)
    return AlgoResult(ctx, None, profile, (src, dst))


def transform_binary(
    ctx: ExecutionContext,
    a: SimArray,
    b: SimArray,
    dst: SimArray,
    op: BinaryOp,
) -> AlgoResult:
    """``dst[i] = op(a[i], b[i])`` for all i."""
    if a.n != b.n:
        raise ConfigurationError("binary transform inputs must match in size")
    if dst.n < a.n:
        raise ConfigurationError("destination too small for transform")
    alg = "transform"
    n = a.n
    es = a.elem.size
    per_elem = PerElem(
        instr=op.instr_per_elem + 1.0,
        fp=op.fp_per_elem,
        read=2 * es,
        write=dst.elem.size,
    )
    placement = blend_placement([(a, 1.0), (b, 1.0), (dst, 1.0)])
    working_set = float(n * (2 * es + dst.elem.size))
    parallel = ctx.runs_parallel(alg, n)

    if parallel:
        partition = ctx.backend.make_partition(n, ctx.threads)
        phases = [parallel_phase("zip-map", partition, per_elem, placement, working_set)]
    else:
        phases = [sequential_phase("zip-map", float(n), per_elem, placement, working_set)]

    if a.materialized and b.materialized and dst.materialized:
        if op.reduce_ufunc is None:
            raise ConfigurationError(f"op {op.name!r} has no runnable form")
        av, bv, dv = a.view(), b.view(), dst.view()
        if parallel:
            for c in partition.chunks:
                dv[c.start : c.stop] = op.reduce_ufunc(
                    av[c.start : c.stop], bv[c.start : c.stop]
                )
        else:
            dv[:n] = op.reduce_ufunc(av[:n], bv[:n])

    profile = make_profile(ctx, alg, n, a.elem, phases, parallel)
    return AlgoResult(ctx, None, profile, (a, b, dst))
