"""Prefix sums: ``inclusive_scan`` / ``exclusive_scan`` (+``transform_``
variants). Paper Section 5.4.

Parallel structure (the standard three-step scan):

1. each thread reduces its chunk (read pass);
2. chunk totals are exclusive-scanned on one thread (tiny);
3. each thread re-scans its chunk adding its offset (read+write pass).

That extra read pass is why scan's speedup ceiling is well below the
STREAM ratio (~4.5-4.7 on the paper's machines), and the offset-carry
structure is why the custom allocator *hurts* (Fig. 1: -19 %), encoded as
``SCAN_SPREAD_PENALTY``.

Capability gaps reproduced here:

* GNU parallel mode has no scan at all -- calling it raises
  :class:`~repro.errors.UnsupportedOperationError` (the paper's "N/A");
* NVC-OMP falls back to its sequential implementation, whose codegen is
  slightly worse than GCC's (Table 5 row ~0.9).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms._build import (
    PerElem,
    blend_placement,
    make_profile,
    parallel_phase,
    require_support,
    sequential_phase,
)
from repro.algorithms._ops import PLUS, BinaryOp, ElementOp
from repro.algorithms._result import AlgoResult
from repro.errors import ConfigurationError
from repro.execution.context import ExecutionContext
from repro.memory.array import SimArray

__all__ = [
    "inclusive_scan",
    "exclusive_scan",
    "transform_inclusive_scan",
    "transform_exclusive_scan",
    "SCAN_SPREAD_PENALTY",
]

#: Fig. 1: custom allocator slows inclusive_scan by ~19 % on Mach A.
SCAN_SPREAD_PENALTY = 1.50
#: Loop/store bookkeeping per element of the scan pass.
_SCAN_LOOP_INSTR = 1.0


def inclusive_scan(
    ctx: ExecutionContext,
    arr: SimArray,
    out: SimArray | None = None,
    op: BinaryOp = PLUS,
) -> AlgoResult:
    """Inclusive prefix combine of ``arr`` into ``out`` (default in-place)."""
    return _scan_impl(ctx, arr, out, op, exclusive=False, init=0.0, transform=None)


def exclusive_scan(
    ctx: ExecutionContext,
    arr: SimArray,
    init: float = 0.0,
    out: SimArray | None = None,
    op: BinaryOp = PLUS,
) -> AlgoResult:
    """Exclusive prefix combine with initial value ``init``."""
    return _scan_impl(ctx, arr, out, op, exclusive=True, init=init, transform=None)


def transform_inclusive_scan(
    ctx: ExecutionContext,
    arr: SimArray,
    transform: ElementOp,
    out: SimArray | None = None,
    op: BinaryOp = PLUS,
) -> AlgoResult:
    """Inclusive scan of ``transform(x)``."""
    return _scan_impl(
        ctx, arr, out, op, exclusive=False, init=0.0, transform=transform
    )


def transform_exclusive_scan(
    ctx: ExecutionContext,
    arr: SimArray,
    transform: ElementOp,
    init: float = 0.0,
    out: SimArray | None = None,
    op: BinaryOp = PLUS,
) -> AlgoResult:
    """Exclusive scan of ``transform(x)``."""
    return _scan_impl(
        ctx, arr, out, op, exclusive=True, init=init, transform=transform
    )


def _alg_name(exclusive: bool, transform: ElementOp | None) -> str:
    base = "exclusive_scan" if exclusive else "inclusive_scan"
    return f"transform_{base}" if transform is not None else base


def _scan_impl(
    ctx: ExecutionContext,
    arr: SimArray,
    out: SimArray | None,
    op: BinaryOp,
    exclusive: bool,
    init: float,
    transform: ElementOp | None,
) -> AlgoResult:
    alg = _alg_name(exclusive, transform)
    require_support(ctx, alg)
    n = arr.n
    es = arr.elem.size
    dest = out if out is not None else arr
    if dest.n < n:
        raise ConfigurationError("output array too small for scan")

    t_instr = transform.instr_per_elem if transform is not None else 0.0
    t_fp = transform.fp_per_elem if transform is not None else 0.0
    working_set = float(n * es) * (2.0 if out is not None else 1.0)
    parallel = ctx.runs_parallel(alg, n)

    if parallel:
        partition = ctx.backend.make_partition(n, ctx.threads)
        in_placement = blend_placement([(arr, 1.0)])
        rw_placement = blend_placement([(arr, 1.0), (dest, 1.0)])
        phases = [
            parallel_phase(
                "chunk-reduce",
                partition,
                PerElem(instr=op.instr_per_elem + t_instr, fp=op.fp_per_elem + t_fp, read=es),
                in_placement,
                working_set,
                spread_penalty=SCAN_SPREAD_PENALTY,
            ),
            sequential_phase(
                "carry-scan",
                elems=float(partition.num_chunks),
                per_elem=PerElem(instr=3.0, fp=op.fp_per_elem),
                placement=None,
                working_set=0.0,
                vectorizable=False,
            ),
            parallel_phase(
                "rescan",
                partition,
                PerElem(
                    instr=op.instr_per_elem + t_instr + _SCAN_LOOP_INSTR,
                    fp=op.fp_per_elem + t_fp,
                    read=es,
                    write=es,
                ),
                rw_placement,
                working_set,
                spread_penalty=SCAN_SPREAD_PENALTY,
            ),
        ]
        regions = 2  # two fork/joins around the serial carry step
    else:
        phases = [
            sequential_phase(
                "scan",
                float(n),
                PerElem(
                    instr=op.instr_per_elem + t_instr + _SCAN_LOOP_INSTR,
                    fp=op.fp_per_elem + t_fp,
                    read=es,
                    write=es,
                ),
                blend_placement([(arr, 1.0), (dest, 1.0)]),
                working_set,
            )
        ]
        regions = 1

    value = None
    if arr.materialized and dest.materialized:
        src = arr.view()
        values = transform(src) if transform is not None else src
        if parallel:
            # Step 1: chunk totals.
            totals = [op.reduce(values[c.start : c.stop]) for c in partition.chunks]
            # Step 2: exclusive scan of totals (carries).
            carries = []
            acc = init if exclusive else op.identity
            for total in totals:
                carries.append(acc)
                acc = op.combine(acc, total)
            # Step 3: rescan chunks with carry offsets.
            result = dest.view()
            for chunk, carry in zip(partition.chunks, carries):
                seg = values[chunk.start : chunk.stop]
                if len(seg) == 0:
                    continue
                prefix = op.accumulate(seg)
                if exclusive:
                    shifted = np.empty_like(prefix)
                    shifted[0] = carry
                    if len(prefix) > 1:
                        shifted[1:] = op.reduce_ufunc(prefix[:-1], carry)
                    result[chunk.start : chunk.stop] = shifted
                else:
                    result[chunk.start : chunk.stop] = op.reduce_ufunc(prefix, carry)
        else:
            prefix = op.accumulate(values)
            result = dest.view()
            if exclusive:
                result[0] = init
                if n > 1:
                    result[1:n] = op.reduce_ufunc(prefix[:-1], init)
            else:
                result[:n] = prefix
        value = float(result[n - 1])

    profile = make_profile(
        ctx, alg, n, arr.elem, phases, parallel, regions=regions
    )
    return AlgoResult(ctx, value, profile, (arr, dest))
