"""``for_each`` / ``for_each_n``: the map benchmark (paper Section 5.2).

The benchmark kernel (Listing 1) stores its iteration count in a volatile,
loops ``k_it`` times incrementing an accumulator, and writes the result to
the element -- so the functional result of ``for_each`` with that kernel
is every element becoming ``k_it``, while the cost scales with ``k_it``.
Any :class:`~repro.algorithms._ops.ElementOp` works here; the Listing-1
kernel lives in ``repro.suite.kernels``.
"""

from __future__ import annotations

from repro.algorithms._build import (
    PerElem,
    blend_placement,
    make_profile,
    parallel_phase,
    sequential_phase,
)
from repro.algorithms._ops import ElementOp
from repro.algorithms._result import AlgoResult
from repro.errors import ConfigurationError
from repro.execution.context import ExecutionContext
from repro.memory.array import SimArray

__all__ = ["for_each", "for_each_n", "FOR_EACH_LOOP_INSTR"]

#: Iterator/loop bookkeeping instructions for_each itself adds per element.
FOR_EACH_LOOP_INSTR = 2.0


def for_each(ctx: ExecutionContext, arr: SimArray, op: ElementOp) -> AlgoResult:
    """Apply ``op`` to every element of ``arr`` in place.

    Returns ``None`` as the value (like ``std::for_each`` with a mutating
    body); the array's contents are updated in run mode.
    """
    return for_each_n(ctx, arr, arr.n, op)


def for_each_n(
    ctx: ExecutionContext, arr: SimArray, n: int, op: ElementOp
) -> AlgoResult:
    """Apply ``op`` to the first ``n`` elements of ``arr``."""
    if not 0 < n <= arr.n:
        raise ConfigurationError(f"n must be in [1, {arr.n}], got {n}")
    alg = "for_each"
    es = arr.elem.size
    per_elem = PerElem(
        instr=op.instr_per_elem + FOR_EACH_LOOP_INSTR,
        fp=op.fp_per_elem,
        read=es,
        write=es,
    )
    working_set = float(n * es)
    placement = blend_placement([(arr, 1.0)])
    parallel = ctx.runs_parallel(alg, n)

    if parallel:
        partition = ctx.backend.make_partition(n, ctx.threads)
        phases = [
            parallel_phase(
                "map", partition, per_elem, placement, working_set
            )
        ]
    else:
        phases = [
            sequential_phase("map", float(n), per_elem, placement, working_set)
        ]

    # Run mode: actually apply the kernel chunk by chunk.
    if arr.materialized:
        data = arr.view()
        if parallel:
            for chunk in partition.chunks:
                data[chunk.start : chunk.stop] = op(data[chunk.start : chunk.stop])
        else:
            data[:n] = op(data[:n])

    profile = make_profile(ctx, alg, n, arr.elem, phases, parallel)
    return AlgoResult(ctx, None, profile, (arr,))
