"""``merge``: combine two sorted ranges (parallelised by co-ranking).

Parallel merge splits the output into p equal pieces and finds the
matching split points in both inputs by binary search (co-ranking), so
every thread merges independently -- the same structure GNU's multiway
merge uses internally.
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
from repro.errors import ConfigurationError
from repro.execution.context import ExecutionContext
from repro.memory.array import SimArray
from repro.algorithms.sort import merge_sorted_arrays

__all__ = ["merge"]


def merge(
    ctx: ExecutionContext, a: SimArray, b: SimArray, dst: SimArray
) -> AlgoResult:
    """Merge sorted ``a`` and ``b`` into ``dst``."""
    n = a.n + b.n
    if dst.n < n:
        raise ConfigurationError("destination too small for merge")
    alg = "merge"
    es = a.elem.size
    per_elem = PerElem(instr=2.0, read=es, write=dst.elem.size)
    placement = blend_placement([(a, 1.0), (b, 1.0), (dst, 1.0)])
    working_set = float(n * es * 2)
    parallel = ctx.runs_parallel(alg, n)

    if parallel:
        partition = ctx.backend.make_partition(n, ctx.threads)
        phases = [
            # Co-ranking: log-cost split search per chunk, then the merge.
            sequential_phase(
                "corank",
                elems=float(partition.num_chunks),
                per_elem=PerElem(instr=2.0 * np.log2(max(2, n))),
                placement=None,
                working_set=0.0,
                vectorizable=False,
            ),
            parallel_phase("merge", partition, per_elem, placement, working_set),
        ]
    else:
        phases = [sequential_phase("merge", float(n), per_elem, placement, working_set)]

    if a.materialized and b.materialized and dst.materialized:
        merged = merge_sorted_arrays(a.view(), b.view())
        dst.view()[:n] = merged

    profile = make_profile(ctx, alg, n, a.elem, phases, parallel)
    return AlgoResult(ctx, None, profile, (a, b, dst))
