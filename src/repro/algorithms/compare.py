"""Range comparisons: ``equal`` / ``mismatch`` / ``lexicographical_compare``.

All are early-exit dual-range scans (find-family cost structure): equal
ranges scan everything; a mismatch at position h stops the team there.
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

__all__ = ["equal", "mismatch", "lexicographical_compare"]


def _first_mismatch(a: SimArray, b: SimArray) -> int | None:
    av, bv = a.view(), b.view()
    n = min(len(av), len(bv))
    diff = np.nonzero(av[:n] != bv[:n])[0]
    return int(diff[0]) if len(diff) else None


def _dual_scan(
    ctx: ExecutionContext, a: SimArray, b: SimArray, label: str, hit: int | None
) -> tuple:
    """Shared profile construction for dual-range early-exit scans."""
    n = min(a.n, b.n)
    es = a.elem.size
    per_elem = PerElem(instr=1.5, read=2 * es)
    placement = blend_placement([(a, 1.0), (b, 1.0)])
    working_set = float(n * es * 2)
    parallel = ctx.runs_parallel("find", n)

    if parallel:
        partition = ctx.backend.make_partition(n, ctx.threads)
        from repro.algorithms.find import _scan_fractions

        exact = a.materialized and b.materialized
        fractions = _scan_fractions(partition, hit, n, exact=exact)
        phases = [
            parallel_phase(
                label,
                partition,
                per_elem,
                placement,
                working_set,
                scan_fractions=fractions,
                sync_points=partition.num_chunks,
            )
        ]
    else:
        scanned = float(n if hit is None else hit + 1)
        phases = [sequential_phase(label, scanned, per_elem, placement, working_set)]

    profile = make_profile(ctx, "find", n, a.elem, phases, parallel)
    return profile


def equal(ctx: ExecutionContext, a: SimArray, b: SimArray) -> AlgoResult:
    """Whether the ranges are element-wise equal."""
    if a.n != b.n:
        raise ConfigurationError("equal requires same-length ranges")
    hit = _first_mismatch(a, b) if (a.materialized and b.materialized) else None
    profile = _dual_scan(ctx, a, b, "equal-scan", hit)
    value = None
    if a.materialized and b.materialized:
        value = hit is None
    return AlgoResult(ctx, value, profile, (a, b))


def mismatch(ctx: ExecutionContext, a: SimArray, b: SimArray) -> AlgoResult:
    """Index of the first mismatch (or ``None`` if equal)."""
    hit = _first_mismatch(a, b) if (a.materialized and b.materialized) else None
    profile = _dual_scan(ctx, a, b, "mismatch-scan", hit)
    return AlgoResult(ctx, hit, profile, (a, b))


def lexicographical_compare(
    ctx: ExecutionContext, a: SimArray, b: SimArray
) -> AlgoResult:
    """Whether ``a`` precedes ``b`` lexicographically."""
    hit = None
    value = None
    if a.materialized and b.materialized:
        hit = _first_mismatch(a, b)
        if hit is not None:
            value = bool(a.view()[hit] < b.view()[hit])
        else:
            value = a.n < b.n
    profile = _dual_scan(ctx, a, b, "lex-scan", hit)
    return AlgoResult(ctx, value, profile, (a, b))
