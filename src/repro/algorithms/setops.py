"""Set operations on sorted ranges: ``includes``, ``set_union``,
``set_intersection``, ``set_difference``, ``set_symmetric_difference``.

STL set operations have *multiset* semantics (duplicates are matched by
count); run mode implements them via unique/count merges so the results
match libstdc++ exactly. Cost-wise they are merge-family algorithms: one
co-ranked parallel pass over both inputs.
"""

from __future__ import annotations

from typing import Callable

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

__all__ = [
    "includes",
    "set_union",
    "set_intersection",
    "set_difference",
    "set_symmetric_difference",
]


def _multiset_counts(values: np.ndarray):
    uniq, counts = np.unique(values, return_counts=True)
    return uniq, counts


def _combine(
    a: np.ndarray, b: np.ndarray, combine: Callable[[int, int], int]
) -> np.ndarray:
    """Merge two sorted multisets with a per-value count combiner."""
    ua, ca = _multiset_counts(a)
    ub, cb = _multiset_counts(b)
    all_values = np.union1d(ua, ub)
    ia = np.searchsorted(ua, all_values)
    ib = np.searchsorted(ub, all_values)
    counts = []
    for v, pa, pb in zip(all_values, ia, ib):
        na = int(ca[pa]) if pa < len(ua) and ua[pa] == v else 0
        nb = int(cb[pb]) if pb < len(ub) and ub[pb] == v else 0
        counts.append(combine(na, nb))
    return np.repeat(all_values, counts)


def _setop_impl(
    ctx: ExecutionContext,
    a: SimArray,
    b: SimArray,
    dst: SimArray | None,
    label: str,
    combine: Callable[[int, int], int] | None,
    out_factor: float,
) -> AlgoResult:
    """Shared profile skeleton: one merge-style pass over both inputs."""
    n = a.n + b.n
    es = a.elem.size
    arrays = [(a, 1.0), (b, 1.0)] + ([(dst, out_factor)] if dst is not None else [])
    placement = blend_placement(arrays)
    working_set = float(n * es * (1.0 + out_factor))
    per_elem = PerElem(instr=2.5, read=es, write=es * out_factor)
    parallel = ctx.runs_parallel("merge", n)

    if parallel:
        partition = ctx.backend.make_partition(n, ctx.threads)
        phases = [
            sequential_phase(
                "corank",
                elems=float(partition.num_chunks),
                per_elem=PerElem(instr=2.0 * np.log2(max(2, n))),
                placement=None,
                working_set=0.0,
                vectorizable=False,
            ),
            parallel_phase(label, partition, per_elem, placement, working_set),
        ]
    else:
        phases = [sequential_phase(label, float(n), per_elem, placement, working_set)]

    value = None
    if a.materialized and b.materialized and combine is not None:
        merged = _combine(a.view(), b.view(), combine)
        if dst is not None and dst.materialized:
            if dst.n < len(merged):
                raise ConfigurationError("destination too small for set result")
            dst.view()[: len(merged)] = merged
        value = int(len(merged))

    touched = tuple(x for x, _ in arrays)
    profile = make_profile(ctx, "merge", n, a.elem, phases, parallel)
    return AlgoResult(ctx, value, profile, touched)


def includes(ctx: ExecutionContext, a: SimArray, b: SimArray) -> AlgoResult:
    """Whether sorted ``a`` contains every element of sorted ``b`` (by count)."""
    result = _setop_impl(ctx, a, b, None, "includes", None, out_factor=0.0)
    value = None
    if a.materialized and b.materialized:
        missing = _combine(a.view(), b.view(), lambda na, nb: max(0, nb - na))
        value = len(missing) == 0
    return result.with_value(value)


def set_union(
    ctx: ExecutionContext, a: SimArray, b: SimArray, dst: SimArray
) -> AlgoResult:
    """Multiset union (per-value max count); value = output length."""
    return _setop_impl(ctx, a, b, dst, "set-union", max, out_factor=1.0)


def set_intersection(
    ctx: ExecutionContext, a: SimArray, b: SimArray, dst: SimArray
) -> AlgoResult:
    """Multiset intersection (per-value min count); value = output length."""
    return _setop_impl(ctx, a, b, dst, "set-intersection", min, out_factor=0.5)


def set_difference(
    ctx: ExecutionContext, a: SimArray, b: SimArray, dst: SimArray
) -> AlgoResult:
    """Elements of ``a`` not matched in ``b`` (count-wise)."""
    return _setop_impl(
        ctx, a, b, dst, "set-difference", lambda na, nb: max(0, na - nb), out_factor=0.5
    )


def set_symmetric_difference(
    ctx: ExecutionContext, a: SimArray, b: SimArray, dst: SimArray
) -> AlgoResult:
    """Elements in exactly one of the two multisets (count-wise)."""
    return _setop_impl(
        ctx,
        a,
        b,
        dst,
        "set-symmetric-difference",
        lambda na, nb: abs(na - nb),
        out_factor=0.75,
    )
