"""Mutating/compacting algorithms: ``replace``/``replace_if``/
``replace_copy``, ``remove``/``remove_if``/``remove_copy``, ``unique``/
``unique_copy``, ``rotate``/``rotate_copy``, ``reverse_copy``.

Replace is a pure map; the compaction family (remove/unique) is
scan-structured like ``copy_if`` (stable output offsets need prefix
counts); rotate is two block moves.
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
from repro.algorithms._ops import Predicate, equals
from repro.algorithms._result import AlgoResult
from repro.errors import ConfigurationError
from repro.execution.context import ExecutionContext
from repro.memory.array import SimArray

__all__ = [
    "replace",
    "replace_if",
    "replace_copy",
    "remove",
    "remove_if",
    "remove_copy",
    "unique",
    "unique_copy",
    "rotate",
    "rotate_copy",
    "reverse_copy",
]


def _map_profile(ctx, arrays, n, per_elem, label):
    placement = blend_placement(arrays)
    working_set = float(sum(a.n * a.elem.size for a, _ in arrays))
    parallel = ctx.runs_parallel("transform", n)
    if parallel:
        part = ctx.backend.make_partition(n, ctx.threads)
        phases = [parallel_phase(label, part, per_elem, placement, working_set)]
    else:
        part = None
        phases = [sequential_phase(label, float(n), per_elem, placement, working_set)]
    return phases, parallel, part


# --- replace family ----------------------------------------------------------------


def replace_if(
    ctx: ExecutionContext, arr: SimArray, pred: Predicate, new_value: float
) -> AlgoResult:
    """Overwrite pred-matching elements with ``new_value`` in place."""
    n = arr.n
    es = arr.elem.size
    per_elem = PerElem(
        instr=pred.instr_per_elem + 1.0,
        fp=pred.fp_per_elem,
        read=es,
        write=es * max(0.25, pred.selectivity),
    )
    phases, parallel, part = _map_profile(ctx, [(arr, 1.0)], n, per_elem, "replace")
    if arr.materialized:
        data = arr.view()
        data[pred(data)] = new_value
    profile = make_profile(ctx, "transform", n, arr.elem, phases, parallel)
    return AlgoResult(ctx, None, profile, (arr,))


def replace(
    ctx: ExecutionContext, arr: SimArray, old_value: float, new_value: float
) -> AlgoResult:
    """Overwrite every ``old_value`` with ``new_value``."""
    return replace_if(ctx, arr, equals(old_value, selectivity=0.01), new_value)


def replace_copy(
    ctx: ExecutionContext,
    src: SimArray,
    dst: SimArray,
    old_value: float,
    new_value: float,
) -> AlgoResult:
    """Copy with ``old_value`` replaced by ``new_value``."""
    if dst.n < src.n:
        raise ConfigurationError("destination too small")
    n = src.n
    es = src.elem.size
    per_elem = PerElem(instr=2.0, read=es, write=es)
    phases, parallel, part = _map_profile(
        ctx, [(src, 1.0), (dst, 1.0)], n, per_elem, "replace-copy"
    )
    if src.materialized and dst.materialized:
        out = src.view().copy()
        out[out == old_value] = new_value
        dst.view()[:n] = out
    profile = make_profile(ctx, "transform", n, src.elem, phases, parallel)
    return AlgoResult(ctx, None, profile, (src, dst))


# --- compaction family (scan-structured) --------------------------------------------


def _compact_profile(ctx, arrays, n, es, probe_instr, label):
    """Count pass + stable scatter pass (cf. partition/copy_if)."""
    placement = blend_placement(arrays)
    working_set = float(sum(a.n * a.elem.size for a, _ in arrays))
    parallel = ctx.runs_parallel("inclusive_scan", n) and ctx.runs_parallel(
        "transform", n
    )
    if parallel:
        part = ctx.backend.make_partition(n, ctx.threads)
        phases = [
            parallel_phase(
                f"{label}-count",
                part,
                PerElem(instr=probe_instr, read=es),
                placement,
                working_set,
            ),
            sequential_phase(
                "offsets",
                elems=float(part.num_chunks),
                per_elem=PerElem(instr=3.0),
                placement=None,
                working_set=0.0,
                vectorizable=False,
            ),
            parallel_phase(
                f"{label}-compact",
                part,
                PerElem(instr=probe_instr + 1.0, read=es, write=0.75 * es),
                placement,
                working_set,
            ),
        ]
        regions = 2
    else:
        phases = [
            sequential_phase(
                label,
                float(n),
                PerElem(instr=probe_instr + 1.0, read=es, write=0.75 * es),
                placement,
                working_set,
            )
        ]
        regions = 1
    return phases, parallel, regions


def remove_if(ctx: ExecutionContext, arr: SimArray, pred: Predicate) -> AlgoResult:
    """Stable-compact away pred-matching elements; value = new length."""
    n = arr.n
    phases, parallel, regions = _compact_profile(
        ctx, [(arr, 1.0)], n, arr.elem.size, pred.instr_per_elem + 0.5, "remove"
    )
    value = None
    if arr.materialized:
        data = arr.view()
        kept = data[~pred(data)]
        data[: len(kept)] = kept
        value = int(len(kept))
    profile = make_profile(
        ctx, "inclusive_scan", n, arr.elem, phases, parallel, regions=regions
    )
    return AlgoResult(ctx, value, profile, (arr,))


def remove(ctx: ExecutionContext, arr: SimArray, value: float) -> AlgoResult:
    """Stable-compact away elements equal to ``value``; value = new length."""
    return remove_if(ctx, arr, equals(value, selectivity=0.01))


def remove_copy(
    ctx: ExecutionContext, src: SimArray, dst: SimArray, value: float
) -> AlgoResult:
    """Copy all elements not equal to ``value``; value = output length."""
    if dst.n < src.n:
        raise ConfigurationError("destination may need up to n slots")
    n = src.n
    phases, parallel, regions = _compact_profile(
        ctx, [(src, 1.0), (dst, 0.75)], n, src.elem.size, 1.5, "remove-copy"
    )
    out_len = None
    if src.materialized and dst.materialized:
        kept = src.view()[src.view() != value]
        dst.view()[: len(kept)] = kept
        out_len = int(len(kept))
    profile = make_profile(
        ctx, "inclusive_scan", n, src.elem, phases, parallel, regions=regions
    )
    return AlgoResult(ctx, out_len, profile, (src, dst))


def unique(ctx: ExecutionContext, arr: SimArray) -> AlgoResult:
    """Compact consecutive duplicates; value = new length."""
    n = arr.n
    phases, parallel, regions = _compact_profile(
        ctx, [(arr, 1.0)], n, arr.elem.size, 1.5, "unique"
    )
    value = None
    if arr.materialized:
        data = arr.view()
        if n == 1:
            value = 1
        else:
            keep = np.concatenate(([True], data[1:] != data[:-1]))
            kept = data[keep]
            data[: len(kept)] = kept
            value = int(len(kept))
    profile = make_profile(
        ctx, "inclusive_scan", n, arr.elem, phases, parallel, regions=regions
    )
    return AlgoResult(ctx, value, profile, (arr,))


def unique_copy(ctx: ExecutionContext, src: SimArray, dst: SimArray) -> AlgoResult:
    """Copy with consecutive duplicates collapsed; value = output length."""
    if dst.n < src.n:
        raise ConfigurationError("destination may need up to n slots")
    n = src.n
    phases, parallel, regions = _compact_profile(
        ctx, [(src, 1.0), (dst, 0.75)], n, src.elem.size, 1.5, "unique-copy"
    )
    out_len = None
    if src.materialized and dst.materialized:
        data = src.view()
        keep = (
            np.ones(1, dtype=bool)
            if n == 1
            else np.concatenate(([True], data[1:] != data[:-1]))
        )
        kept = data[keep]
        dst.view()[: len(kept)] = kept
        out_len = int(len(kept))
    profile = make_profile(
        ctx, "inclusive_scan", n, src.elem, phases, parallel, regions=regions
    )
    return AlgoResult(ctx, out_len, profile, (src, dst))


# --- rotations -----------------------------------------------------------------------


def rotate(ctx: ExecutionContext, arr: SimArray, middle: int) -> AlgoResult:
    """Left-rotate so that ``arr[middle]`` becomes the first element."""
    n = arr.n
    if not 0 <= middle <= n:
        raise ConfigurationError("middle out of range")
    es = arr.elem.size
    per_elem = PerElem(instr=1.0, read=es, write=es)
    phases, parallel, part = _map_profile(ctx, [(arr, 1.0)], n, per_elem, "rotate")
    if arr.materialized:
        arr.view()[:] = np.roll(arr.view(), -middle)
    profile = make_profile(ctx, "transform", n, arr.elem, phases, parallel)
    return AlgoResult(ctx, None, profile, (arr,))


def rotate_copy(
    ctx: ExecutionContext, src: SimArray, dst: SimArray, middle: int
) -> AlgoResult:
    """Rotated copy of ``src`` into ``dst``."""
    if dst.n < src.n:
        raise ConfigurationError("destination too small")
    if not 0 <= middle <= src.n:
        raise ConfigurationError("middle out of range")
    n = src.n
    es = src.elem.size
    per_elem = PerElem(instr=1.0, read=es, write=es)
    phases, parallel, part = _map_profile(
        ctx, [(src, 1.0), (dst, 1.0)], n, per_elem, "rotate-copy"
    )
    if src.materialized and dst.materialized:
        dst.view()[:n] = np.roll(src.view(), -middle)
    profile = make_profile(ctx, "transform", n, src.elem, phases, parallel)
    return AlgoResult(ctx, None, profile, (src, dst))


def reverse_copy(ctx: ExecutionContext, src: SimArray, dst: SimArray) -> AlgoResult:
    """Reversed copy of ``src`` into ``dst``."""
    if dst.n < src.n:
        raise ConfigurationError("destination too small")
    n = src.n
    es = src.elem.size
    per_elem = PerElem(instr=1.0, read=es, write=es)
    phases, parallel, part = _map_profile(
        ctx, [(src, 1.0), (dst, 1.0)], n, per_elem, "reverse-copy"
    )
    if src.materialized and dst.materialized:
        dst.view()[:n] = src.view()[::-1]
    profile = make_profile(ctx, "transform", n, src.elem, phases, parallel)
    return AlgoResult(ctx, None, profile, (src, dst))
