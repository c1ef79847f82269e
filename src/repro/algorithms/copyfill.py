"""Data-movement algorithms: copy/copy_n/copy_if/move, fill/fill_n,
generate/generate_n. All map-family profiles with different traffic mixes."""

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
from repro.algorithms._ops import Predicate
from repro.algorithms._result import AlgoResult
from repro.errors import ConfigurationError
from repro.execution.context import ExecutionContext
from repro.memory.array import SimArray

__all__ = ["copy", "copy_n", "move", "copy_if", "fill", "fill_n", "generate", "generate_n"]


def _map_move(
    ctx: ExecutionContext,
    alg: str,
    n: int,
    src: SimArray | None,
    dst: SimArray,
    per_elem: PerElem,
    run: Callable | None,
) -> AlgoResult:
    """Common skeleton for the data-movement family."""
    arrays = [(a, 1.0) for a in (src, dst) if a is not None]
    placement = blend_placement(arrays)
    working_set = float(sum(a.n * a.elem.size for a, _ in arrays))
    parallel = ctx.runs_parallel(alg, n)

    if parallel:
        partition = ctx.backend.make_partition(n, ctx.threads)
        phases = [parallel_phase(alg, partition, per_elem, placement, working_set)]
    else:
        partition = None
        phases = [sequential_phase(alg, float(n), per_elem, placement, working_set)]

    value = None
    if run is not None and dst.materialized and (src is None or src.materialized):
        value = run(partition)

    profile = make_profile(ctx, alg, n, dst.elem, phases, parallel)
    touched = tuple(a for a, _ in arrays)
    return AlgoResult(ctx, value, profile, touched)


def copy(ctx: ExecutionContext, src: SimArray, dst: SimArray) -> AlgoResult:
    """Copy ``src`` into ``dst``."""
    return copy_n(ctx, src, src.n, dst)


def copy_n(ctx: ExecutionContext, src: SimArray, n: int, dst: SimArray) -> AlgoResult:
    """Copy the first ``n`` elements of ``src`` into ``dst``."""
    if not 0 < n <= src.n or dst.n < n:
        raise ConfigurationError("invalid copy_n bounds")
    es = src.elem.size

    def run(partition):
        s, d = src.view(), dst.view()
        if partition is not None:
            for c in partition.chunks:
                d[c.start : c.stop] = s[c.start : c.stop]
        else:
            d[:n] = s[:n]
        return None

    per_elem = PerElem(instr=1.0, read=es, write=dst.elem.size)
    return _map_move(ctx, "copy", n, src, dst, per_elem, run)


def move(ctx: ExecutionContext, src: SimArray, dst: SimArray) -> AlgoResult:
    """Move ``src`` into ``dst`` (trivially-copyable: same cost as copy)."""
    return copy(ctx, src, dst)


def copy_if(
    ctx: ExecutionContext, src: SimArray, dst: SimArray, pred: Predicate
) -> AlgoResult:
    """Copy elements satisfying ``pred``; value is the count copied.

    Parallel copy_if is scan-structured (offsets need a prefix count), so
    it pays an extra pass over the predicate results.
    """
    if dst.n < src.n:
        raise ConfigurationError("destination may need up to n slots")
    alg = "copy"
    n = src.n
    es = src.elem.size
    per_elem = PerElem(
        instr=pred.instr_per_elem + 2.0,
        fp=pred.fp_per_elem,
        read=es,
        write=es * pred.selectivity,
    )

    def run(partition):
        s, d = src.view(), dst.view()
        if partition is not None:
            written = 0
            for c in partition.chunks:
                seg = s[c.start : c.stop]
                kept = seg[pred(seg)]
                d[written : written + len(kept)] = kept
                written += len(kept)
            return written
        kept = s[pred(s)]
        d[: len(kept)] = kept
        return int(len(kept))

    return _map_move(ctx, alg, n, src, dst, per_elem, run)


def fill(ctx: ExecutionContext, arr: SimArray, value: float) -> AlgoResult:
    """Set every element to ``value``."""
    return fill_n(ctx, arr, arr.n, value)


def fill_n(ctx: ExecutionContext, arr: SimArray, n: int, value: float) -> AlgoResult:
    """Set the first ``n`` elements to ``value``."""
    if not 0 < n <= arr.n:
        raise ConfigurationError("invalid fill_n bounds")

    def run(partition):
        d = arr.view()
        if partition is not None:
            for c in partition.chunks:
                d[c.start : c.stop] = value
        else:
            d[:n] = value
        return None

    per_elem = PerElem(instr=0.5, write=arr.elem.size)
    return _map_move(ctx, "fill", n, None, arr, per_elem, run)


def generate(
    ctx: ExecutionContext,
    arr: SimArray,
    gen: Callable[[int, int], np.ndarray],
    instr_per_elem: float = 2.0,
) -> AlgoResult:
    """Fill ``arr`` with ``gen(start, stop)`` values per chunk."""
    return generate_n(ctx, arr, arr.n, gen, instr_per_elem)


def generate_n(
    ctx: ExecutionContext,
    arr: SimArray,
    n: int,
    gen: Callable[[int, int], np.ndarray],
    instr_per_elem: float = 2.0,
) -> AlgoResult:
    """Fill the first ``n`` elements from the generator."""
    if not 0 < n <= arr.n:
        raise ConfigurationError("invalid generate_n bounds")

    def run(partition):
        d = arr.view()
        if partition is not None:
            for c in partition.chunks:
                d[c.start : c.stop] = gen(c.start, c.stop)
        else:
            d[:n] = gen(0, n)
        return None

    per_elem = PerElem(instr=instr_per_elem, write=arr.elem.size)
    return _map_move(ctx, "generate", n, None, arr, per_elem, run)
