"""Partitioning algorithms: ``is_partitioned``, ``partition``,
``stable_partition``, ``partition_copy``, ``partition_point``.

Parallel (stable) partition is scan-structured: a counting pass
establishes each chunk's output offsets, then a scatter pass writes --
the same two-pass shape as ``inclusive_scan``, which is how it is costed.
``is_partitioned`` is an early-exit scan.
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
from repro.algorithms._ops import Predicate
from repro.algorithms._result import AlgoResult
from repro.algorithms.find import _scan_fractions
from repro.errors import ConfigurationError
from repro.execution.context import ExecutionContext
from repro.memory.array import SimArray

__all__ = [
    "is_partitioned",
    "partition",
    "stable_partition",
    "partition_copy",
    "partition_point",
]


def _two_pass_profile(
    ctx: ExecutionContext,
    arrays,
    n: int,
    es: int,
    pred: Predicate,
    label: str,
):
    """Count pass + scatter pass, scan-style."""
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
                PerElem(instr=pred.instr_per_elem + 0.5, fp=pred.fp_per_elem, read=es),
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
                f"{label}-scatter",
                part,
                PerElem(
                    instr=pred.instr_per_elem + 1.5,
                    fp=pred.fp_per_elem,
                    read=es,
                    write=es,
                ),
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
                PerElem(
                    instr=pred.instr_per_elem + 2.0,
                    fp=pred.fp_per_elem,
                    read=es,
                    write=es,
                ),
                placement,
                working_set,
            )
        ]
        regions = 1
    return phases, parallel, regions


def stable_partition(
    ctx: ExecutionContext, arr: SimArray, pred: Predicate
) -> AlgoResult:
    """Reorder so pred-true elements precede pred-false, order preserved.

    Value is the partition point (count of true elements).
    """
    n = arr.n
    es = arr.elem.size
    phases, parallel, regions = _two_pass_profile(
        ctx, [(arr, 1.0)], n, es, pred, "stable-partition"
    )
    value = None
    if arr.materialized:
        data = arr.view()
        mask = pred(data)
        true_part = data[mask]
        false_part = data[~mask]
        data[: len(true_part)] = true_part
        data[len(true_part) :] = false_part
        value = int(len(true_part))
    profile = make_profile(ctx, "inclusive_scan", n, arr.elem, phases, parallel, regions=regions)
    return AlgoResult(ctx, value, profile, (arr,))


def partition(ctx: ExecutionContext, arr: SimArray, pred: Predicate) -> AlgoResult:
    """Unstable partition; same cost family, same return convention.

    The run-mode implementation is the stable one (a valid unstable
    partition); the model charges the same two passes.
    """
    return stable_partition(ctx, arr, pred)


def partition_copy(
    ctx: ExecutionContext,
    src: SimArray,
    dst_true: SimArray,
    dst_false: SimArray,
    pred: Predicate,
) -> AlgoResult:
    """Split ``src`` into two outputs; value is (n_true, n_false)."""
    if dst_true.n < src.n or dst_false.n < src.n:
        raise ConfigurationError("partition_copy outputs may each need n slots")
    n = src.n
    es = src.elem.size
    arrays = [(src, 1.0), (dst_true, 0.5), (dst_false, 0.5)]
    phases, parallel, regions = _two_pass_profile(ctx, arrays, n, es, pred, "partition-copy")
    value = None
    if src.materialized and dst_true.materialized and dst_false.materialized:
        data = src.view()
        mask = pred(data)
        t, f = data[mask], data[~mask]
        dst_true.view()[: len(t)] = t
        dst_false.view()[: len(f)] = f
        value = (int(len(t)), int(len(f)))
    profile = make_profile(
        ctx, "inclusive_scan", n, src.elem, phases, parallel, regions=regions
    )
    return AlgoResult(ctx, value, profile, (src, dst_true, dst_false))


def is_partitioned(
    ctx: ExecutionContext, arr: SimArray, pred: Predicate
) -> AlgoResult:
    """Whether all pred-true elements precede all pred-false ones."""
    n = arr.n
    es = arr.elem.size
    placement = blend_placement([(arr, 1.0)])
    working_set = float(n * es)
    parallel = ctx.runs_parallel("find", n)

    violation: int | None = None
    value = None
    if arr.materialized:
        mask = pred(arr.view())
        falses = np.nonzero(~mask)[0]
        if len(falses):
            later_true = np.nonzero(mask[falses[0] :])[0]
            violation = int(falses[0] + later_true[0]) if len(later_true) else None
        value = violation is None

    per_elem = PerElem(instr=pred.instr_per_elem + 0.5, fp=pred.fp_per_elem, read=es)
    if parallel:
        part = ctx.backend.make_partition(n, ctx.threads)
        fractions = _scan_fractions(part, violation, n, exact=arr.materialized)
        phases = [
            parallel_phase(
                "partition-check",
                part,
                per_elem,
                placement,
                working_set,
                scan_fractions=fractions,
                sync_points=part.num_chunks,
            )
        ]
    else:
        scanned = float(n if violation is None else violation + 1)
        phases = [sequential_phase("partition-check", scanned, per_elem, placement, working_set)]
    profile = make_profile(ctx, "find", n, arr.elem, phases, parallel)
    return AlgoResult(ctx, value, profile, (arr,))


def partition_point(
    ctx: ExecutionContext, arr: SimArray, pred: Predicate
) -> AlgoResult:
    """First pred-false index of a partitioned range (binary search).

    O(log n) probes -- negligible work, never parallelised (as in the STL).
    """
    n = arr.n
    es = arr.elem.size
    probes = float(np.ceil(np.log2(max(2, n))))
    phases = [
        sequential_phase(
            "binary-search",
            probes,
            PerElem(instr=pred.instr_per_elem + 4.0, fp=pred.fp_per_elem, read=es),
            blend_placement([(arr, 1.0)]),
            working_set=float(n * es),
        )
    ]
    value = None
    if arr.materialized:
        mask = pred(arr.view())
        falses = np.nonzero(~mask)[0]
        value = int(falses[0]) if len(falses) else n
    profile = make_profile(ctx, "find", n, arr.elem, phases, parallel=False)
    return AlgoResult(ctx, value, profile, (arr,))
