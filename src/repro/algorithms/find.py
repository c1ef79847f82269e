"""The search family: ``find`` and friends (paper Section 5.3).

Parallel structure: every thread scans its chunks concurrently and polls a
shared cancellation flag; when any thread finds a match the others stop.
With the target at global position ``h`` in a static partition, the owning
thread scans to its local offset and every other thread scans about the
same number of elements before observing the cancellation -- so the
parallel scan moves roughly the same total bytes as a sequential scan to
``h``, but spread across all memory controllers. That is why ``find``'s
speedup is capped by the STREAM bandwidth ratio (~6 on Mach B).

``find`` is also one of the two algorithms the custom allocator *hurts*
(Fig. 1, -24 %): the cancellation protocol is latency-sensitive and the
scanned prefix stops being dense on one node. This is encoded as the
phase's ``spread_penalty``.
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
from repro.errors import ConfigurationError
from repro.execution.context import ExecutionContext
from repro.execution.partition import Partition
from repro.memory.array import SimArray

__all__ = [
    "find",
    "find_if",
    "find_if_not",
    "any_of",
    "all_of",
    "none_of",
    "count",
    "count_if",
    "FIND_SPREAD_PENALTY",
    "COMPARE_INSTR",
]

#: Fig. 1 reports the custom allocator slowing find by ~24 % on Mach A;
#: the penalty is calibrated jointly with Table 5's find row (see
#: EXPERIMENTS.md on the tension between those two artifacts).
FIND_SPREAD_PENALTY = 1.45
#: Unrolled compare+branch cost per element of a value search.
COMPARE_INSTR = 1.0


def _thread_prefix(thread: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Each chunk's exclusive prefix of its own thread's earlier chunk sizes."""
    order = np.argsort(thread, kind="stable")
    ordered = sizes[order]
    before = np.cumsum(ordered) - ordered
    first = np.ones(len(order), dtype=bool)
    first[1:] = thread[order][1:] != thread[order][:-1]
    group = np.cumsum(first) - 1
    prefix = np.empty_like(before)
    prefix[order] = before - before[first][group]
    return prefix


def _scan_fractions(
    partition: Partition, hit: int | None, n: int, exact: bool = False
) -> np.ndarray:
    """Fraction of each chunk scanned given the first hit position.

    ``hit=None`` means no match: every chunk is fully scanned. Otherwise
    every thread walks its chunks in order until the cancellation flag
    stops it, which happens once the owning thread reaches the hit.

    With ``exact=True`` (run mode) the cancellation budget is the owning
    thread's exact scan distance: the lengths of its chunks preceding the
    owner plus the local offset. With ``exact=False`` (model mode) the
    budget is the *expectation* for a target uniform around ``hit``:
    averaging over candidate owning chunks of (owner-thread prefix + half
    that chunk). Both reduce to "everyone scans about as much data as the
    finder" (Section 5.3's bandwidth argument); for a static partition the
    expectation is chunk/2 = n/(2p) per thread.

    Each thread spends its budget on its chunks in order, so a chunk
    scans ``min(len, max(0, budget - prefix))`` elements, ``prefix``
    being the thread's earlier chunk lengths. Budget and prefixes are
    sums of integers and halves, so every subtraction is exact and this
    equals walking a ``remaining`` budget chunk by chunk; the expectation
    sums fold in chunk order as left folds (``np.cumsum``).
    """
    starts, sizes, thread = partition.starts, partition.sizes, partition.thread
    if hit is None:
        return np.ones(len(sizes))
    prefix = _thread_prefix(thread, sizes)

    if exact:
        owners = np.flatnonzero((starts <= hit) & (hit < starts + sizes))
        if not len(owners):  # hit beyond the partition: treat as full scan
            return np.ones(len(sizes))
        owner = owners[0]
        budget = float(hit - starts[owner] + 1 + prefix[owner])
    else:
        # Candidate owners: chunks intersecting [0, 2*hit + 1) -- the
        # support of a uniform target with mean ~hit -- weighted by their
        # coverage of that range.
        limit = min(n, 2 * hit + 1)
        covered = np.where((sizes > 0) & (starts < limit),
                           np.minimum(starts + sizes, limit) - starts,
                           0).astype(np.float64)
        weighted = float(np.cumsum(covered * (prefix + covered / 2.0))[-1])
        total_weight = float(np.cumsum(covered)[-1])
        budget = (weighted / total_weight + 1.0) if total_weight else float(n)

    lens = partition.elems
    take = np.minimum(lens, np.maximum(0.0, budget - prefix))
    nonzero = sizes > 0
    return np.where(nonzero, take / np.where(nonzero, lens, 1.0), 0.0)


def _search_impl(
    ctx: ExecutionContext,
    arr: SimArray,
    alg: str,
    per_elem: PerElem,
    hit_run,
    hit_model: int | None,
) -> tuple[AlgoResult, int | None]:
    """Common early-exit search skeleton.

    ``hit_run`` is a callable(data, lo, hi) -> local hit index or None,
    evaluated chunk-wise in run mode; ``hit_model`` is the expected global
    hit position for model mode (``None`` = full scan).
    """
    n = arr.n
    placement = blend_placement([(arr, 1.0)])
    working_set = float(n * arr.elem.size)
    parallel = ctx.runs_parallel(alg, n)

    # Determine the actual hit position.
    exact = arr.materialized
    if exact:
        data = arr.view()
        hit: int | None = None
        for lo in range(0, n, 1 << 20):
            hi = min(n, lo + (1 << 20))
            local = hit_run(data, lo, hi)
            if local is not None:
                hit = lo + local
                break
    else:
        hit = hit_model

    if parallel:
        partition = ctx.backend.make_partition(n, ctx.threads)
        fractions = _scan_fractions(partition, hit, n, exact=exact)
        phases = [
            parallel_phase(
                "scan",
                partition,
                per_elem,
                placement,
                working_set,
                scan_fractions=fractions,
                sync_points=partition.num_chunks,
                spread_penalty=FIND_SPREAD_PENALTY,
            )
        ]
    else:
        scanned = float(n if hit is None else hit + 1)
        phases = [
            sequential_phase("scan", scanned, per_elem, placement, working_set)
        ]

    profile = make_profile(ctx, alg, n, arr.elem, phases, parallel)
    result = AlgoResult(ctx, hit, profile, (arr,))
    return result, hit


def find(
    ctx: ExecutionContext,
    arr: SimArray,
    value: float,
    expected_position: int | None = None,
) -> AlgoResult:
    """First index of ``value`` in ``arr`` (or ``None`` if absent).

    ``expected_position`` feeds model mode; it defaults to ``n // 2``, the
    expectation for the paper's uniformly random target.
    """
    per_elem = PerElem(instr=COMPARE_INSTR, read=arr.elem.size)
    hit_model = expected_position if expected_position is not None else arr.n // 2
    if not 0 <= hit_model < arr.n:
        raise ConfigurationError("expected_position out of range")

    def hit_run(data, lo, hi):
        idx = np.nonzero(data[lo:hi] == value)[0]
        return int(idx[0]) if len(idx) else None

    result, _ = _search_impl(ctx, arr, "find", per_elem, hit_run, hit_model)
    return result


def find_if(ctx: ExecutionContext, arr: SimArray, pred: Predicate) -> AlgoResult:
    """First index satisfying ``pred``."""
    return _find_pred(ctx, arr, pred, negate=False, alg="find")


def find_if_not(ctx: ExecutionContext, arr: SimArray, pred: Predicate) -> AlgoResult:
    """First index *not* satisfying ``pred``."""
    return _find_pred(ctx, arr, pred, negate=True, alg="find")


def _expected_hit(n: int, selectivity: float) -> int | None:
    """Expected first-hit position for a predicate of given selectivity.

    Always either ``None`` (no expected match: empty input or selectivity
    zero) or a valid index in ``[0, n)``. The edges need care: ``n <= 0``
    must not produce ``min(n - 1, ...) = -1``; a selectivity small enough
    that ``1/s`` overflows to inf must clamp to the last index rather
    than raise; and a predicate matching everything hits index 0.
    """
    if n <= 0 or selectivity <= 0.0:
        return None
    if selectivity >= 1.0:
        return 0
    expected = 1.0 / selectivity
    if expected >= n:  # also covers inf from denormal selectivity
        return n - 1
    return min(n - 1, max(0, int(round(expected))))


def _find_pred(
    ctx: ExecutionContext, arr: SimArray, pred: Predicate, negate: bool, alg: str
) -> AlgoResult:
    per_elem = PerElem(
        instr=pred.instr_per_elem, fp=pred.fp_per_elem, read=arr.elem.size
    )
    sel = (1.0 - pred.selectivity) if negate else pred.selectivity
    hit_model = _expected_hit(arr.n, sel)

    def hit_run(data, lo, hi):
        mask = pred(data[lo:hi])
        if negate:
            mask = ~mask
        idx = np.nonzero(mask)[0]
        return int(idx[0]) if len(idx) else None

    result, _ = _search_impl(ctx, arr, alg, per_elem, hit_run, hit_model)
    return result


def any_of(ctx: ExecutionContext, arr: SimArray, pred: Predicate) -> AlgoResult:
    """Whether any element satisfies ``pred`` (early exit on first hit)."""
    inner = _find_pred(ctx, arr, pred, negate=False, alg="find")
    value = None if not arr.materialized else inner.value is not None
    return inner.with_value(value)


def none_of(ctx: ExecutionContext, arr: SimArray, pred: Predicate) -> AlgoResult:
    """Whether no element satisfies ``pred``."""
    inner = _find_pred(ctx, arr, pred, negate=False, alg="find")
    value = None if not arr.materialized else inner.value is None
    return inner.with_value(value)


def all_of(ctx: ExecutionContext, arr: SimArray, pred: Predicate) -> AlgoResult:
    """Whether all elements satisfy ``pred`` (early exit on a violation)."""
    inner = _find_pred(ctx, arr, pred, negate=True, alg="find")
    value = None if not arr.materialized else inner.value is None
    return inner.with_value(value)


def _count_impl(
    ctx: ExecutionContext, arr: SimArray, per_elem: PerElem, counter
) -> AlgoResult:
    """Full-pass counting skeleton (no early exit)."""
    alg = "count"
    n = arr.n
    placement = blend_placement([(arr, 1.0)])
    working_set = float(n * arr.elem.size)
    parallel = ctx.runs_parallel(alg, n)

    if parallel:
        partition = ctx.backend.make_partition(n, ctx.threads)
        phases = [
            parallel_phase("count", partition, per_elem, placement, working_set)
        ]
    else:
        phases = [sequential_phase("count", float(n), per_elem, placement, working_set)]

    value = None
    if arr.materialized:
        data = arr.view()
        if parallel:
            value = int(
                sum(counter(data[c.start : c.stop]) for c in partition.chunks)
            )
        else:
            value = int(counter(data))

    profile = make_profile(ctx, alg, n, arr.elem, phases, parallel)
    return AlgoResult(ctx, value, profile, (arr,))


def count(ctx: ExecutionContext, arr: SimArray, value: float) -> AlgoResult:
    """Number of elements equal to ``value``."""
    per_elem = PerElem(instr=COMPARE_INSTR + 0.25, read=arr.elem.size)
    return _count_impl(ctx, arr, per_elem, lambda v: np.count_nonzero(v == value))


def count_if(ctx: ExecutionContext, arr: SimArray, pred: Predicate) -> AlgoResult:
    """Number of elements satisfying ``pred``."""
    per_elem = PerElem(
        instr=pred.instr_per_elem + 0.25, fp=pred.fp_per_elem, read=arr.elem.size
    )
    return _count_impl(ctx, arr, per_elem, lambda v: np.count_nonzero(pred(v)))
