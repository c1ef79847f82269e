"""Subsequence searches: ``search``, ``search_n``, ``find_end``,
``find_first_of``.

All are find-family algorithms (early-exit scans with cancellation);
their per-element cost carries the extra inner-probe work of matching a
pattern rather than a single value.
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
from repro.algorithms.find import _scan_fractions
from repro.errors import ConfigurationError
from repro.execution.context import ExecutionContext
from repro.memory.array import SimArray

__all__ = ["search", "search_n", "find_end", "find_first_of"]


def _pattern_starts(hay: np.ndarray, needle: np.ndarray) -> np.ndarray:
    """Indices where ``needle`` occurs in ``hay`` (run-mode primitive)."""
    m = len(needle)
    if m == 0 or m > len(hay):
        return np.array([], dtype=int)
    candidates = np.nonzero(hay[: len(hay) - m + 1] == needle[0])[0]
    hits = [
        int(c) for c in candidates if np.array_equal(hay[c : c + m], needle)
    ]
    return np.array(hits, dtype=int)


def _scan_search(
    ctx: ExecutionContext,
    arr: SimArray,
    probe_instr: float,
    hit: int | None,
    exact: bool,
    label: str,
    tail_slack: int = 0,
) -> tuple:
    """Shared cost construction for the subsequence-search family."""
    n = arr.n
    es = arr.elem.size
    per_elem = PerElem(instr=probe_instr, read=es)
    placement = blend_placement([(arr, 1.0)])
    working_set = float(n * es)
    parallel = ctx.runs_parallel("find", n)
    if parallel:
        partition = ctx.backend.make_partition(n, ctx.threads)
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
        scanned = float(n if hit is None else min(n, hit + 1 + tail_slack))
        phases = [sequential_phase(label, scanned, per_elem, placement, working_set)]
    return make_profile(ctx, "find", n, arr.elem, phases, parallel)


def search(
    ctx: ExecutionContext, haystack: SimArray, needle: np.ndarray
) -> AlgoResult:
    """First start index of ``needle`` in ``haystack`` (or ``None``).

    Model mode assumes a needle that does not occur (the conservative full
    scan), matching a benchmark searching for a random pattern.
    """
    needle = np.asarray(needle, dtype=haystack.elem.dtype)
    if len(needle) == 0:
        raise ConfigurationError("needle must be non-empty")
    exact = haystack.materialized
    hit: int | None = None
    if exact:
        starts = _pattern_starts(haystack.view(), needle)
        hit = int(starts[0]) if len(starts) else None
    # Probe cost: one compare per element plus expected extra probes on
    # first-character matches (geometric tail, bounded by needle length).
    probe = 1.0 + min(2.0, 0.1 * len(needle))
    profile = _scan_search(
        ctx, haystack, probe, hit, exact, "search", tail_slack=len(needle)
    )
    return AlgoResult(ctx, hit, profile, (haystack,))


def find_end(
    ctx: ExecutionContext, haystack: SimArray, needle: np.ndarray
) -> AlgoResult:
    """*Last* start index of ``needle`` in ``haystack`` (or ``None``).

    Unlike ``search``, the scan cannot stop at the first hit -- the whole
    range is always examined (``hit=None`` for the cost model).
    """
    needle = np.asarray(needle, dtype=haystack.elem.dtype)
    if len(needle) == 0:
        raise ConfigurationError("needle must be non-empty")
    value: int | None = None
    if haystack.materialized:
        starts = _pattern_starts(haystack.view(), needle)
        value = int(starts[-1]) if len(starts) else None
    probe = 1.0 + min(2.0, 0.1 * len(needle))
    profile = _scan_search(
        ctx, haystack, probe, None, haystack.materialized, "find-end"
    )
    return AlgoResult(ctx, value, profile, (haystack,))


def find_first_of(
    ctx: ExecutionContext, haystack: SimArray, candidates: np.ndarray
) -> AlgoResult:
    """First index whose value is in ``candidates`` (or ``None``).

    Model mode assumes a hit density of ``len(candidates) / n`` over the
    increment input (each candidate value occurs once).
    """
    candidates = np.asarray(candidates, dtype=haystack.elem.dtype)
    if len(candidates) == 0:
        raise ConfigurationError("candidate set must be non-empty")
    exact = haystack.materialized
    if exact:
        mask = np.isin(haystack.view(), candidates)
        idx = np.nonzero(mask)[0]
        hit: int | None = int(idx[0]) if len(idx) else None
    else:
        hit = min(haystack.n - 1, max(1, haystack.n // (len(candidates) + 1)))
    probe = 1.0 + np.log2(max(2, len(candidates)))  # binary probe of the set
    profile = _scan_search(ctx, haystack, float(probe), hit, exact, "find-first-of")
    return AlgoResult(ctx, hit, profile, (haystack,))


def search_n(
    ctx: ExecutionContext, arr: SimArray, count: int, value: float
) -> AlgoResult:
    """First index of a run of ``count`` consecutive ``value``s (or ``None``)."""
    if count <= 0:
        raise ConfigurationError("count must be positive")
    exact = arr.materialized
    hit: int | None = None
    if exact and count <= arr.n:
        mask = arr.view() == value
        run = 0
        for i, m in enumerate(mask):
            run = run + 1 if m else 0
            if run == count:
                hit = i - count + 1
                break
    profile = _scan_search(
        ctx, arr, 1.25, hit, exact, "search-n", tail_slack=count
    )
    return AlgoResult(ctx, hit, profile, (arr,))
