"""Wave evaluation of benchmark points and curves.

Every case builds its work once, as an
:class:`~repro.sim.wave.ArrayProfile` (``repro.algorithms._build``), and
:meth:`~repro.suite.cases.BenchCase.profile` returns that profile
uncosted. This module costs those profiles on the wave engine
(``repro.sim.wave``) without the benchmark harness: a point as a
one-entry wave (:func:`simulate_case_batch`), a size or thread sweep
as one fused wave (:func:`batch_problem_scaling`,
:func:`batch_strong_scaling`), so a traced curve shows up as one
``wave.fuse`` and one clocked ``wave.execute`` span holding each
point's phase and lane spans.

It serves every case of a CPU context in ``model`` mode (see
:func:`batch_supported`), and the sweeps and scenarios use it exactly
there: run mode must execute real kernels, and the GPU engine costs
each call eagerly because unified-memory residency depends on call
order. Those contexts cost each point through the harness
(``repro.suite.wrappers.measure_case``), whose ``ctx.simulate`` runs
the same wave engine.
"""

from __future__ import annotations

from repro.errors import ConfigurationError, UnsupportedOperationError
from repro.execution.context import ExecutionContext
from repro.sim import wave as _wave
from repro.sim.report import SimReport
from repro.sim.wave import WaveEntry, simulate_cpu_arrays
from repro.suite.cases import BenchCase
from repro.types import ElemType, FLOAT64

__all__ = [
    "BATCH_CASES",
    "batch_supported",
    "simulate_case_batch",
    "measure_case_batch",
    "batch_problem_scaling",
    "batch_strong_scaling",
]

#: The paper's headline cases (Section 3.1) plus ``stable_sort``: the
#: case set of the pipeline benchmark's service workload. The wave path
#: itself serves every case.
BATCH_CASES = (
    "find",
    "for_each_k1",
    "for_each_k1000",
    "inclusive_scan",
    "reduce",
    "sort",
    "stable_sort",
)


def batch_supported(ctx: ExecutionContext) -> bool:
    """Whether the wave path can evaluate points under ``ctx``."""
    return not ctx.is_gpu and ctx.mode == "model"


def _profile(case: BenchCase, ctx: ExecutionContext, n: int, elem: ElemType):
    """``case``'s profile at one point; raises outside the wave path."""
    if not batch_supported(ctx):
        raise ConfigurationError(
            f"case {case.name!r} has no wave path under this context"
        )
    return case.profile(ctx, n, elem)


def simulate_case_batch(
    case: BenchCase, ctx: ExecutionContext, n: int, elem: ElemType = FLOAT64
) -> SimReport:
    """Full :class:`SimReport` for one point, costed as a one-entry wave.

    Raises :class:`~repro.errors.ConfigurationError` for contexts the
    wave path cannot serve, and
    :class:`~repro.errors.UnsupportedOperationError` exactly where the
    harness would (e.g. GNU ``inclusive_scan``).
    """
    profile = _profile(case, ctx, n, elem)
    return simulate_cpu_arrays(ctx.machine, ctx.backend, profile)


def measure_case_batch(
    case: BenchCase, ctx: ExecutionContext, n: int, elem: ElemType = FLOAT64
) -> float:
    """Seconds for one point; bit-identical to ``measure_case``."""
    return simulate_case_batch(case, ctx, n, elem).seconds


def _wave_curve(
    case: BenchCase,
    points: list[tuple[int, ExecutionContext, int]],
    elem: ElemType,
) -> list[tuple[int, float, bool]]:
    """Cost a curve's ``(x, ctx, n)`` points as one fused wave.

    A build's ``UnsupportedOperationError`` marks only that point
    unsupported; every other point joins the wave.
    """
    entries: list[WaveEntry] = []
    supported: list[bool] = []
    for _x, ctx, n in points:
        try:
            profile = _profile(case, ctx, n, elem)
        except UnsupportedOperationError:
            supported.append(False)
            continue
        entries.append(WaveEntry(ctx.machine, ctx.backend, profile))
        supported.append(True)
    # Looked up on the module, so wrappers installed there see curves too.
    seconds = iter(_wave.simulate_wave(_wave.fuse_wave(entries)).seconds)
    return [
        (x, next(seconds), True) if ok else (x, float("nan"), False)
        for (x, _ctx, _n), ok in zip(points, supported)
    ]


def batch_problem_scaling(
    case: BenchCase,
    ctx: ExecutionContext,
    sizes: list[int],
    elem: ElemType = FLOAT64,
) -> list[tuple[int, float, bool]]:
    """Evaluate a whole size sweep as one wave: (n, seconds, supported) rows."""
    return _wave_curve(case, [(n, ctx, n) for n in sizes], elem)


def batch_strong_scaling(
    case: BenchCase,
    ctx: ExecutionContext,
    n: int,
    threads: list[int],
    elem: ElemType = FLOAT64,
) -> list[tuple[int, float, bool]]:
    """Evaluate a whole thread sweep as one wave: (t, seconds, supported) rows."""
    return _wave_curve(
        case, [(t, ctx.with_(threads=t), n) for t in threads], elem
    )
