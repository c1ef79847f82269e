"""Parameter sweeps: the paper's problem-size and thread grids (Section 4.2).

Problem sizes run 2^3..2^30 and thread counts 1, 2, 4, ..., #cores; these
helpers generate those grids and run a case across them, producing the
(x, y) series the figures plot.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, UnsupportedOperationError
from repro.execution.context import ExecutionContext
from repro.suite.cases import BenchCase
from repro.suite.wrappers import measure_case
from repro.types import ElemType, FLOAT64

__all__ = [
    "SweepPoint",
    "SweepResult",
    "problem_sizes",
    "thread_counts",
    "problem_scaling",
    "strong_scaling",
]

#: The paper's sweep bounds (Section 4.2).
MIN_SIZE_EXP = 3
MAX_SIZE_EXP = 30


def problem_sizes(
    min_exp: int = MIN_SIZE_EXP, max_exp: int = MAX_SIZE_EXP, step: int = 1
) -> list[int]:
    """Power-of-two sizes 2^min_exp .. 2^max_exp."""
    if not 0 <= min_exp <= max_exp:
        raise ConfigurationError("need 0 <= min_exp <= max_exp")
    if step < 1:
        raise ConfigurationError("step must be >= 1")
    return [1 << e for e in range(min_exp, max_exp + 1, step)]


def thread_counts(max_threads: int) -> list[int]:
    """1, 2, 4, ..., max_threads (always including the max)."""
    if max_threads < 1:
        raise ConfigurationError("max_threads must be >= 1")
    counts = []
    t = 1
    while t < max_threads:
        counts.append(t)
        t *= 2
    counts.append(max_threads)
    return counts


@dataclass(frozen=True)
class SweepPoint:
    """One measured point of a sweep."""

    x: int
    seconds: float
    supported: bool = True


@dataclass(frozen=True)
class SweepResult:
    """A labelled series of sweep points."""

    label: str
    variable: str  # "size" or "threads"
    points: tuple[SweepPoint, ...]

    def xs(self) -> list[int]:
        """Supported x values."""
        return [p.x for p in self.points if p.supported]

    def ys(self) -> list[float]:
        """Times at the supported x values."""
        return [p.seconds for p in self.points if p.supported]


def problem_scaling(
    case: BenchCase,
    ctx: ExecutionContext,
    sizes: list[int] | None = None,
    elem: ElemType = FLOAT64,
    batch: bool | None = None,
) -> SweepResult:
    """Time vs problem size at fixed thread count (Figs 2, 4a, 5a, 6a).

    ``batch`` selects the evaluation path: ``None`` (auto) uses the
    vectorized ``repro.sim.wave`` path when the case supports it and
    tracing is off, ``True`` requests it explicitly, ``False`` forces the
    scalar per-point path (the ``--no-batch`` debugging escape hatch).
    Both paths produce bit-identical seconds.
    """
    from repro.suite.batch import batch_problem_scaling, use_batch_path

    sizes = sizes if sizes is not None else problem_sizes()
    points = []
    if use_batch_path(batch, case.name, ctx):
        points = [
            SweepPoint(x=x, seconds=seconds, supported=supported)
            for x, seconds, supported in batch_problem_scaling(
                case.name, ctx, sizes, elem
            )
        ]
    else:
        for n in sizes:
            try:
                points.append(
                    SweepPoint(x=n, seconds=measure_case(case, ctx, n, elem))
                )
            except UnsupportedOperationError:
                points.append(SweepPoint(x=n, seconds=float("nan"), supported=False))
    return SweepResult(
        label=f"{case.name}<{ctx.backend.name}>@{ctx.threads}t",
        variable="size",
        points=tuple(points),
    )


def strong_scaling(
    case: BenchCase,
    ctx: ExecutionContext,
    n: int,
    threads: list[int] | None = None,
    elem: ElemType = FLOAT64,
    batch: bool | None = None,
) -> SweepResult:
    """Time vs thread count at fixed size (Figs 3, 4b, 5b, 6b, 7b).

    ``batch`` selects the scalar/vectorized evaluation path exactly as in
    :func:`problem_scaling`.
    """
    from repro.suite.batch import batch_strong_scaling, use_batch_path

    if ctx.is_gpu:
        raise ConfigurationError("strong scaling sweeps are CPU experiments")
    threads = threads if threads is not None else thread_counts(ctx.machine.total_cores)
    points = []
    if use_batch_path(batch, case.name, ctx):
        points = [
            SweepPoint(x=x, seconds=seconds, supported=supported)
            for x, seconds, supported in batch_strong_scaling(
                case.name, ctx, n, threads, elem
            )
        ]
    else:
        for t in threads:
            sub = ctx.with_(threads=t)
            try:
                points.append(SweepPoint(x=t, seconds=measure_case(case, sub, n, elem)))
            except UnsupportedOperationError:
                points.append(SweepPoint(x=t, seconds=float("nan"), supported=False))
    return SweepResult(
        label=f"{case.name}<{ctx.backend.name}>/n={n}",
        variable="threads",
        points=tuple(points),
    )
