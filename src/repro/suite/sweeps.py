"""Parameter sweeps: the paper's problem-size and thread grids (Section 4.2).

Problem sizes run 2^3..2^30 and thread counts 1, 2, 4, ..., #cores; these
helpers generate those grids and run a case across them, producing the
(x, y) series the figures plot. The context decides how a sweep is
costed: a CPU model-mode sweep is one fused wave
(``repro.suite.batch``), any other sweep costs each point through the
harness. Both give bit-identical seconds.
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
) -> SweepResult:
    """Time vs problem size at fixed thread count (Figs 2, 4a, 5a, 6a)."""
    from repro.suite.batch import batch_problem_scaling, batch_supported

    sizes = sizes if sizes is not None else problem_sizes()
    if batch_supported(ctx):
        rows = batch_problem_scaling(case, ctx, sizes, elem)
    else:
        rows = [_measured(case, ctx, n, n, elem) for n in sizes]
    return SweepResult(
        label=f"{case.name}<{ctx.backend.name}>@{ctx.threads}t",
        variable="size",
        points=tuple(SweepPoint(*row) for row in rows),
    )


def strong_scaling(
    case: BenchCase,
    ctx: ExecutionContext,
    n: int,
    threads: list[int] | None = None,
    elem: ElemType = FLOAT64,
) -> SweepResult:
    """Time vs thread count at fixed size (Figs 3, 4b, 5b, 6b, 7b)."""
    from repro.suite.batch import batch_strong_scaling, batch_supported

    if ctx.is_gpu:
        raise ConfigurationError("strong scaling sweeps are CPU experiments")
    threads = threads if threads is not None else thread_counts(ctx.machine.total_cores)
    if batch_supported(ctx):
        rows = batch_strong_scaling(case, ctx, n, threads, elem)
    else:
        rows = [_measured(case, ctx.with_(threads=t), n, t, elem)
                for t in threads]
    return SweepResult(
        label=f"{case.name}<{ctx.backend.name}>/n={n}",
        variable="threads",
        points=tuple(SweepPoint(*row) for row in rows),
    )


def _measured(case: BenchCase, ctx: ExecutionContext, n: int, x: int,
              elem: ElemType) -> tuple[int, float, bool]:
    """One point costed through the harness: ``(x, seconds, supported)``."""
    try:
        return x, measure_case(case, ctx, n, elem), True
    except UnsupportedOperationError:
        return x, float("nan"), False
