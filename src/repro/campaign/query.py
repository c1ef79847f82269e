"""Query layer: stored campaign results back into experiment shapes.

A campaign outcome is a flat bag of point results; the paper's artifacts
are grids and curves derived from it. This module does those
derivations -- speedup grids (Table 5), efficiency-threshold grids
(Table 6), filtered row listings for the CLI -- and converts points into
the existing :class:`~repro.bench.state.BenchResult` shape so the
console/CSV/JSON reporters work on campaign output unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.speedup import ScalingCurve, max_threads_above_efficiency
from repro.bench.state import BenchResult
from repro.campaign.executor import CampaignOutcome
from repro.campaign.plan import MEASURE, PointTask
from repro.campaign.store import DONE, PointResult, ResultStore

__all__ = [
    "grid_key",
    "speedup_grid",
    "efficiency_grid",
    "filter_results",
    "bench_rows",
    "store_query",
    "CellCurve",
]


def grid_key(task: PointTask) -> str:
    """The tables' grid-cell key: ``backend/case/machine``."""
    p = task.point
    return f"{p.backend}/{p.case}/{p.machine}"


def _baseline_seconds(outcome: CampaignOutcome, task: PointTask) -> float | None:
    """The shared sequential denominator of a measure task."""
    if task.baseline_id is None:
        return None
    return outcome.seconds(task.baseline_id)


def speedup_grid(outcome: CampaignOutcome) -> dict[str, float | None]:
    """Speedup vs the shared baseline per cell; ``None`` renders as N/A.

    Expects one measure point per cell (the Table 5 shape: a single
    (size, threads) configuration); with several, the last planned one
    wins.
    """
    grid: dict[str, float | None] = {}
    for task in outcome.plan.measures:
        seconds = outcome.seconds(task.task_id)
        base = _baseline_seconds(outcome, task)
        value = None
        if seconds is not None and base is not None and seconds > 0:
            value = base / seconds
        grid[grid_key(task)] = value
    return grid


@dataclass(frozen=True)
class CellCurve:
    """One cell's strong-scaling series, assembled from stored points."""

    key: str
    threads: tuple[int, ...]
    seconds: tuple[float, ...]
    baseline_seconds: float | None

    def scaling_curve(self) -> ScalingCurve:
        """As the analysis layer's :class:`ScalingCurve`."""
        assert self.baseline_seconds is not None
        return ScalingCurve(
            label=self.key,
            threads=self.threads,
            seconds=self.seconds,
            baseline_seconds=self.baseline_seconds,
        )


def cell_curves(outcome: CampaignOutcome) -> dict[str, CellCurve]:
    """Group a thread-sweep campaign's points into per-cell curves."""
    series: dict[str, dict[int, float]] = {}
    baselines: dict[str, float | None] = {}
    for task in outcome.plan.measures:
        key = grid_key(task)
        series.setdefault(key, {})
        if key not in baselines:
            baselines[key] = _baseline_seconds(outcome, task)
        seconds = outcome.seconds(task.task_id)
        if seconds is not None:
            series[key][task.point.threads] = seconds
    out: dict[str, CellCurve] = {}
    for key, points in series.items():
        threads = tuple(sorted(points))
        out[key] = CellCurve(
            key=key,
            threads=threads,
            seconds=tuple(points[t] for t in threads),
            baseline_seconds=baselines.get(key),
        )
    return out


def efficiency_grid(
    outcome: CampaignOutcome, threshold: float = 0.70
) -> dict[str, int | None]:
    """Max thread count per cell with parallel efficiency >= threshold.

    The Table 6 derivation: each cell's thread sweep becomes a
    :class:`ScalingCurve` against the shared sequential baseline;
    cells with no supported points (or no baseline) are ``None``.
    """
    grid: dict[str, int | None] = {}
    for key, curve in cell_curves(outcome).items():
        if not curve.threads or curve.baseline_seconds is None:
            grid[key] = None
            continue
        grid[key] = max_threads_above_efficiency(curve.scaling_curve(), threshold)
    return grid


def filter_results(
    outcome: CampaignOutcome,
    machine: str | None = None,
    backend: str | None = None,
    case: str | None = None,
    status: str | None = None,
    kind: str | None = MEASURE,
) -> list[tuple[PointTask, PointResult]]:
    """Stored (task, result) pairs matching the given filters.

    Filters compare case-insensitively; ``kind=None`` includes the
    shared baselines alongside the measures.
    """
    def match(value: str, wanted: str | None) -> bool:
        return wanted is None or value.lower() == wanted.lower()

    out = []
    for task in outcome.plan.tasks:
        result = outcome.results.get(task.task_id)
        if result is None:
            continue
        if kind is not None and task.kind != kind:
            continue
        p = task.point
        if not (match(p.machine, machine) and match(p.backend, backend)
                and match(p.case, case)):
            continue
        if status is not None and result.status != status:
            continue
        out.append((task, result))
    return out


def store_query(
    store: ResultStore,
    machine: str | None = None,
    backend: str | None = None,
    case: str | None = None,
    status: str | None = None,
) -> list[dict]:
    """Filter a store's result table without verifying or serving records.

    The campaign-level :func:`filter_results` replays the plan and loads
    each point's record -- O(campaign). This query reads the whole
    table instead (:meth:`ResultStore.rows`), which is the shape the
    service's dashboards need. Each hit is a dict with ``key``,
    ``point``, ``status``, ``seconds`` and ``wall_ms``; rows come back
    in key order for determinism. Raises :class:`CampaignError` on an
    in-memory store.
    """

    def match(value, wanted: str | None) -> bool:
        return wanted is None or (
            isinstance(value, str) and value.lower() == wanted.lower())

    out: list[dict] = []
    for key, point, result, wall_ms in store.rows():
        if not (match(point.get("machine"), machine)
                and match(point.get("backend"), backend)
                and match(point.get("case"), case)
                and match(result.get("status"), status)):
            continue
        out.append({
            "key": key,
            "point": point,
            "status": result.get("status"),
            "seconds": result.get("seconds"),
            "wall_ms": wall_ms,
        })
    return out


def bench_rows(pairs: list[tuple[PointTask, PointResult]]) -> list[BenchResult]:
    """Done points as reporter-ready :class:`BenchResult` rows.

    Rows carry the run_case-style label ``case<BACKEND>/n@Mach/threads``
    and the point's simulated seconds; N/A and failed points have no
    measured value and are omitted (list them via
    :func:`filter_results` with a status filter instead).
    """
    rows = []
    for task, result in pairs:
        if result.status != DONE or result.seconds is None:
            continue
        p = task.point
        rows.append(BenchResult(
            name=f"{p.case}<{p.backend}>/{p.n}@Mach{p.machine}/{p.threads}t",
            iterations=1,
            total_time=result.seconds,
            mean_time=result.seconds,
        ))
    return rows
