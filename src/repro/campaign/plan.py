"""Campaign planner: spec -> deterministic DAG of point-tasks.

Expansion walks the spec's cross product in a fixed nested order
(machines, backends, cases, sizes, threads, modes, allocators), so the
same spec always yields the same task list with the same task ids --
the property resume and the append-only journal rely on.

Three things happen during expansion beyond the raw product:

* **capability pruning** -- cells the backend capability matrix marks
  unsupported (GNU has no parallel ``inclusive_scan``) and cells the
  spec excludes as unavailable (ICC on Mach B) become *pruned* tasks:
  they appear in the plan so grids render their N/A, but are never
  executed;
* **thread resolution** -- spec-level ``threads=None`` becomes the
  machine's core count, and counts wider than the machine are skipped,
  so one strong-scaling spec serves machines of different widths;
* **shared-baseline deduplication** -- every speedup cell needs the
  same ``GCC-SEQ`` denominator per (machine, case, n); the planner
  emits exactly one baseline task per distinct denominator and points
  each measure task at it via ``baseline_id``.

Each point is encoded to canonical JSON once: the task id is hashed
from that text, and the task carries it (``PointTask.canonical``) so
the executor derives the cache key from it too.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.backends import get_backend
from repro.backends.base import Support
from repro.campaign.spec import CampaignSpec, PointSpec
from repro.errors import CampaignError, UnknownBackendError, UnknownMachineError
from repro.machines import get_machine
from repro.suite.cases import get_case
from repro.trace import get_tracer

__all__ = ["PointTask", "CampaignPlan", "plan_campaign", "task_id_for"]

#: Task kinds: baselines carry no dependencies; measures depend on their
#: shared baseline for the speedup derivation.
BASELINE = "baseline"
MEASURE = "measure"


def task_id_for(point: PointSpec) -> str:
    """Stable short id of a point (prefix of its content hash)."""
    return _task_id(point.canonical())


def _task_id(canonical: str) -> str:
    """:func:`task_id_for` of the point whose canonical JSON is ``canonical``."""
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class PointTask:
    """One node of the campaign DAG.

    ``canonical`` is the point's canonical JSON, encoded once by the
    planner: the task id and, through
    :meth:`~repro.campaign.store.ResultStore.key_of`, the cache key are
    both hashed from it, so a warm run never encodes the point again. A
    task built without it derives it from ``point``. It takes no part in
    the task's repr, equality or hash.
    """

    task_id: str
    point: PointSpec
    kind: str
    baseline_id: str | None = None
    pruned: str | None = None
    canonical: str | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.canonical is None:
            object.__setattr__(self, "canonical", self.point.canonical())

    @property
    def depends_on(self) -> tuple[str, ...]:
        """Ids of tasks that must complete before this one's derivation."""
        return (self.baseline_id,) if self.baseline_id else ()


@dataclass(frozen=True)
class CampaignPlan:
    """The expanded, deduplicated task list of one campaign."""

    spec: CampaignSpec
    tasks: tuple[PointTask, ...]

    @property
    def by_id(self) -> Mapping[str, PointTask]:
        """task_id -> task lookup (computed on demand)."""
        return {t.task_id: t for t in self.tasks}

    @property
    def baselines(self) -> tuple[PointTask, ...]:
        """The deduplicated sequential-baseline tasks."""
        return tuple(t for t in self.tasks if t.kind == BASELINE)

    @property
    def measures(self) -> tuple[PointTask, ...]:
        """The grid's measured (non-baseline) tasks, pruned ones included."""
        return tuple(t for t in self.tasks if t.kind == MEASURE)

    @property
    def runnable(self) -> tuple[PointTask, ...]:
        """Tasks that will actually execute (everything not pruned)."""
        return tuple(t for t in self.tasks if t.pruned is None)

    @property
    def pruned(self) -> tuple[PointTask, ...]:
        """Tasks planned as N/A without execution."""
        return tuple(t for t in self.tasks if t.pruned is not None)

    def waves(self) -> Iterator[tuple[PointTask, ...]]:
        """Topological execution waves: baselines first, then measures."""
        first = tuple(t for t in self.runnable if t.kind == BASELINE)
        second = tuple(t for t in self.runnable if t.kind == MEASURE)
        if first:
            yield first
        if second:
            yield second


def _resolve_threads(backend, requested: int | None, cores: int) -> int | None:
    """Concrete thread count for one expansion, or None to skip it."""
    if backend.is_sequential:
        return 1
    if requested is None:
        return cores
    if requested > cores:
        return None
    return requested


def plan_campaign(spec: CampaignSpec) -> CampaignPlan:
    """Expand ``spec`` into its deterministic task DAG."""
    tracer = get_tracer()
    if not tracer.enabled:
        return _expand(spec)
    with tracer.span("campaign.plan", category="campaign", track="campaign",
                     campaign=spec.name) as span:
        plan = _expand(spec)
        span.set_attribute("tasks", len(plan.tasks))
        span.set_attribute("pruned", len(plan.pruned))
    return plan


def _expand(spec: CampaignSpec) -> CampaignPlan:
    """The planner body (no tracing concerns)."""
    try:
        cores = {m: get_machine(m).total_cores for m in spec.machines}
        backends = {b: get_backend(b) for b in set(spec.backends) | {spec.baseline_backend}}
        algs = {c: get_case(c).alg for c in spec.cases}
    except (UnknownMachineError, UnknownBackendError) as exc:
        raise CampaignError(f"cannot plan campaign {spec.name!r}: {exc}") from exc

    excluded = {(m, b) for m, b in spec.exclude}
    baseline = backends[spec.baseline_backend]
    if not baseline.is_sequential:
        raise CampaignError(
            f"baseline backend {spec.baseline_backend!r} is not sequential"
        )

    baselines: list[PointTask] = []
    measures: list[PointTask] = []
    seen: set[str] = set()  # task ids emitted so far
    # Every baseline point of a spec shares its backend, thread count,
    # allocator and min_time, so this cell names it: a baseline point is
    # built and encoded once per cell, not once per measure.
    baseline_ids: dict[tuple[str, str, int, str], str] = {}

    def add_baseline(machine: str, case: str, size_exp: int, mode: str) -> str:
        cell = (machine, case, size_exp, mode)
        tid = baseline_ids.get(cell)
        if tid is not None:
            return tid
        point = PointSpec(
            machine=machine, backend=spec.baseline_backend, case=case,
            size_exp=size_exp, threads=1, mode=mode, allocator=None,
            min_time=spec.min_time,
        )
        canon = point.canonical()
        tid = baseline_ids[cell] = _task_id(canon)
        if tid not in seen:
            seen.add(tid)
            baselines.append(PointTask(task_id=tid, point=point, kind=BASELINE,
                                       canonical=canon))
        return tid

    for machine in spec.machines:
        for backend_name in spec.backends:
            backend = backends[backend_name]
            for case in spec.cases:
                for size_exp in spec.size_exps:
                    for requested in spec.threads:
                        threads = _resolve_threads(backend, requested, cores[machine])
                        if threads is None:
                            continue
                        for mode in spec.modes:
                            for allocator in spec.allocators:
                                pruned = None
                                if (machine, backend_name) in excluded:
                                    pruned = f"{backend_name} unavailable on Mach {machine}"
                                elif backend.support(algs[case]) is Support.UNSUPPORTED:
                                    pruned = f"{backend_name} does not implement {algs[case]}"
                                point = PointSpec(
                                    machine=machine, backend=backend_name,
                                    case=case, size_exp=size_exp,
                                    threads=threads, mode=mode,
                                    allocator=allocator, min_time=spec.min_time,
                                )
                                canon = point.canonical()
                                tid = _task_id(canon)
                                if tid in seen:
                                    continue
                                bid = None
                                if pruned is None:
                                    bid = add_baseline(machine, case, size_exp, mode)
                                seen.add(tid)
                                measures.append(PointTask(
                                    task_id=tid, point=point, kind=MEASURE,
                                    baseline_id=bid, pruned=pruned,
                                    canonical=canon,
                                ))

    return CampaignPlan(spec=spec, tasks=tuple(baselines + measures))
