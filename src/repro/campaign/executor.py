"""Campaign executor: run planned points inline or on a process pool, cached.

The simulator is deterministic and CPU-bound, so unlike most Python
workloads a :class:`~concurrent.futures.ProcessPoolExecutor` buys real
wall-clock speedup: each worker process costs points independently and
ships back a tiny ``{status, seconds, error}`` dict. The executor walks
the plan's topological waves (shared baselines first, then measures),
and for every task:

1. serves it from the content-addressed store when the (point, model
   fingerprint) key is present -- a *cache hit* span, zero simulator
   invocations. Each task's key is hashed from the canonical JSON the
   planner encoded once (``PointTask.canonical``), and a wave's hits are
   read with one verified batch read
   (:meth:`~repro.campaign.store.ResultStore.results_for`), a few
   queries per wave;
2. otherwise executes it with a per-task timeout and bounded retry -- a
   *cache miss* span whose duration is the point's simulated seconds;
3. journals the terminal outcome, making an interrupted campaign
   resumable: ``resume=True`` re-plans deterministically and skips every
   task the journal already holds. Both writes are group-committed when
   the wave ends: its cache objects as one transaction
   (:meth:`~repro.campaign.store.ResultStore.put_many`), then its
   journal rows as one fsynced append, so every journaled result is
   already stored and a crash inside a wave loses just that wave, which
   a resume recomputes.

Every task that executes goes through one loop, :func:`_run_wave`, and
*where* it runs is that loop's parameter: ``workers <= 1`` hands it an
inline runner whose futures settle on submission (the wave is one
shard), ``workers >= 2`` a process pool (one balanced shard per
worker). Tasks a ``dispatch=`` hook's remote executors did not land run
through the same loop, so every local execution claims the same faults
and retries the same way. Each shard is one :func:`execute_wave`
submission: every CPU model-mode point, whatever its case, is fused
into ``repro.sim.wave`` programs in sub-waves of bounded size. Its
execution contexts and array profiles are memoised per process
(:func:`_cached_context`, :func:`_cached_profile`), and the engine
memoises chunk->thread layouts and NUMA node maps per process for
every path, so each is built once per process, not once per point or
per wave.
The points a fused wave cannot serve (GPU, run mode, ``min_time >
0``), a failed sub-wave and every retry run one at a time through
:func:`execute_point` -- the per-point path, which costs a CPU profile
as a one-entry wave on the same engine, so both give bit-identical
seconds.

Failures degrade gracefully: a point that raises (or times out) after
its retries is recorded as ``failed`` with its error string and the
campaign carries on -- one bad cell never aborts a 90-cell grid.
Retries space themselves out under a configurable
:class:`BackoffPolicy` (exponential, seeded jitter), a broken process
pool (a worker SIGKILLed mid-wave) is rebuilt and its in-flight tasks
re-queued (``pool.rebuild`` trace spans, bounded by
:data:`MAX_POOL_REBUILDS`), and the whole pipeline can be driven under
a deterministic :class:`~repro.faults.FaultPlan` via
``run_campaign(faults=...)`` -- see docs/ROBUSTNESS.md for the fault
model and the invariants the chaos suite enforces.
"""

from __future__ import annotations

import hashlib
import os
import time
from functools import lru_cache
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.backends import get_backend
from repro.campaign.plan import CampaignPlan, PointTask, plan_campaign
from repro.campaign.spec import CampaignSpec, PointSpec
from repro.campaign.store import (
    DONE,
    FAILED,
    NA,
    Journal,
    PointResult,
    ResultStore,
    read_spec,
    write_spec,
)
from repro.errors import CampaignError, UnsupportedOperationError
from repro.execution.context import ExecutionContext
from repro.faults import (
    FaultInjector,
    FaultPlan,
    faulty_point,
    faulty_wave,
)
from repro.machines import get_machine
from repro.memory.allocators import ALLOCATOR_FACTORIES
from repro.sim.wave import WAVE_CHUNK_BUDGET, WeightedLRU
from repro.suite.cases import get_case
from repro.suite.wrappers import run_case
from repro.trace import get_tracer

__all__ = [
    "BackoffPolicy",
    "CampaignOutcome",
    "CampaignStats",
    "run_campaign",
    "load_campaign",
    "execute_point",
    "execute_wave",
    "point_context",
    "MAX_POOL_REBUILDS",
]

#: How many times one wave may rebuild a broken process pool before its
#: remaining tasks are failed outright. A pool that keeps breaking is a
#: systematically crashing workload (or a hostile fault schedule), not a
#: transient; the bound keeps the executor from thrashing forever.
MAX_POOL_REBUILDS = 8

#: Points one fused sub-wave holds at most. The chunk budget does not
#: bound a wave's per-point transients (entries, resolved phase slots,
#: reports), and a campaign wave of small profiles is all points: on
#: grid-cold's 3,840-point measure wave (69k chunk entries), sub-waves of
#: 512 points cost the same wall time as one and peak at 1.7 MiB of
#: traced allocations instead of 5.2 MiB.
WAVE_POINT_BUDGET = 512


@dataclass(frozen=True)
class BackoffPolicy:
    """Retry spacing: exponential backoff with deterministic seeded jitter.

    Attempt ``k`` (1-based count of failures so far) sleeps
    ``min(max_delay, base * factor**(k-1))``, scaled by a jitter factor
    in ``[1-jitter, 1+jitter]`` drawn as a pure hash of
    ``(seed, task_id, k)`` -- the same task retries with the same
    spacing on every run, so chaos tests stay reproducible while
    distinct tasks still de-correlate. The default ``base=0`` sleeps
    nothing, preserving the fast-path behavior for tests and grids
    whose failures are not time-correlated.
    """

    base: float = 0.0
    factor: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base < 0:
            raise CampaignError("backoff base must be non-negative")
        if self.factor < 1:
            raise CampaignError("backoff factor must be >= 1")
        if self.max_delay < 0:
            raise CampaignError("backoff max_delay must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise CampaignError("backoff jitter must be in [0, 1]")

    def delay(self, task_id: str, attempt: int) -> float:
        """Seconds to wait before re-running ``task_id``'s next attempt."""
        if self.base <= 0 or attempt < 1:
            return 0.0
        raw = min(self.max_delay, self.base * self.factor ** (attempt - 1))
        if self.jitter:
            digest = hashlib.sha256(
                f"{self.seed}|{task_id}|{attempt}".encode()
            ).digest()
            unit = int.from_bytes(digest[:8], "big") / float(1 << 64)
            raw *= 1.0 + self.jitter * (2.0 * unit - 1.0)
        return raw

    def sleep(self, task_id: str, attempt: int) -> float:
        """Sleep :meth:`delay` seconds (if any); returns the delay slept."""
        d = self.delay(task_id, attempt)
        if d > 0:
            time.sleep(d)
        return d


#: The do-nothing default policy (zero delays).
_NO_BACKOFF = BackoffPolicy()


def point_context(point: PointSpec) -> ExecutionContext:
    """Build the execution context one point describes."""
    machine = get_machine(point.machine)
    backend = get_backend(point.backend)
    threads = 1 if backend.is_sequential else point.threads
    allocator = None
    if point.allocator is not None:
        allocator = ALLOCATOR_FACTORIES[point.allocator]()
    return ExecutionContext(
        machine, backend, threads=threads, allocator=allocator, mode=point.mode
    )


def execute_point(payload: dict) -> dict:
    """Cost one point; the process-pool worker entry (module-level, picklable).

    Returns the ``{status, seconds, error}`` payload plus ``wall_ms``,
    the real wall-clock the evaluation took (journaled, never cached).
    Capability gaps surface as ``na`` (the paper's N/A cells); any other
    failure -- model bug, bad spec value -- becomes ``failed`` with the
    error text, never an exception that would poison the pool.
    """
    t0 = time.perf_counter()
    try:
        point = PointSpec.from_dict(payload)
        ctx = point_context(point)
        result = run_case(
            get_case(point.case), ctx, point.n, min_time=point.min_time
        )
        out = {"status": DONE, "seconds": result.mean_time, "error": None}
    except UnsupportedOperationError as exc:
        out = {"status": NA, "seconds": None, "error": str(exc)}
    except Exception as exc:  # noqa: BLE001 - worker boundary, degrade gracefully
        out = {"status": FAILED, "seconds": None,
               "error": f"{type(exc).__name__}: {exc}"}
    out["wall_ms"] = (time.perf_counter() - t0) * 1000.0
    return out


@lru_cache(maxsize=4096)
def _cached_context(machine, backend, threads: int,
                    allocator: str | None, mode: str) -> ExecutionContext:
    """Memoized :func:`point_context` by value (wave path only).

    A campaign wave holds many points per (machine, backend, threads,
    allocator, mode) cell, and rebuilding the context for every point is
    a real share of warm grid time. Contexts are frozen and allocators
    are stateless policy objects, so sharing one instance across points
    is safe. Only the fused path uses this cache: the per-point path
    builds each point's context from scratch.

    Keyed by the *resolved* machine and backend objects (frozen, value-
    hashable dataclasses), never by registry name: if the model under a
    name changes -- a perturbation test, a custom registration -- the
    key changes with it, so a stale context can never be served.
    """
    alloc = ALLOCATOR_FACTORIES[allocator]() if allocator is not None else None
    return ExecutionContext(
        machine, backend, threads=1 if backend.is_sequential else threads,
        allocator=alloc, mode=mode,
    )


#: What a memoised profile holds besides its chunk arrays (16 B per
#: entry), in entries: about 600 B of key, profile and phase objects
#: (tracemalloc, CPython 3.11). It keeps a memo of tiny profiles inside
#: its byte budget, and still fits the largest seeded benchmark grid
#: (4,038 profiles, 98,868 chunk entries) whole.
PROFILE_ENTRY_UNITS = 40

#: Array profiles by cell key; weighed in chunk entries.
_PROFILES = WeightedLRU(
    WAVE_CHUNK_BUDGET,
    lambda profile: profile.chunk_entries + PROFILE_ENTRY_UNITS)


def _cached_profile(machine, backend, threads: int,
                    allocator: str | None, mode: str, case: str, n: int):
    """Memoized :meth:`~repro.suite.cases.BenchCase.profile` (wave path).

    The other shared baseline: an :class:`ArrayProfile` is a frozen,
    deterministic function of the cell key and is only ever read by the
    engines, so fused waves can share one instance per cell -- across
    waves and across campaign re-runs -- instead of rebuilding the chunk
    grid per point. Its arrays scale with chunk count, which for a
    fixed-grain backend grows with problem size, so the memo is an LRU
    capped at :data:`WAVE_CHUNK_BUDGET` chunk entries rather than a
    count of profiles: small profiles that grids repeat stay memoised,
    and a few 2^30 GCC-HPX profiles cannot pin hundreds of MiB. Like
    :func:`_cached_context` (and keyed the same way, by resolved model
    objects), this is deliberately wave-only.
    """
    key = (machine, backend, threads, allocator, mode, case, n)
    profile = _PROFILES.get(key)
    if profile is None:
        ctx = _cached_context(machine, backend, threads, allocator, mode)
        profile = _PROFILES.put(key, get_case(case).profile(ctx, n))
    return profile


def _run_sub_wave(sub_wave: list, payloads: list[dict],
                  out: list[dict | None]) -> None:
    """Fuse and evaluate one sub-wave, filling ``out`` for its points.

    ``sub_wave`` holds ``(index, entry, parse_ms)`` triples. Any failure
    of the fused stage degrades every point of the sub-wave to the
    per-point :func:`execute_point`.
    """
    # Looked up at call time, so a patched fuse_wave/simulate_wave is seen.
    from repro.sim.wave import fuse_wave, simulate_wave

    try:
        t_fuse = time.perf_counter()
        reports = simulate_wave(fuse_wave([entry for _, entry, _ in sub_wave]))
        shared = (time.perf_counter() - t_fuse) * 1000.0 / len(sub_wave)
        for (i, _entry, parse_ms), report in zip(sub_wave, reports):
            out[i] = {"status": DONE, "seconds": report.seconds,
                      "error": None, "wall_ms": parse_ms + shared}
    except Exception:  # noqa: BLE001 - degrade to the per-point path
        for i, _entry, _parse_ms in sub_wave:
            out[i] = execute_point(payloads[i])


def execute_wave(payloads: list[dict]) -> list[dict]:
    """Cost a whole campaign wave as fused array programs, in bounded memory.

    The wave counterpart of :func:`execute_point` and, like it, a
    module-level picklable pool-worker entry: one submission covers an
    arbitrary mix of points -- different machines, backends and cases
    fused into ``repro.sim.wave`` programs that share per-process
    baselines (contexts, profiles, and the engine's chunk->thread
    layouts and NUMA node maps).
    Eligible points are fused in sub-waves of at most
    :data:`WAVE_CHUNK_BUDGET` chunk entries (a single larger profile is
    a sub-wave of its own) and :data:`WAVE_POINT_BUDGET` points, each
    one ``wave.fuse``/``wave.execute`` pair, so a wave never holds more
    than that many chunk entries of profiles alive beyond the memo's
    own. Every case of a CPU model-mode
    context is fused; the points the fused path cannot serve
    (``min_time > 0``, GPU or run-mode contexts) fall back to
    :func:`execute_point` per point, and any unexpected fused-stage
    failure degrades its whole sub-wave the same way -- so the wave path
    never fails a point the per-point path could cost. Returns one
    payload per input, in order, each stamped with ``wall_ms``. Seconds
    are bit-identical to the per-point path.
    """
    from repro.sim.wave import WaveEntry
    from repro.suite.batch import batch_supported

    out: list[dict | None] = [None] * len(payloads)
    sub_wave: list[tuple[int, WaveEntry, float]] = []
    sub_chunks = 0
    # Registry factories build a fresh model per call; resolve each
    # (machine, backend) name pair once per wave, not once per point.
    # The memo lives only for this call, so a re-registered model is
    # still picked up by the next wave.
    resolved: dict[tuple[str, str], tuple] = {}
    for i, payload in enumerate(payloads):
        t0 = time.perf_counter()
        try:
            point = PointSpec.from_dict(payload)
            if point.min_time != 0.0:
                out[i] = execute_point(payload)
                continue
            names = (point.machine, point.backend)
            models = resolved.get(names)
            if models is None:
                models = resolved[names] = (get_machine(point.machine),
                                            get_backend(point.backend))
            machine, backend = models
            ctx = _cached_context(machine, backend, point.threads,
                                  point.allocator, point.mode)
            if not batch_supported(ctx):
                out[i] = execute_point(payload)
                continue
            profile = _cached_profile(machine, backend, point.threads,
                                      point.allocator, point.mode,
                                      point.case, point.n)
            entry = WaveEntry(ctx.machine, ctx.backend, profile)
            parse_ms = (time.perf_counter() - t0) * 1000.0
        except UnsupportedOperationError as exc:
            out[i] = {"status": NA, "seconds": None, "error": str(exc),
                      "wall_ms": (time.perf_counter() - t0) * 1000.0}
        except Exception as exc:  # noqa: BLE001 - worker boundary
            out[i] = {"status": FAILED, "seconds": None,
                      "error": f"{type(exc).__name__}: {exc}",
                      "wall_ms": (time.perf_counter() - t0) * 1000.0}
        else:
            chunks = profile.chunk_entries
            if sub_wave and (sub_chunks + chunks > WAVE_CHUNK_BUDGET
                             or len(sub_wave) == WAVE_POINT_BUDGET):
                _run_sub_wave(sub_wave, payloads, out)
                sub_wave, sub_chunks = [], 0
            sub_wave.append((i, entry, parse_ms))
            sub_chunks += chunks
    if sub_wave:
        _run_sub_wave(sub_wave, payloads, out)
    return out


@dataclass
class CampaignStats:
    """Counters describing where one run's results came from."""

    planned: int = 0
    pruned: int = 0
    cache_hits: int = 0
    journal_hits: int = 0
    executed: int = 0
    failed: int = 0
    #: Of ``executed``, how many were computed by remote executors and
    #: landed via segment ingest (their store writes happened at the
    #: coordinator's ingest path, not in this process).
    remote: int = 0
    quarantined: int = 0
    faults_injected: int = 0
    pool_rebuilds: int = 0
    #: True when a ``should_stop`` drain request ended the run between
    #: waves; every recorded result is still durable and a ``resume``
    #: picks up exactly the remaining tasks.
    drained: bool = False

    def summary(self) -> str:
        """One-line human summary (degradation counters only when nonzero)."""
        line = (
            f"{self.planned} tasks: {self.pruned} pruned N/A, "
            f"{self.journal_hits} from journal, {self.cache_hits} cache hits, "
            f"{self.executed} executed, {self.failed} failed"
        )
        extras = [
            f"{value} {label}"
            for label, value in (
                ("remote", self.remote),
                ("quarantined", self.quarantined),
                ("faults injected", self.faults_injected),
                ("pool rebuilds", self.pool_rebuilds),
            )
            if value
        ]
        if self.drained:
            extras.append("drained")
        if extras:
            line += " (" + ", ".join(extras) + ")"
        return line


@dataclass
class CampaignOutcome:
    """Everything one campaign run produced."""

    spec: CampaignSpec
    plan: CampaignPlan
    results: dict[str, PointResult] = field(default_factory=dict)
    stats: CampaignStats = field(default_factory=CampaignStats)

    def result_for(self, task: PointTask) -> PointResult | None:
        """The result recorded for ``task`` (None only after a crash)."""
        return self.results.get(task.task_id)

    def seconds(self, task_id: str) -> float | None:
        """Simulated seconds of a done task, else None."""
        result = self.results.get(task_id)
        return result.seconds if result is not None and result.status == DONE else None


def _trace_point(task: PointTask, result: PointResult) -> None:
    """Emit one cache-hit/cache-miss span for a finished task."""
    tracer = get_tracer()
    if not tracer.enabled:
        return
    if task.pruned is not None:
        name = "pruned"
    elif result.cached:
        name = "cache-hit"
    else:
        name = "cache-miss"
    duration = 0.0
    if not result.cached and result.seconds is not None:
        duration = result.seconds
        tracer.advance(duration)
        start = tracer.clock - duration
    else:
        start = tracer.clock
    tracer.record(
        name, duration, category="campaign", track="campaign", start=start,
        task=task.task_id, kind=task.kind, status=result.status,
        machine=task.point.machine, backend=task.point.backend,
        case=task.point.case, n=task.point.n, threads=task.point.threads,
    )


def _record(outcome: CampaignOutcome, puts: list[tuple[str, PointResult]],
            journal_rows: list[dict] | None, task: PointTask,
            key: str | None, result: PointResult,
            journal_new: bool = True,
            persist: bool = True) -> None:
    """Finalize one task: queue its cache object and journal row, trace it.

    ``key`` is the task's cache key (None for a pruned task, which has
    no object). Neither write happens here: ``(key, result)`` joins
    ``puts`` and the row joins ``journal_rows``, the run's buffers,
    which :func:`_commit_wave` commits once per wave -- objects first,
    so every journaled result is already stored. ``journal_rows=None``
    (no campaign directory) journals nothing.

    ``journal_new=False`` marks a result that was *reconstructed from* the
    journal (a resume's journal hit): it is already durable, so appending
    it again would only grow the journal with duplicate terminal rows on
    every resume. ``persist=False`` marks a result whose store write
    already happened elsewhere -- a remote executor's row landed by the
    coordinator's segment ingest -- so no local object is queued (the
    journal entry still lands here, keeping the journal the single
    task-completion log either way).
    """
    outcome.results[task.task_id] = result
    if persist and key is not None and result.status != FAILED \
            and not result.cached:
        puts.append((key, result))
    if journal_rows is not None and journal_new:
        journal_rows.append({
            "task_id": task.task_id,
            "status": result.status,
            "key": key,
            "seconds": result.seconds,
            "error": result.error,
            "cached": result.cached,
            "wall_ms": result.wall_ms,
        })
    _trace_point(task, result)


def _commit_wave(store: ResultStore, puts: list[tuple[str, PointResult]],
                 journal: Journal | None, rows: list[dict] | None,
                 injector: FaultInjector | None = None) -> None:
    """Commit a wave's buffered objects, then its journal rows.

    The objects land with one :meth:`ResultStore.put_many` (one
    transaction), the rows with one fsynced
    :meth:`Journal.append`. Both buffers are emptied before anything is
    written, so a failed commit is never retried into duplicates, and a
    failed object commit drops the wave's rows with it: the journal
    never names a result the store does not hold. When an ``injector``
    is active, its cache-publish surface runs once per stored key and
    its journal-append surface once per committed row, each in order:
    the same claims as one put and one append per task.
    """
    objects, batch = list(puts), list(rows or ())
    puts.clear()
    if rows:
        rows.clear()
    if objects:
        keys = store.put_many((key, result.point, result.payload(), result.wall_ms)
                              for key, result in objects)
        if injector is not None:
            for key in keys:
                injector.after_put(store, key)
    if journal is None or not batch:
        return
    journal.append(*batch)
    if injector is not None:
        for row in batch:
            injector.after_journal(journal, row["task_id"])


def _shard_wave(tasks: list[PointTask], shards: int) -> list[list[PointTask]]:
    """Split a wave into up to ``shards`` balanced contiguous shards."""
    count = max(1, min(shards, len(tasks)))
    bounds = [len(tasks) * i // count for i in range(count + 1)]
    return [
        tasks[bounds[i]:bounds[i + 1]]
        for i in range(count)
        if bounds[i] < bounds[i + 1]
    ]


class _PoolHandle:
    """A rebuildable process pool: survives ``BrokenProcessPool``.

    Wraps lazy construction, shutdown, and the rebuild that recovery
    from a killed worker requires -- the executor loop swaps pools
    through this one handle so the final ``shutdown`` always reaches
    whichever pool is current. Each rebuild is counted and emits a
    ``pool.rebuild`` trace span.
    """

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.pool: ProcessPoolExecutor | None = None
        self.rebuilds = 0

    def get(self) -> ProcessPoolExecutor:
        """The current pool, created on first use."""
        if self.pool is None:
            self.pool = ProcessPoolExecutor(max_workers=self.workers)
        return self.pool

    def rebuild(self) -> ProcessPoolExecutor:
        """Discard the broken pool and stand up a fresh one."""
        if self.pool is not None:
            self.pool.shutdown(wait=False, cancel_futures=True)
        self.pool = ProcessPoolExecutor(max_workers=self.workers)
        self.rebuilds += 1
        tracer = get_tracer()
        if tracer.enabled:
            tracer.record("pool.rebuild", 0.0, category="campaign",
                          track="campaign", rebuilds=self.rebuilds)
        return self.pool

    def shutdown(self) -> None:
        """Tear down whichever pool is current (idempotent)."""
        if self.pool is not None:
            self.pool.shutdown(wait=False, cancel_futures=True)
            self.pool = None


def _tasks_of(val: list[PointTask] | PointTask) -> list[PointTask]:
    """Normalise a pending-map value (wave shard or single task) to a list."""
    return val if isinstance(val, list) else [val]


class _InlineRunner:
    """The runner of a ``workers <= 1`` campaign: no pool, no fork.

    :meth:`submit` calls the function here, in the driver process, and
    returns an already-settled future, so an inline wave goes through
    :func:`_run_wave`'s own submission, fault-claim and retry loop, the
    same one a pooled wave does. The loop claims worker faults for it
    with ``pool=False``: only ``worker_exception`` fires, since a kill
    or a hang would take down or stall the driver itself.
    """

    def submit(self, fn, *args) -> Future:
        """Run ``fn(*args)`` now; its result or exception settles the future."""
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # noqa: BLE001 - settles like a crashed worker
            future.set_exception(exc)
        return future


def _run_wave(tasks: list[PointTask], runner, timeout: float | None,
              retries: int, *, shards: int = 1,
              injector: FaultInjector | None = None,
              backoff: BackoffPolicy = _NO_BACKOFF) -> dict[str, dict]:
    """The executor's one local loop: submit, time out, retry, rebuild.

    ``runner`` is where submissions run: an :class:`_InlineRunner`
    (``workers <= 1``), a :class:`_PoolHandle`, or any ready executor
    (tests drive this directly with a thread pool). The wave is split
    into up to ``shards`` balanced contiguous shards, each one
    :func:`execute_wave` submission. Every submission claims its tasks'
    worker faults (each fires at most once per task and site), and a
    faulted shard fails all its points. A failed point retries
    individually through :func:`execute_point` while ``retries``
    lasts, spaced by ``backoff``.

    A :class:`_PoolHandle` additionally enables recovery from
    ``BrokenProcessPool``: the broken pool is rebuilt (up to
    :data:`MAX_POOL_REBUILDS` times per wave) and every in-flight task
    re-queued. A task whose worker was *deliberately* killed by the
    fault injector consumes one retry for it; innocent bystanders are
    re-queued free of charge, since they never actually ran.

    A wait window in which nothing completes means every in-flight task
    has exceeded the per-task ``timeout``: each one is cancelled and
    either retried (budget permitting, through :func:`execute_point`) or
    failed -- a hung worker therefore costs one attempt, not the wave.
    Inline futures are settled on submission, so they never time out.
    """
    handle = runner if isinstance(runner, _PoolHandle) else None
    in_pool = not isinstance(runner, _InlineRunner)
    out: dict[str, dict] = {}
    attempts: dict[str, int] = {t.task_id: 1 for t in tasks}
    pending: dict[Future, list[PointTask] | PointTask] = {}
    requeue: list[list[PointTask] | PointTask] = []

    def _submit(fn, *args) -> Future | None:
        executor = handle.get() if handle is not None else runner
        try:
            return executor.submit(fn, *args)
        except BrokenExecutor:
            return None  # caller re-queues; the wait loop rebuilds

    def claim(task: PointTask) -> str | None:
        if injector is None:
            return None
        return injector.claim_worker_fault(task.task_id, pool=in_pool)

    def submit_task(task: PointTask) -> None:
        directive = claim(task)
        if directive is not None:
            fut = _submit(faulty_point, task.point.to_dict(), directive,
                          injector.plan.hang_seconds)
        else:
            fut = _submit(execute_point, task.point.to_dict())
        if fut is None:
            requeue.append(task)
        else:
            pending[fut] = task

    def submit_wave(group: list[PointTask]) -> None:
        payloads = [t.point.to_dict() for t in group]
        directives = [claim(t) for t in group]
        if any(directives):
            fut = _submit(faulty_wave, payloads, directives,
                          injector.plan.hang_seconds)
        else:
            fut = _submit(execute_wave, payloads)
        if fut is None:
            requeue.append(list(group))
        else:
            pending[fut] = list(group)

    def settle(task: PointTask, payload: dict) -> None:
        """Retry a failed payload while budget lasts, else record it."""
        if payload["status"] == FAILED and attempts[task.task_id] <= retries:
            failed_attempt = attempts[task.task_id]
            attempts[task.task_id] += 1
            backoff.sleep(task.task_id, failed_attempt)
            submit_task(task)  # retries always go through execute_point
            return
        payload["attempts"] = attempts[task.task_id]
        out[task.task_id] = payload

    def fail_outright(task: PointTask, error: str) -> None:
        out[task.task_id] = {
            "status": FAILED, "seconds": None, "error": error,
            "attempts": attempts[task.task_id],
        }

    for shard in _shard_wave(tasks, shards):
        submit_wave(shard)

    while pending or requeue:
        if pending:
            finished, _ = wait(pending, timeout=timeout,
                               return_when=FIRST_COMPLETED)
            if not finished:
                # Nothing completed within the per-task budget: every
                # in-flight task has now waited >= timeout. Cancel and
                # retry-or-fail each one individually.
                stalled = list(pending.items())
                pending.clear()
                for fut, val in stalled:
                    fut.cancel()
                    for task in _tasks_of(val):
                        settle(task, {
                            "status": FAILED, "seconds": None,
                            "error": f"timeout after {timeout:g}s",
                        })
                continue
            for fut in finished:
                val = pending.pop(fut)
                exc = fut.exception()
                if isinstance(exc, BrokenExecutor):
                    requeue.append(val)
                    continue
                group = _tasks_of(val)
                if exc is not None:
                    payloads = [
                        {"status": FAILED, "seconds": None,
                         "error": f"{type(exc).__name__}: {exc}"}
                        for _ in group
                    ]
                else:
                    result = fut.result()
                    payloads = result if isinstance(val, list) else [result]
                for task, payload in zip(group, payloads):
                    settle(task, payload)
        if not requeue:
            continue
        # The pool broke under us: drain everything still in flight (those
        # futures are doomed too), rebuild once, and re-queue.
        for doomed in list(pending):
            requeue.append(pending.pop(doomed))
        affected, requeue = requeue, []
        can_rebuild = handle is not None and handle.rebuilds < MAX_POOL_REBUILDS
        if can_rebuild:
            handle.rebuild()
        for val in affected:
            for task in _tasks_of(val):
                if not can_rebuild:
                    fail_outright(
                        task, "process pool broke and could not be rebuilt"
                    )
                elif injector is not None and injector.was_killed(task.task_id):
                    # The injected kill was this task's doing: it costs
                    # one attempt, like any other failed execution.
                    settle(task, {
                        "status": FAILED, "seconds": None,
                        "error": "InjectedFaultError: injected worker_kill",
                    })
                else:
                    submit_task(task)  # never ran; re-queue free of charge
    return out


def run_campaign(
    spec: CampaignSpec,
    *,
    store: ResultStore | None = None,
    workers: int = 0,
    timeout: float | None = None,
    retries: int = 1,
    campaign_dir: str | os.PathLike | None = None,
    resume: bool = False,
    progress: Callable[[PointTask, PointResult], None] | None = None,
    faults: FaultPlan | None = None,
    backoff: BackoffPolicy | None = None,
    should_stop: Callable[[], bool] | None = None,
    dispatch: Callable[[list[PointTask]], dict[str, dict]] | None = None,
) -> CampaignOutcome:
    """Plan and execute ``spec``; returns the full outcome.

    Parameters
    ----------
    store:
        Result cache; defaults to ``<campaign_dir>/cache`` when a
        directory is given, else an in-memory store. The run derives
        each task's key once, with :meth:`ResultStore.key_of` from the
        plan's encoding, and uses it for the lookup, the journal row
        and the store write; each wave's cache hits are read with one
        verified :meth:`ResultStore.results_for`.
    workers:
        Process-pool width. ``0``/``1`` runs each wave inline in this
        process as one shard (deterministic, no fork) -- the right
        choice for tests and tiny grids; ``>= 2`` runs ``workers``
        shards concurrently on a process pool. Both go through the same
        submit/retry loop, so they claim the same faults.
    timeout:
        Per-task wall-clock budget in seconds (pool mode only); a point
        that exceeds it consumes one retry, and is recorded as failed
        once its budget is spent.
    retries:
        How many times a failed point is re-executed before its failure
        is journaled as terminal.
    campaign_dir:
        Run directory holding ``spec.json`` + ``journal.jsonl`` (and the
        default cache). Required for ``resume``.
    resume:
        Skip every task whose terminal entry the journal already holds,
        loading its result from the cache instead of recomputing.
    progress:
        Optional callback invoked with every (task, result) as recorded.
    faults:
        Optional deterministic :class:`~repro.faults.FaultPlan`; when
        given, a :class:`~repro.faults.FaultInjector` is threaded
        through submission, cache publish and journal append (chaos
        testing -- see docs/ROBUSTNESS.md). ``None`` injects nothing
        and costs nothing.
    backoff:
        Retry-spacing :class:`BackoffPolicy`; the default sleeps zero
        seconds between retries.
    should_stop:
        Optional drain predicate polled *between waves*: once it returns
        True, no further wave is submitted, the outcome is returned with
        ``stats.drained = True``, and every already-recorded result is
        durable (journaled) -- the graceful-shutdown hook the
        ``repro.service`` daemon uses on SIGTERM. A ``resume`` of the
        same directory executes exactly the remaining tasks.
    dispatch:
        Optional remote-execution hook (see :mod:`repro.remote`). Called
        once per wave with the cache-miss tasks; returns a
        ``task_id -> payload`` map of the rows that already landed in
        the store via segment ingest (``{}`` when no remote executor is
        live), so only their journal entry is written here. Every other
        task of the wave runs locally with this campaign's own
        ``workers``, ``retries``, ``faults`` and ``backoff``.
    """
    if retries < 0:
        raise CampaignError("retries must be >= 0")
    if workers < 0:
        raise CampaignError("workers must be >= 0")
    journal: Journal | None = None
    if campaign_dir is not None:
        root = Path(campaign_dir)
        spec_path = root / "spec.json"
        if spec_path.exists():
            on_disk = read_spec(spec_path)
            if CampaignSpec.from_dict(on_disk).canonical() != spec.canonical():
                raise CampaignError(
                    f"{root} already holds a different campaign "
                    f"({on_disk.get('name')!r}); use a fresh directory"
                )
        else:
            write_spec(spec_path, spec.to_dict())
        journal = Journal(root / "journal.jsonl")
        if store is None:
            store = ResultStore(root / "cache")
    if store is None:
        store = ResultStore(None)
    if resume and journal is None:
        raise CampaignError("resume requires a campaign_dir")

    tracer = get_tracer()
    outcome = None
    span = tracer.begin("campaign.run", category="campaign", track="campaign",
                        campaign=spec.name) if tracer.enabled else None
    try:
        outcome = _run(spec, store, workers, timeout, retries, journal, resume,
                       progress,
                       FaultInjector(faults) if faults is not None else None,
                       backoff if backoff is not None else _NO_BACKOFF,
                       should_stop, dispatch)
    finally:
        if span is not None:
            if outcome is not None:
                span.set_attribute("tasks", outcome.stats.planned)
                span.set_attribute("executed", outcome.stats.executed)
                span.set_attribute("cache_hits", outcome.stats.cache_hits)
            tracer.end()
    return outcome


def _run(spec, store, workers, timeout, retries, journal, resume, progress,
         injector=None, backoff=_NO_BACKOFF,
         should_stop=None, dispatch=None):
    """The executor body (directory/span plumbing handled by the caller)."""
    plan = plan_campaign(spec)
    outcome = CampaignOutcome(spec=spec, plan=plan)
    outcome.stats.planned = len(plan.tasks)
    quarantined_before = store.quarantined

    journaled: dict[str, dict] = {}
    if resume and journal is not None:
        journaled = journal.completed_ids()
    puts: list[tuple[str, PointResult]] = []
    journal_rows: list[dict] | None = [] if journal is not None else None

    def finish(task: PointTask, key: str | None, result: PointResult,
               journal_new: bool = True, persist: bool = True) -> None:
        _record(outcome, puts, journal_rows, task, key, result,
                journal_new, persist)
        if progress is not None:
            progress(task, result)

    tracer = get_tracer()
    # One shard inline, or one per worker on a lazily started pool.
    if workers >= 2:
        runner, shards = _PoolHandle(workers), workers
    else:
        runner, shards = _InlineRunner(), 1
    try:
        span = tracer.begin("campaign.execute", category="campaign",
                            track="campaign") if tracer.enabled else None
        try:
            for wave in _all_waves(plan):
                # Group commit: the previous wave's objects and rows
                # land before the drain check can end the run.
                _commit_wave(store, puts, journal, journal_rows, injector)
                if should_stop is not None and should_stop():
                    # Graceful drain: everything recorded so far is
                    # journaled; the rest belongs to a future resume.
                    outcome.stats.drained = True
                    break
                lookups: list[PointTask] = []
                for task in wave:
                    if task.pruned is None:
                        lookups.append(task)
                        continue
                    outcome.stats.pruned += 1
                    finish(task, None, PointResult(
                        task_id=task.task_id, point=task.point, status=NA,
                        error=task.pruned, attempts=0,
                    ), journal_new=task.task_id not in journaled)
                if not lookups:
                    continue
                keys = {t.task_id: store.key_of(t.canonical) for t in lookups}
                found = store.results_for(
                    (t.task_id, t.point, keys[t.task_id]) for t in lookups)
                to_run: list[PointTask] = []
                for task, cached in zip(lookups, found):
                    key = keys[task.task_id]
                    entry = journaled.get(task.task_id)
                    if entry is not None:
                        if cached is not None:
                            outcome.stats.journal_hits += 1
                            finish(task, key, cached, journal_new=False)
                            continue
                        if entry["status"] == NA:
                            # N/A needs no cache object to be trustworthy.
                            outcome.stats.journal_hits += 1
                            finish(task, key, PointResult(
                                task_id=task.task_id, point=task.point,
                                status=NA, error=entry.get("error"),
                                cached=True, attempts=0,
                            ), journal_new=False)
                            continue
                        # Journaled but evicted from cache (or quarantined
                        # as corrupt): recompute.
                    elif cached is not None:
                        outcome.stats.cache_hits += 1
                        finish(task, key, cached)
                        continue
                    to_run.append(task)
                if not to_run:
                    continue
                # Remote-first: live executors return the rows that
                # landed through segment ingest; every other task runs
                # on this campaign's own local runner.
                landed = dispatch(to_run) if dispatch is not None else {}
                local = [t for t in to_run if t.task_id not in landed]
                if local and should_stop is not None and should_stop():
                    # Drained while the wave was remote: what landed is
                    # stored, and the rest belongs to a future resume.
                    to_run = [t for t in to_run if t.task_id in landed]
                    local = []
                    outcome.stats.drained = True
                payloads = _run_wave(local, runner, timeout, retries,
                                     shards=shards,
                                     injector=injector, backoff=backoff)
                payloads.update(landed)
                for task in to_run:
                    payload = payloads[task.task_id]
                    remote = task.task_id in landed
                    outcome.stats.executed += 1
                    outcome.stats.remote += remote
                    if payload["status"] == FAILED:
                        outcome.stats.failed += 1
                    finish(task, keys[task.task_id], PointResult(
                        task_id=task.task_id, point=task.point,
                        status=payload["status"], seconds=payload["seconds"],
                        error=payload["error"],
                        attempts=payload.get("attempts", 1),
                        wall_ms=payload.get("wall_ms"),
                    ), persist=not remote)
                if outcome.stats.drained:
                    break
        finally:
            try:
                # The last wave, or on an exception whatever the failing
                # wave had recorded.
                _commit_wave(store, puts, journal, journal_rows, injector)
            finally:
                if span is not None:
                    tracer.end()
    finally:
        if isinstance(runner, _PoolHandle):
            outcome.stats.pool_rebuilds = runner.rebuilds
            runner.shutdown()
        outcome.stats.quarantined = store.quarantined - quarantined_before
        if injector is not None:
            outcome.stats.faults_injected = injector.total_injected
    return outcome


def load_campaign(campaign_dir: str | os.PathLike,
                  store: ResultStore | None = None) -> CampaignOutcome:
    """Reconstruct a campaign's outcome from disk without executing.

    Re-plans from ``spec.json`` (deterministic, so task ids line up),
    then fills in whatever the journal and cache already hold: pruned
    tasks, journaled N/As, and cached results, read with one verified
    batch read for the whole campaign. Tasks with no terminal record
    stay absent from ``outcome.results`` -- that's the pending set a
    ``resume`` would run.
    """
    root = Path(campaign_dir)
    spec = CampaignSpec.from_dict(read_spec(root / "spec.json"))
    if store is None:
        store = ResultStore(root / "cache")
    plan = plan_campaign(spec)
    outcome = CampaignOutcome(spec=spec, plan=plan)
    outcome.stats.planned = len(plan.tasks)
    journaled = Journal(root / "journal.jsonl").completed_ids()
    found = iter(store.results_for(
        (t.task_id, t.point, store.key_of(t.canonical)) for t in plan.runnable))
    for task in plan.tasks:
        if task.pruned is not None:
            outcome.stats.pruned += 1
            outcome.results[task.task_id] = PointResult(
                task_id=task.task_id, point=task.point, status=NA,
                error=task.pruned, attempts=0,
            )
            continue
        cached = next(found)
        if cached is not None:
            outcome.stats.cache_hits += 1
            outcome.results[task.task_id] = cached
            continue
        entry = journaled.get(task.task_id)
        if entry is not None and entry["status"] == NA:
            outcome.stats.journal_hits += 1
            outcome.results[task.task_id] = PointResult(
                task_id=task.task_id, point=task.point, status=NA,
                error=entry.get("error"), cached=True, attempts=0,
            )
    return outcome


def _all_waves(plan: CampaignPlan):
    """Pruned tasks first (cheap N/A records), then the plan's waves."""
    pruned = tuple(plan.pruned)
    if pruned:
        yield pruned
    yield from plan.waves()
