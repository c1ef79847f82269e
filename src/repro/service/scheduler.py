"""Campaign scheduler: admitted submissions through the executor, concurrently.

The scheduler owns the service's campaign lifecycle. Every admitted
submission becomes a :class:`CampaignRecord` keyed by a *content-derived*
campaign id (the sha256 of the spec's canonical JSON), which is what
makes duplicate submissions cheap: resubmitting a spec the service has
already seen -- the load generator's ``dup`` traffic class -- returns
the existing record instead of planning anything, and a *warm* spec
(new name, previously-executed grid) runs against the shared
content-addressed cache and finishes on pure hits.

Campaigns execute through the unchanged :func:`~repro.campaign.run_campaign`
pipeline (wave-fused by default) on worker threads, at most
``concurrent`` at a time, each with its own campaign directory
(``<root>/campaigns/<id>/``) but one shared store (``<root>/cache``) --
the cross-process-safe journal append and atomic object publish in
:mod:`repro.campaign.store` are what make that sharing sound.

Graceful drain: :meth:`CampaignService.drain` stops admissions, asks
every running executor to stop *between waves* (``should_stop``), and
waits. Everything journaled stays durable; on the next start the
scheduler rescans ``campaigns/`` and resumes whatever is incomplete, so
a SIGTERM'd daemon restarted mid-campaign converges to bit-identical
results (the shutdown suite pins this).

All record mutation happens on the daemon's event loop; the only
off-loop work is the executor call itself, which touches no scheduler
state. Every state change goes through one place, which also resolves
the futures that the daemon's ``?wait=`` status requests park on
(:meth:`CampaignService.state_change`).
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.campaign.executor import load_campaign, run_campaign
from repro.campaign.plan import plan_campaign
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import (
    DONE,
    FAILED,
    NA,
    Journal,
    JournalReader,
    ResultStore,
    read_spec,
    write_spec,
)
from repro.errors import CampaignError, ReproError, ServiceError
from repro.faults import FaultInjector, FaultPlan
from repro.remote.coordinator import RemoteCoordinator
from repro.remote.registry import ExecutorRegistry
from repro.service.quotas import AdmissionController, QuotaPolicy, Rejection
from repro.trace import get_tracer

__all__ = [
    "CampaignRecord",
    "CampaignService",
    "campaign_id",
    "QUEUED",
    "RUNNING",
    "COMPLETE",
    "INTERRUPTED",
    "BROKEN",
    "FINAL",
]

#: Lifecycle states a record moves through (terminal: COMPLETE, BROKEN).
QUEUED = "queued"
RUNNING = "running"
COMPLETE = "complete"
INTERRUPTED = "interrupted"
BROKEN = "broken"

#: States a record leaves only when a restarted daemon resumes it.
FINAL = (COMPLETE, BROKEN, INTERRUPTED)


def campaign_id(spec: CampaignSpec) -> str:
    """Content-derived campaign id: sha256 of the spec's canonical JSON.

    Identical specs always collide onto the same id -- that collision
    *is* the service's duplicate-submission dedup.
    """
    return hashlib.sha256(spec.canonical().encode()).hexdigest()[:16]


def _add_counters(total: dict[str, int], counters: Mapping[str, Any]) -> None:
    """Add one coordinator's counters into a running ``total`` in place."""
    for name, value in counters.items():
        total[name] = total.get(name, 0) + int(value)


@dataclass
class CampaignRecord:
    """One campaign's service-side state (never the results themselves)."""

    id: str
    spec: CampaignSpec
    api_key: str
    state: str = QUEUED
    points: int = 0
    submitted_at: float = 0.0
    finished_at: float | None = None
    error: str | None = None
    #: Terminal-entry counts folded incrementally from the journal.
    progress: dict[str, int] = field(default_factory=dict)
    #: Executor stats summary line (set when a run finishes).
    stats: str | None = None
    reader: JournalReader | None = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready status document (what ``GET /campaigns/{id}`` serves)."""
        return {
            "id": self.id,
            "name": self.spec.name,
            "state": self.state,
            "points": self.points,
            "progress": dict(self.progress),
            "stats": self.stats,
            "error": self.error,
        }


class CampaignService:
    """The scheduler: admission, dedup, concurrent execution, drain, resume."""

    def __init__(
        self,
        root: str | Path,
        *,
        policy: QuotaPolicy | None = None,
        concurrent: int = 2,
        campaign_workers: int = 0,
        retries: int = 1,
        faults: FaultPlan | None = None,
        lease_ttl: float = 5.0,
        executor_ttl: float = 10.0,
        wave_timeout: float = 60.0,
    ) -> None:
        """Bind to the service ``root`` directory (created on start).

        ``concurrent`` bounds how many campaigns execute at once;
        ``campaign_workers`` is the process-pool width *inside* each
        campaign (0 = inline on the runner thread, the service default:
        concurrency comes from multiplexing campaigns, not from nesting
        pools). ``faults`` activates the request-side injection sites
        (``service_reject``, ``slow_client``) plus the wire/lease sites
        the executor registry consults (``segment_lost``,
        ``lease_expire``). ``lease_ttl``/``executor_ttl``/``wave_timeout``
        parameterize remote wave dispatch (see :mod:`repro.remote`):
        campaigns are offered to registered executors first and fall
        back to local execution when none is live.
        """
        if concurrent < 1:
            raise ServiceError("concurrent must be >= 1")
        if campaign_workers < 0:
            raise ServiceError("campaign_workers must be >= 0")
        self.root = Path(root)
        self.cache_root = self.root / "cache"
        self.campaigns_root = self.root / "campaigns"
        self.policy = policy if policy is not None else QuotaPolicy()
        self.admission = AdmissionController(self.policy)
        self.concurrent = concurrent
        self.campaign_workers = campaign_workers
        self.retries = retries
        self.injector = FaultInjector(faults) if faults is not None else None
        self.registry = ExecutorRegistry(
            lease_ttl=lease_ttl, executor_ttl=executor_ttl,
            injector=self.injector)
        self.wave_timeout = float(wave_timeout)
        #: Coordinators of campaigns still running. A finished run folds
        #: its counters into ``_finished_dispatch`` and drops the
        #: coordinator, whose store handle and shard caches would
        #: otherwise live as long as the daemon.
        self._coordinators: dict[str, RemoteCoordinator] = {}
        self._finished_dispatch: dict[str, int] = {}
        self.records: dict[str, CampaignRecord] = {}
        self.submitted = 0
        self.deduped = 0
        self.injected_rejects = 0
        self.completed = 0
        self.interrupted = 0
        self.broken = 0
        self._semaphore = asyncio.Semaphore(concurrent)
        self._draining = asyncio.Event()
        self._runners: set[asyncio.Task] = set()
        #: Per record id: the future its next state change resolves.
        self._changes: dict[str, asyncio.Future] = {}
        self._store_handle: ResultStore | None = None

    def _store(self) -> ResultStore:
        """The shared cache as a (lazily bound) :class:`ResultStore`.

        One long-lived handle, opened by :meth:`start`, so the process's
        connection to the store's database stays open between campaigns:
        campaign runners construct their own handles, and every handle
        shares it.
        """
        if self._store_handle is None:
            self._store_handle = ResultStore(self.cache_root)
        return self._store_handle

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> int:
        """Create the root layout and re-adopt campaigns left on disk.

        Every ``campaigns/<id>/spec.json`` from a previous daemon life
        is registered again; incomplete ones (journal missing terminal
        entries) are re-queued for resume. Returns how many campaigns
        were re-queued.
        """
        self._store()
        self.campaigns_root.mkdir(parents=True, exist_ok=True)
        resumed = 0
        for spec_path in sorted(self.campaigns_root.glob("*/spec.json")):
            try:
                spec = CampaignSpec.from_dict(read_spec(spec_path))
            except (CampaignError, ReproError):
                continue  # unreadable leftovers are not this daemon's to fix
            cid = campaign_id(spec)
            if cid != spec_path.parent.name or cid in self.records:
                continue
            record = self._register(spec, cid, api_key="recovered")
            done = Journal(self._dir(cid) / "journal.jsonl").completed_ids()
            pending = [t for t in plan_campaign(spec).runnable
                       if t.task_id not in done]
            if not pending:
                self._set_state(record, COMPLETE)
                self.admission.release(record.api_key)
            else:
                resumed += 1
                self._launch(record)
        return resumed

    def _dir(self, cid: str) -> Path:
        """The campaign directory owned by record ``cid``."""
        return self.campaigns_root / cid

    def _register(self, spec: CampaignSpec, cid: str, api_key: str) -> CampaignRecord:
        """Create, admit (unconditionally) and index a record for ``spec``."""
        record = CampaignRecord(
            id=cid, spec=spec, api_key=api_key,
            points=len(plan_campaign(spec).tasks),
            submitted_at=time.time(),
            reader=JournalReader(self._dir(cid) / "journal.jsonl"),
        )
        # start() re-admits recovered campaigns outside the normal
        # admit() path; charge the key directly so release() balances.
        self.admission.inflight_by_key[api_key] = (
            self.admission.inflight_by_key.get(api_key, 0) + 1
        )
        self.admission.inflight_total += 1
        self.records[cid] = record
        return record

    # -- submission --------------------------------------------------------

    def submit(
        self, payload: Mapping[str, Any], api_key: str = "anonymous"
    ) -> tuple[CampaignRecord | None, bool, Rejection | None]:
        """Admit one submission: ``(record, deduped, rejection)``.

        Exactly one of ``record`` / ``rejection`` is set. A payload that
        does not parse as a :class:`CampaignSpec` raises
        :class:`~repro.errors.CampaignError` (the daemon maps it to 400).
        A payload carrying a ``scenario`` key is resolved through the
        scenario registry first (remaining keys are axis overrides), so
        scenario submissions dedup against equivalent inline specs via
        the shared content-derived campaign id; a bad scenario raises
        :class:`~repro.errors.ScenarioError` (also a 400 at the daemon).
        """
        self.submitted += 1
        if "scenario" in payload:
            from repro.scenarios.runner import service_payload

            payload = service_payload(payload)
        try:
            spec = CampaignSpec.from_dict(payload)
        except TypeError as exc:  # missing required fields
            raise CampaignError(f"invalid campaign spec: {exc}") from None
        cid = campaign_id(spec)
        existing = self.records.get(cid)
        if existing is not None:
            self.deduped += 1
            self._trace("service.dedup", campaign=cid)
            return existing, True, None
        if self._draining.is_set():
            return None, False, Rejection(
                status=503, reason="service is draining",
                retry_after=self.policy.retry_after,
            )
        if self.injector is not None and self.injector.claim_service_reject(cid):
            self.injected_rejects += 1
            self._trace("service.reject", campaign=cid, injected=True)
            return None, False, Rejection(
                status=503, reason="injected service_reject",
                retry_after=self.policy.retry_after,
            )
        points = len(plan_campaign(spec).tasks)
        rejection = self.admission.admit(api_key, points)
        if rejection is not None:
            self._trace("service.reject", campaign=cid, reason=rejection.reason)
            return None, False, rejection
        record = CampaignRecord(
            id=cid, spec=spec, api_key=api_key, points=points,
            submitted_at=time.time(),
            reader=JournalReader(self._dir(cid) / "journal.jsonl"),
        )
        # persist the spec at admission, not first execution: an admitted
        # campaign must survive a drain even if it never got to start
        write_spec(self._dir(cid) / "spec.json", spec.to_dict())
        self.records[cid] = record
        self._launch(record)
        self._trace("service.submit", campaign=cid, points=points)
        return record, False, None

    def _launch(self, record: CampaignRecord) -> None:
        """Schedule ``record``'s runner task on the running event loop."""
        task = asyncio.get_running_loop().create_task(self._run(record))
        self._runners.add(task)
        task.add_done_callback(self._runners.discard)

    async def _run(self, record: CampaignRecord) -> None:
        """Execute one campaign on a worker thread, bounded by ``concurrent``."""
        async with self._semaphore:
            if record.state != QUEUED:
                return
            if self._draining.is_set():
                # drained before it ever started
                self._set_state(record, INTERRUPTED)
                self.interrupted += 1
                self.admission.release(record.api_key)
                return
            self._set_state(record, RUNNING)
            t0 = time.perf_counter()
            # One coordinator per campaign run: waves go remote-first
            # through the executor registry, and every task no executor
            # landed (all of them when none is live) runs locally. The
            # coordinator lives on the runner thread; only registry
            # state is shared with the event loop.
            coordinator = RemoteCoordinator(
                self.registry,
                store=ResultStore(self.cache_root),
                campaign=record.id,
                wave_timeout=self.wave_timeout,
            )
            self._coordinators[record.id] = coordinator
            try:
                outcome = await asyncio.to_thread(
                    run_campaign,
                    record.spec,
                    campaign_dir=self._dir(record.id),
                    store=ResultStore(self.cache_root),
                    workers=self.campaign_workers,
                    retries=self.retries,
                    resume=True,
                    should_stop=self._draining.is_set,
                    dispatch=coordinator.dispatch,
                )
            except Exception as exc:  # noqa: BLE001 - runner boundary
                record.error = f"{type(exc).__name__}: {exc}"
                self._set_state(record, BROKEN)
                self.broken += 1
            else:
                record.stats = outcome.stats.summary()
                if outcome.stats.drained:
                    self._set_state(record, INTERRUPTED)
                    self.interrupted += 1
                else:
                    self._set_state(record, COMPLETE)
                    self.completed += 1
            finally:
                _add_counters(self._finished_dispatch, coordinator.counters())
                del self._coordinators[record.id]
            record.finished_at = time.time()
            self.admission.release(record.api_key)
            self._trace("service.campaign", time.perf_counter() - t0,
                        campaign=record.id, state=record.state)

    def _set_state(self, record: CampaignRecord, state: str) -> None:
        """Move ``record`` to ``state`` and wake its parked status waits."""
        record.state = state
        change = self._changes.pop(record.id, None)
        if change is not None and not change.done():
            change.set_result(state)

    # -- reads -------------------------------------------------------------

    def state_change(self, cid: str) -> asyncio.Future:
        """A future that record ``cid``'s next state change resolves.

        Every waiter on one record shares the future; a drain resolves
        them all (:meth:`begin_drain`). Call it on the event loop.
        """
        change = self._changes.get(cid)
        if change is None:
            change = asyncio.get_running_loop().create_future()
            self._changes[cid] = change
        return change

    def status(self, cid: str) -> CampaignRecord:
        """The record for ``cid``, its progress refreshed incrementally.

        Each call folds only the journal bytes appended since the last
        one (the record keeps a :class:`JournalReader`), so polling
        clients cost O(new rows) per poll, not O(journal).
        """
        record = self._get(cid)
        if record.reader is not None:
            for entry in record.reader.poll():
                status = entry.get("status")
                if status in (DONE, NA, FAILED):
                    record.progress[status] = record.progress.get(status, 0) + 1
        return record

    def events(self, cid: str, offset: int = 0) -> dict[str, Any]:
        """Journal entries of ``cid`` from byte ``offset``, plus the next one.

        Stateless per call: each client owns its offset cursor and pays
        only for what appended past it, so many streaming clients do not
        multiply journal rescans.
        """
        record = self._get(cid)
        reader = JournalReader(self._dir(cid) / "journal.jsonl", offset=offset)
        events = reader.poll()
        return {
            "id": cid,
            "state": record.state,
            "events": events,
            "next_offset": reader.offset,
        }

    def results(self, cid: str) -> dict[str, Any]:
        """Stored query rows for ``cid`` (complete campaigns only).

        Raises :class:`ServiceError` while the campaign is still in
        flight -- partial grids are served by ``/events``, results are
        the finished artifact.
        """
        record = self._get(cid)
        if record.state not in (COMPLETE, BROKEN):
            raise ServiceError(f"campaign {cid} is {record.state}; results "
                               f"are served once it completes")
        outcome = load_campaign(self._dir(cid), store=ResultStore(self.cache_root))
        rows = []
        for task in outcome.plan.tasks:
            result = outcome.results.get(task.task_id)
            if result is None:
                continue
            p = task.point
            rows.append({
                "task_id": task.task_id, "kind": task.kind,
                "machine": p.machine, "backend": p.backend, "case": p.case,
                "size_exp": p.size_exp, "threads": p.threads,
                "status": result.status, "seconds": result.seconds,
                "error": result.error,
            })
        return {"id": cid, "state": record.state, "rows": rows}

    def _get(self, cid: str) -> CampaignRecord:
        """Look up ``cid`` or raise the 404-shaped :class:`ServiceError`."""
        record = self.records.get(cid)
        if record is None:
            raise ServiceError(f"unknown campaign {cid!r}")
        return record

    # -- drain -------------------------------------------------------------

    @property
    def draining(self) -> bool:
        """Whether a drain has been requested (new submissions get 503)."""
        return self._draining.is_set()

    @property
    def runners(self) -> frozenset[asyncio.Task]:
        """The campaign runner tasks not yet finished."""
        return frozenset(self._runners)

    def begin_drain(self) -> None:
        """Stop admissions, answer every parked status wait and stop every
        coordinator's wait for remote waves (idempotent)."""
        self._draining.set()
        self.registry.drain()
        changes, self._changes = self._changes, {}
        for change in changes.values():
            if not change.done():
                change.set_result(None)

    async def drain(self) -> None:
        """Stop admissions, stop executors between waves, wait for them.

        Idempotent. Afterwards every record is in a terminal or
        resumable state and every journal is durable; a restarted
        daemon's :meth:`start` picks the interrupted ones back up.
        """
        self.begin_drain()
        self._trace("service.drain")
        if self._runners:
            await asyncio.gather(*list(self._runners), return_exceptions=True)

    # -- metrics -----------------------------------------------------------

    def counters(self) -> dict[str, int | float]:
        """Scheduler-side counters for the ``/metrics`` endpoint.

        ``store_objects`` is one ``count(*)`` over the store's table.
        """
        states: dict[str, int] = {}
        for record in self.records.values():
            states[record.state] = states.get(record.state, 0) + 1
        store = self._store()
        return {
            "submitted": self.submitted,
            "deduped": self.deduped,
            "admitted": self.admission.admitted,
            "rejected": self.admission.rejected_total(),
            "rejected_queue": self.admission.rejected_queue,
            "rejected_key": self.admission.rejected_key,
            "rejected_points": self.admission.rejected_points,
            "injected_rejects": self.injected_rejects,
            "completed": self.completed,
            "interrupted": self.interrupted,
            "broken": self.broken,
            "inflight": self.admission.inflight_total,
            "queued": states.get(QUEUED, 0),
            "running": states.get(RUNNING, 0),
            "draining": int(self.draining),
            "store_objects": store.count_objects(),
            "store_indexed": int(store.indexed),
            **{f"remote_{name}": value
               for name, value in self.registry.counters().items()},
            **{f"remote_{name}": value
               for name, value in self._dispatch_counters().items()},
        }

    def _dispatch_counters(self) -> dict[str, int]:
        """Dispatch/ingest counters: finished runs plus running coordinators."""
        agg = dict(self._finished_dispatch)
        for coordinator in self._coordinators.values():
            _add_counters(agg, coordinator.counters())
        return agg

    def store_stats(self) -> dict[str, int | bool]:
        """Store-level stats for the ``/store`` endpoint."""
        store = self._store()
        qdir = self.cache_root / "quarantine"
        return {
            "objects": store.count_objects(),
            "indexed": store.indexed,
            "quarantined": (
                sum(1 for _ in qdir.glob("*.json")) if qdir.is_dir() else 0
            ),
        }

    def _trace(self, name: str, duration: float = 0.0, **attrs: Any) -> None:
        """Emit one service span (free when tracing is off)."""
        tracer = get_tracer()
        if tracer.enabled:
            tracer.record(name, duration, category="service", track="service",
                          **attrs)
