"""Service-side wave dispatch to remote executors.

One :class:`RemoteCoordinator` serves one running campaign. It plugs
into the campaign executor's ``dispatch=`` seam: each wave of
cache-miss tasks is sharded across the currently-live executors,
offered as leases through the shared :class:`ExecutorRegistry`, and the
coordinator then drives a small event loop on the campaign's runner
thread -- expiring stale leases (reassignment), ingesting delivered
segments into the shared store, and finally taking back anything still
unfinished at the wave deadline. ``dispatch`` returns only the rows
that landed; the coordinator never executes a point itself.

Degradation ladder, graceful at every rung:

- an executor dies or stalls mid-wave -> its lease expires and the wave
  is reclaimed by another executor (epoch bump fences the corpse);
- no live executors, nobody completing by the wave deadline, or a
  remote row coming back failed -> the task is absent from the returned
  map, and the campaign runs it on its own local path, with its own
  ``workers``, ``retries``, ``faults`` and ``backoff``
  (with no executor live, exactly the pre-remote behavior).

Because the simulator is deterministic, a task computed remotely,
recomputed after reassignment, or computed locally yields identical
bytes -- which is why the ingest's index dedup can collapse every
duplicate and the whole campaign stays bit-identical to a
single-process run.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.campaign.executor import _shard_wave
from repro.campaign.plan import PointTask
from repro.campaign.store import ResultStore
from repro.errors import SegmentError
from repro.remote.registry import DONE as WAVE_DONE
from repro.remote.registry import LEASED as WAVE_LEASED
from repro.remote.registry import ExecutorRegistry
from repro.remote.ship import IngestReport, SegmentIngestor
from repro.trace import get_tracer

#: Storable remote statuses: these rows landed via ingest, everything
#: else is left to the campaign's local path.
_REMOTE_TERMINAL = ("done", "na")


class RemoteCoordinator:
    """Dispatches one campaign's waves across registered remote executors."""

    def __init__(self, registry: ExecutorRegistry, *,
                 store: ResultStore,
                 campaign: str,
                 wave_timeout: float = 60.0,
                 poll: float = 0.05,
                 clock: Callable[[], float] = time.monotonic) -> None:
        """Coordinate ``campaign``'s waves through ``registry``.

        ``store`` is the campaign's shared result store (ingest target);
        ``wave_timeout`` bounds how long a wave may stay remote before
        the coordinator takes it back for the campaign's local path.
        """
        self.registry = registry
        self.campaign = campaign
        self.wave_timeout = float(wave_timeout)
        self.poll = float(poll)
        self.clock = clock
        self.ingestor = SegmentIngestor(store)
        self.rejected_segments = 0
        self.waves_dispatched = 0
        self.waves_local = 0

    # -- the dispatch= hook ---------------------------------------------

    def dispatch(self, tasks: list[PointTask]) -> dict[str, dict]:
        """Execute one wave remotely; returns the rows that landed.

        The ``task_id -> payload`` map holds every task whose row landed
        via segment ingest, already stored; it is empty when no executor
        is live. A task the remote side failed, never shipped, or held
        past the deadline is absent, and the campaign runs it locally.
        """
        live = self.registry.live()
        if not tasks or not live:
            return {}
        started = time.perf_counter()
        self.waves_dispatched += 1
        shards = _shard_wave(list(tasks), len(live))
        offers = [
            self.registry.offer(self.campaign, [
                {"task_id": task.task_id, "point": task.point.to_dict()}
                for task in shard
            ])
            for shard in shards
        ]
        wave_ids = [offer.wave_id for offer in offers]
        landed = _landed(tasks, self._await_waves(wave_ids))
        tracer = get_tracer()
        if tracer.enabled:
            tracer.record(
                "remote.dispatch", time.perf_counter() - started,
                category="remote", track="remote", campaign=self.campaign,
                tasks=len(tasks), shards=len(shards), remote=len(landed))
        return landed

    # -- internals -------------------------------------------------------

    def _await_waves(self, wave_ids: list[str]) -> dict[str, dict]:
        """Drive the wave loop until every offer is done or the deadline.

        Ingests deliveries as they arrive (including stale/duplicate
        ships -- dedup absorbs them) and returns ``task_id -> row`` for
        every row that arrived in a verified segment.
        """
        deadline = self.clock() + self.wave_timeout
        rows_by_task: dict[str, dict] = {}
        while True:
            self.registry.expire_stale()
            self._ingest_pending(wave_ids, rows_by_task)
            states = self.registry.state_of(wave_ids)
            if all(state == WAVE_DONE for state in states.values()):
                break
            if self.clock() >= deadline:
                break
            if not any(state == WAVE_LEASED for state in states.values()) \
                    and not self.registry.live():
                # Nobody holds a lease and nobody is alive to claim one:
                # waiting out the full deadline would just stall the
                # campaign, so take the wave back for the local path now.
                break
            self.registry.wait(self.poll)
        # Final drain: a ship may have raced the loop exit.
        self._ingest_pending(wave_ids, rows_by_task)
        for wave_id in wave_ids:
            if self.registry.take_back(wave_id) is not None:
                self.waves_local += 1
            else:
                self.registry.forget(wave_id)
        return rows_by_task

    def _ingest_pending(self, wave_ids: list[str],
                        rows_by_task: dict[str, dict]) -> None:
        """Drain queued deliveries, ingest them, and fold rows per task."""
        for _, manifest, rows in self.registry.drain_deliveries(wave_ids):
            try:
                self.ingestor.ingest(manifest, rows)
            except SegmentError:
                # A corrupt shipment never lands anything; the wave will
                # be reassigned or reclaimed, so correctness is kept --
                # we only count the rejection for observability.
                self.rejected_segments += 1
                continue
            for row in rows:
                task_id = row.get("task_id")
                if isinstance(task_id, str):
                    rows_by_task.setdefault(task_id, dict(row))

    def counters(self) -> dict[str, Any]:
        """Per-campaign dispatch/ingest counters (merged into /metrics)."""
        report: IngestReport = self.ingestor.report
        return {
            "waves_dispatched": self.waves_dispatched,
            "waves_reclaimed_local": self.waves_local,
            "segments_rejected": self.rejected_segments,
            **{f"ingest_{k}": v for k, v in report.to_dict().items()},
        }


def _landed(tasks: list[PointTask],
            remote_rows: dict[str, dict]) -> dict[str, dict]:
    """The payloads of ``tasks`` whose remote row landed as storable."""
    landed: dict[str, dict] = {}
    for task in tasks:
        row = remote_rows.get(task.task_id)
        result = (row or {}).get("result") or {}
        if row is not None and result.get("status") in _REMOTE_TERMINAL:
            landed[task.task_id] = {
                "status": result["status"],
                "seconds": result.get("seconds"),
                "error": result.get("error"),
                "wall_ms": row.get("wall_ms"),
                "attempts": 1,
            }
    return landed
