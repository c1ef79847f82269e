"""Coordinator dispatch: remote rows, reassignment, and what it leaves local.

These tests drive the coordinator against an in-process registry with a
scripted "executor" thread -- no HTTP -- so each degradation rung is
exercised in isolation. ``dispatch`` returns only the rows that landed
through segment ingest; every other task is absent and left to the
campaign's own local path. The full wire path lives in
``test_executor_e2e.py``.
"""

from __future__ import annotations

import threading

import pytest

from repro.campaign.plan import PointTask
from repro.campaign.spec import PointSpec
from repro.campaign.store import ResultStore
from repro.remote.coordinator import RemoteCoordinator
from repro.remote.registry import ExecutorRegistry
from repro.remote.segment import SegmentManifest, result_row, rows_checksum


def _task(i: int) -> PointTask:
    point = PointSpec(machine="A", backend="GCC-TBB", case="reduce",
                      size_exp=8 + i, threads=2)
    return PointTask(task_id=f"t{i}", point=point, kind="measure")


def _segment_for(doc: dict, *,
                 status: str = "done") -> tuple[SegmentManifest, list[dict]]:
    rows = [
        result_row(p["task_id"], p["point"],
                   {"status": status, "seconds": 0.5, "error": None},
                   wall_ms=1.0)
        for p in doc["payloads"]
    ]
    manifest = SegmentManifest(
        segment=f"{doc['wave']}-seg", executor="ex-1", epoch=doc["epoch"],
        wave=doc["wave"], rows=len(rows), size=0,
        checksum=rows_checksum(rows))
    return manifest, rows


def _serve_once(registry: ExecutorRegistry, eid: str, *,
                status: str = "done"):
    """A background 'executor': claim waves and ship them until stopped."""
    stop = threading.Event()

    def loop() -> None:
        while not stop.is_set():
            doc = registry.claim(eid)
            if doc is None:
                registry.wait(0.01)
                continue
            manifest, rows = _segment_for(doc, status=status)
            registry.deliver(eid, doc["wave"], doc["epoch"], manifest, rows)

    thread = threading.Thread(target=loop, daemon=True)
    thread.start()
    return thread, stop


@pytest.fixture
def registry():
    return ExecutorRegistry(lease_ttl=5.0, executor_ttl=10.0)


def _coordinator(registry, tmp_path, **kwargs) -> RemoteCoordinator:
    return RemoteCoordinator(
        registry, store=ResultStore(tmp_path / "cache"), campaign="c",
        ledger_path=tmp_path / "ingest.jsonl", poll=0.01, **kwargs)


def test_no_live_executors_means_dispatch_declines(registry, tmp_path):
    coordinator = _coordinator(registry, tmp_path)
    assert coordinator.dispatch([_task(0)]) == {}
    assert coordinator.dispatch([]) == {}
    assert coordinator.counters()["waves_dispatched"] == 0


def test_remote_rows_come_back_persisted(registry, tmp_path):
    eid = registry.register("host", 1)["id"]
    coordinator = _coordinator(registry, tmp_path)
    tasks = [_task(i) for i in range(3)]
    thread, stop = _serve_once(registry, eid)
    payloads = coordinator.dispatch(tasks)
    stop.set()
    thread.join(timeout=5)
    assert set(payloads) == {"t0", "t1", "t2"}  # every row landed
    for payload in payloads.values():
        assert payload["status"] == "done"
        assert payload["seconds"] == 0.5
    # the rows really landed in the store at ingest time
    store = coordinator.ingestor.store
    for task in tasks:
        assert store.get(task.point)["result"]["seconds"] == 0.5
    assert coordinator.counters()["ingest_ingested"] == 3


def test_wave_deadline_reclaims_for_local_execution(registry, tmp_path):
    registry.register("host", 1)  # live but never claims
    coordinator = _coordinator(registry, tmp_path, wave_timeout=0.1)
    tasks = [_task(0)]
    assert coordinator.dispatch(tasks) == {}  # left to the local path
    assert coordinator.waves_local >= 1


def test_dead_fleet_exits_before_the_deadline(registry, tmp_path):
    clock = [0.0]
    registry_dead = ExecutorRegistry(
        lease_ttl=5.0, executor_ttl=10.0, clock=lambda: clock[0])
    registry_dead.register("host", 1)
    clock[0] = 60.0  # fleet lapsed after the liveness probe in dispatch()
    coordinator = RemoteCoordinator(
        registry_dead, store=ResultStore(tmp_path / "cache"), campaign="c",
        ledger_path=tmp_path / "ingest.jsonl", poll=0.01,
        wave_timeout=3600.0, clock=lambda: clock[0])
    # live() is empty by dispatch time -> decline, not a one-hour stall
    assert coordinator.dispatch([_task(0)]) == {}


def test_remote_failure_is_retried_locally(registry, tmp_path):
    eid = registry.register("host", 1)["id"]
    coordinator = _coordinator(registry, tmp_path)
    tasks = [_task(0)]
    thread, stop = _serve_once(registry, eid, status="failed")
    payloads = coordinator.dispatch(tasks)
    stop.set()
    thread.join(timeout=5)
    # the failed row was not ingested, so the task is absent: the
    # campaign's own local path retries it (test_dispatch_seam.py)
    assert "t0" not in payloads
    assert coordinator.counters()["ingest_skipped"] == 1
    assert coordinator.ingestor.store.get(tasks[0].point) is None


def test_counters_shape(registry, tmp_path):
    coordinator = _coordinator(registry, tmp_path)
    counters = coordinator.counters()
    assert counters["waves_dispatched"] == 0
    assert counters["ingest_segments"] == 0
    assert "by_executor" not in counters
