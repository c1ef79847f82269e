"""Executor end-to-end over HTTP: the full claim/compute/seal/ship wire.

A real daemon on a loopback port, real :class:`RemoteExecutor` instances
on background threads, and the bit-identity oracle: whatever the fleet
and the chaos plan, the finished campaign's result rows must serialize
to exactly the bytes a single-process fault-free ``run_campaign``
produces.
"""

from __future__ import annotations

import re
import threading
import time

import pytest

from repro.campaign.executor import run_campaign
from repro.campaign.spec import CampaignSpec, canonical_json
from repro.faults import FaultPlan
from repro.remote.executor import RemoteExecutor
from repro.service import ServiceClient, start_background

SPEC = {
    "name": "remote-e2e",
    "machines": ["A"],
    "backends": ["GCC-SEQ", "GCC-TBB"],
    "cases": ["reduce", "transform", "sort"],
    "size_exps": [8, 9],
    "threads": [2, 4],
}


def _control_rows() -> list[dict]:
    """The single-process fault-free oracle, shaped like /results rows."""
    outcome = run_campaign(CampaignSpec.from_dict(SPEC))
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
    return rows


def _fleet(base_url: str, n: int, *, faults: FaultPlan | None = None):
    """Register ``n`` executor threads; returns (executors, threads, stop)."""
    stop = threading.Event()
    executors, threads = [], []
    for i in range(n):
        ex = RemoteExecutor(base_url, host=f"e2e-{i}", faults=faults)
        ex.register()  # registered before any submission: no startup race
        thread = threading.Thread(
            target=ex.run,
            kwargs={"max_idle": 30.0, "should_stop": stop.is_set},
            daemon=True)
        thread.start()
        executors.append(ex)
        threads.append(thread)
    return executors, threads, stop


def _finish(threads, stop):
    stop.set()
    for thread in threads:
        thread.join(timeout=10)


def test_fleet_runs_the_campaign_and_matches_local_bytes(tmp_path):
    with start_background(tmp_path / "svc", concurrent=2) as svc:
        executors, threads, stop = _fleet(svc.base_url, 2)
        try:
            client = ServiceClient(svc.base_url)
            doc = client.submit(SPEC)
            done = client.wait(doc["id"], timeout=120)
            assert done["state"] == "complete"
            assert "remote" in done["stats"]
            remote_rows = client.results(doc["id"])["rows"]
        finally:
            _finish(threads, stop)
    assert canonical_json(remote_rows) == canonical_json(_control_rows())
    assert sum(ex.waves for ex in executors) >= 1
    # every executed task ran remotely (the rest were cache hits --
    # GCC-SEQ measures share their baselines' points)
    executed = int(re.search(r"(\d+) executed", done["stats"]).group(1))
    assert f"({executed} remote)" in done["stats"]
    assert sum(ex.rows for ex in executors) == executed


def test_chaos_fleet_is_still_bit_identical(tmp_path):
    """Lost ships, duplicate ships and lease-expiry injection all at once.

    ``segment_lost=1.0`` drops every segment's first delivery (the
    executor re-ships); ``segment_dup_ship=1.0`` makes every executor
    ship its sealed segment twice; ``lease_expire`` fires on a claimed
    lease whenever the coordinator sweeps before the ship lands. The
    index dedup must collapse all of it to exactly-once.
    """
    service_faults = FaultPlan(seed=11, segment_lost=1.0, lease_expire=0.5)
    executor_faults = FaultPlan(seed=13, segment_dup_ship=1.0)
    with start_background(tmp_path / "svc", concurrent=2,
                          faults=service_faults) as svc:
        executors, threads, stop = _fleet(
            svc.base_url, 3, faults=executor_faults)
        try:
            client = ServiceClient(svc.base_url)
            doc = client.submit(SPEC)
            done = client.wait(doc["id"], timeout=120)
            assert done["state"] == "complete"
            remote_rows = client.results(doc["id"])["rows"]
            metrics = client.metrics()
        finally:
            _finish(threads, stop)
    assert canonical_json(remote_rows) == canonical_json(_control_rows())
    # every chaos path actually ran
    assert metrics["service_remote_lost_ships"] >= 1
    assert metrics["service_remote_duplicate_ships"] \
        + metrics["service_remote_stale_ships"] >= 1
    assert sum(ex.reships for ex in executors) >= 1
    assert sum(ex.dup_ships for ex in executors) >= 1
    # and ingest stayed exactly-once: every unique point landed one row
    assert metrics["service_remote_ingest_deduped"] >= 1


def _recorded_run(service_root):
    """Run SPEC on a fresh daemon with one executor.

    Returns the campaign id, the task ids of every claim keyed by
    (wave, epoch), every ship's manifest with its rows' task ids, and
    the campaign's result rows.
    """
    claims, ships = {}, []
    with start_background(service_root, concurrent=1) as svc:
        ex = RemoteExecutor(svc.base_url, host="restart")
        claim, ship = ex.client.claim_wave, ex.client.ship_segment

        def recording_claim(eid, **kwargs):
            offer = claim(eid, **kwargs)
            if offer is not None:
                claims[offer["wave"], offer["epoch"]] = [
                    p["task_id"] for p in offer["payloads"]]
            return offer

        def recording_ship(eid, manifest, rows):
            ships.append((dict(manifest), [row["task_id"] for row in rows]))
            return ship(eid, manifest, rows)

        ex.client.claim_wave = recording_claim
        ex.client.ship_segment = recording_ship
        ex.register()
        stop = threading.Event()
        thread = threading.Thread(
            target=ex.run,
            kwargs={"max_idle": 30.0, "should_stop": stop.is_set},
            daemon=True)
        thread.start()
        try:
            client = ServiceClient(svc.base_url)
            doc = client.submit(SPEC)
            assert client.wait(doc["id"], timeout=120)["state"] == "complete"
            rows = client.results(doc["id"])["rows"]
        finally:
            _finish([thread], stop)
    return doc["id"], claims, ships, rows


def test_restarted_daemon_reusing_wave_ids_ships_fresh_segments(tmp_path):
    """Wave ids and epochs restart with the daemon; segments must not.

    Two daemons on separate service roots run the same spec one after
    the other, so both dispatch the same campaign's ``.../w1`` at epoch
    1. Every ship of the second run must carry exactly the wave it
    claimed -- no rows left over from the first run -- and its campaign
    must equal a local fault-free run.
    """
    first_id, first_claims, _, _ = _recorded_run(tmp_path / "svc-1")
    cid, claims, ships, rows = _recorded_run(tmp_path / "svc-2")
    assert cid == first_id  # content-derived: the same campaign id
    assert (f"{cid}/w1", 1) in first_claims
    assert (f"{cid}/w1", 1) in claims  # the same wave at the same epoch
    assert ships
    for manifest, task_ids in ships:
        claimed = claims[manifest["wave"], manifest["epoch"]]
        assert manifest["rows"] == len(claimed) == len(task_ids)
        assert task_ids == claimed
    assert canonical_json(rows) == canonical_json(_control_rows())


def test_registry_surface_over_http(tmp_path):
    with start_background(tmp_path / "svc") as svc:
        client = ServiceClient(svc.base_url)
        ex = RemoteExecutor(svc.base_url, host="solo")
        ex.register()
        doc = client.executors()
        assert [e["host"] for e in doc["executors"]] == ["solo"]
        assert doc["counters"]["executors_live"] == 1
        time.sleep(0.2)
        idle = client.executors()["executors"][0]["idle_s"]
        assert client.claim_wave(ex.id) is None  # nothing pending
        # the claim is the heartbeat: it refreshed the executor's liveness
        assert client.executors()["executors"][0]["idle_s"] < 0.2 <= idle


def test_warm_cache_serves_a_second_fleet_campaign_without_executors(tmp_path):
    """Remote-ingested rows are first-class cache entries."""
    with start_background(tmp_path / "svc", concurrent=2) as svc:
        client = ServiceClient(svc.base_url)
        executors, threads, stop = _fleet(svc.base_url, 2)
        try:
            cold = client.submit(SPEC)
            client.wait(cold["id"], timeout=120)
        finally:
            _finish(threads, stop)
        # no executors left: the warm re-run must be served by the cache
        warm = client.submit(dict(SPEC, name="remote-e2e-warm"))
        done = client.wait(warm["id"], timeout=120)
        assert done["state"] == "complete"
        assert f"{done['points']} cache hits" in done["stats"]
        assert "0 executed" in done["stats"]


def test_finished_campaigns_release_their_coordinators(tmp_path, monkeypatch):
    """Coordinators are dropped once a run ends; /metrics keeps their totals."""
    from repro.service import scheduler as scheduler_mod

    built = []
    real = scheduler_mod.RemoteCoordinator

    def tracking(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(scheduler_mod, "RemoteCoordinator", tracking)
    with start_background(tmp_path / "svc", concurrent=2) as svc:
        executors, threads, stop = _fleet(svc.base_url, 1)
        try:
            client = ServiceClient(svc.base_url)
            for name, exps in (("remote-a", [8]), ("remote-b", [9])):
                doc = client.submit(dict(SPEC, name=name, size_exps=exps))
                assert client.wait(doc["id"], timeout=120)["state"] == "complete"
            metrics = client.metrics()
            live = dict(svc.daemon.service._coordinators)
        finally:
            _finish(threads, stop)
    assert live == {}
    assert len(built) == 2
    expected: dict[str, int] = {}
    for coordinator in built:
        for name, value in coordinator.counters().items():
            expected[name] = expected.get(name, 0) + int(value)
    assert expected["waves_dispatched"] >= 2  # both runs went remote
    for name, value in expected.items():
        assert metrics[f"service_remote_{name}"] == value, name


def test_an_idle_executor_parks_instead_of_polling(tmp_path):
    """One parked claim covers a whole idle window, and max_idle is exact."""
    with start_background(tmp_path / "svc") as svc:
        ex = RemoteExecutor(svc.base_url, host="idle")
        t0 = time.perf_counter()
        summary = ex.run(max_idle=0.3)
        assert 0.3 <= time.perf_counter() - t0 < 2.0
        assert summary["waves"] == 0
        assert ex.client.requests == 2  # register, then one parked claim


def test_should_stop_hangs_up_a_parked_claim(tmp_path):
    with start_background(tmp_path / "svc") as svc:
        _, threads, stop = _fleet(svc.base_url, 1)
        deadline = time.monotonic() + 5.0
        while svc.daemon.parked["claims"] < 1:
            assert time.monotonic() < deadline, "the claim never parked"
            time.sleep(0.005)
        t0 = time.perf_counter()
        _finish(threads, stop)
        assert time.perf_counter() - t0 < 1.0
        assert not threads[0].is_alive()
        while svc.daemon.parked["claims"]:
            assert time.monotonic() < deadline, "the hang-up went unseen"
            time.sleep(0.005)


def test_a_drain_with_a_remote_wave_in_flight_ends_the_campaign_interrupted(
        tmp_path, monkeypatch):
    """The daemon stops while an executor holds a wave: the coordinator
    stops waiting at once (not after the executor TTL), the campaign
    ends interrupted, the executor's failed ship ends its loop cleanly,
    and a restarted daemon completes the campaign bit-identically."""
    import repro.remote.executor as executor_mod

    claimed = threading.Event()
    real = executor_mod.execute_wave

    def slow(points):
        claimed.set()
        time.sleep(1.0)
        return real(points)

    monkeypatch.setattr(executor_mod, "execute_wave", slow)
    root = tmp_path / "svc"
    svc = start_background(root, concurrent=1)
    ex = RemoteExecutor(svc.base_url, host="slow")
    ex.register()
    summary: dict = {}
    thread = threading.Thread(
        target=lambda: summary.update(ex.run(max_idle=30.0)), daemon=True)
    thread.start()
    cid = ServiceClient(svc.base_url).submit(SPEC)["id"]
    assert claimed.wait(30)
    started = time.monotonic()
    svc.stop()
    assert time.monotonic() - started < 2.0
    assert svc.daemon.service.records[cid].state == "interrupted"
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert summary["waves"] == 0  # its ship failed; run returned anyway

    with start_background(root, concurrent=1) as again:
        client = ServiceClient(again.base_url)
        assert client.wait(cid, timeout=60)["state"] == "complete"
        rows = client.results(cid)["rows"]
    assert canonical_json(rows) == canonical_json(_control_rows())
