"""Daemon end-to-end: the HTTP surface against a live background service.

Each test boots a real :class:`ServiceDaemon` on a loopback port (via
``start_background``) and talks to it with the stdlib client -- the same
wire path production traffic takes. Specs stay tiny (one or two model
points) so the suite runs in seconds; the *slow* campaign used for
quota-timing tests runs real benchmark repetitions (``mode=run``) to
hold its admission slot for a deterministic window.
"""

from __future__ import annotations

import builtins
import io
import json
import os
import socket
import threading
from http.client import HTTPConnection

import pytest

from repro.campaign.executor import run_campaign
from repro.campaign.spec import CampaignSpec, canonical_json
from repro.errors import QuotaExceededError, ServiceError
from repro.service import QuotaPolicy, ServiceClient, start_background

SPEC = {
    "name": "daemon-e2e",
    "machines": ["A"],
    "backends": ["GCC-TBB"],
    "cases": ["reduce", "transform"],
    "size_exps": [8],
    "threads": [2],
}

#: Real repetitions (~0.5s wall) so the campaign holds its slot while a
#: second submission races it.
SLOW_SPEC = {
    "name": "daemon-slow",
    "machines": ["A"],
    "backends": ["GCC-TBB"],
    "cases": ["sort", "stable_sort", "merge"],
    "size_exps": [17, 18],
    "threads": [2, 4],
    "modes": ["run"],
}


@pytest.fixture
def service(tmp_path):
    with start_background(tmp_path / "svc", concurrent=2) as svc:
        yield svc


def test_healthz_reports_live(service):
    doc = ServiceClient(service.base_url).healthz()
    assert doc["status"] == "ok"
    assert doc["draining"] is False


def test_submit_run_results_roundtrip(service, tmp_path):
    client = ServiceClient(service.base_url)
    doc = client.submit(SPEC)
    assert doc["_status"] == 202 and doc["state"] == "queued"
    done = client.wait(doc["id"], timeout=60)
    assert done["state"] == "complete"
    assert done["progress"].get("done") == done["points"]
    rows = client.results(doc["id"])["rows"]
    assert len(rows) == done["points"]
    assert all(row["status"] == "done" for row in rows)
    # the service computed exactly what a direct run computes
    direct = run_campaign(CampaignSpec.from_dict(SPEC))
    by_task = {r["task_id"]: r["seconds"] for r in rows}
    for tid, result in direct.results.items():
        assert by_task[tid] == result.seconds


def test_duplicate_submission_returns_the_existing_campaign(service):
    client = ServiceClient(service.base_url)
    first = client.submit(SPEC)
    dup = client.submit(SPEC)
    assert dup["_status"] == 200
    assert dup["deduped"] is True
    assert dup["id"] == first["id"]
    metrics = client.metrics()
    assert metrics["service_deduped"] == 1


def test_warm_grid_under_a_new_name_hits_the_shared_cache(service):
    client = ServiceClient(service.base_url)
    cold = client.submit(SPEC)
    client.wait(cold["id"], timeout=60)
    warm_spec = dict(SPEC, name="daemon-e2e-warm")
    warm = client.submit(warm_spec)
    assert warm["id"] != cold["id"]  # a different campaign...
    done = client.wait(warm["id"], timeout=60)
    assert done["state"] == "complete"
    assert f"{done['points']} cache hits" in done["stats"]
    assert "0 executed" in done["stats"]  # ...served entirely warm


def test_events_stream_is_offset_resumable(service):
    client = ServiceClient(service.base_url)
    doc = client.submit(SPEC)
    client.wait(doc["id"], timeout=60)
    full = client.events(doc["id"])
    assert len(full["events"]) == doc["points"]
    # resuming from next_offset yields nothing new...
    tail = client.events(doc["id"], offset=full["next_offset"])
    assert tail["events"] == []
    # ...and an offset mid-stream yields only the remainder
    partial = client.events(doc["id"], offset=0)
    assert partial["events"] == full["events"]


def test_results_of_a_running_campaign_are_409(service):
    client = ServiceClient(service.base_url)
    doc = client.submit(SLOW_SPEC)
    with pytest.raises(ServiceError, match="HTTP 409"):
        client.results(doc["id"])
    client.wait(doc["id"], timeout=120)
    assert len(client.results(doc["id"])["rows"]) == doc["points"]


def test_unknown_campaign_is_404(service):
    client = ServiceClient(service.base_url)
    with pytest.raises(ServiceError, match="HTTP 404"):
        client.status("deadbeefdeadbeef")
    with pytest.raises(ServiceError, match="HTTP 404"):
        client.events("deadbeefdeadbeef")


def test_malformed_body_is_400(service):
    # An integer past json's 4,300-digit limit is unparseable too, and
    # an empty body is no spec at all.
    for body in (b"not json", b'{"name": ' + b"9" * 5000 + b"}", b""):
        conn = HTTPConnection("127.0.0.1",
                              ServiceClient(service.base_url).port)
        conn.request("POST", "/campaigns", body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 400, body[:20]
        assert "body is not JSON" in json.loads(response.read())["error"]
        conn.close()


def test_invalid_spec_is_400(service):
    client = ServiceClient(service.base_url)
    with pytest.raises(ServiceError, match="HTTP 400"):
        client.submit({"name": "bad"})  # missing required grid fields


def test_wrong_method_is_405_and_unknown_route_404(service):
    client = ServiceClient(service.base_url)
    conn = HTTPConnection("127.0.0.1", client.port)
    conn.request("DELETE", "/campaigns")
    assert conn.getresponse().status == 405
    conn.close()
    conn = HTTPConnection("127.0.0.1", client.port)
    conn.request("GET", "/nope")
    assert conn.getresponse().status == 404
    conn.close()


def test_every_response_carries_handle_time(service):
    conn = HTTPConnection("127.0.0.1", ServiceClient(service.base_url).port)
    conn.request("GET", "/healthz")
    response = conn.getresponse()
    assert float(response.getheader("X-Handle-Ms")) >= 0.0
    conn.close()


def test_metrics_expose_the_counters(service):
    client = ServiceClient(service.base_url)
    client.submit(SPEC)
    metrics = client.metrics()
    for name in ("service_requests", "service_submitted", "service_admitted",
                 "service_rejected", "service_inflight", "service_draining"):
        assert name in metrics


def test_oversized_campaign_is_rejected_413(tmp_path):
    policy = QuotaPolicy(max_points_per_campaign=2)
    with start_background(tmp_path / "svc", policy=policy) as svc:
        client = ServiceClient(svc.base_url)
        with pytest.raises(ServiceError, match="HTTP 413"):
            client.submit(SPEC)  # plans 3 points (2 measures + baseline)
        assert client.metrics()["service_rejected_points"] == 1


def test_per_key_quota_answers_429_with_retry_after(tmp_path):
    policy = QuotaPolicy(max_inflight_per_key=1, retry_after=0.05)
    with start_background(tmp_path / "svc", policy=policy,
                          concurrent=1) as svc:
        client = ServiceClient(svc.base_url, api_key="greedy")
        client.submit(SLOW_SPEC)  # holds the key's only slot for ~0.5s
        with pytest.raises(QuotaExceededError) as err:
            client.submit(SPEC)
        assert err.value.retry_after == pytest.approx(0.05)
        # a different key is admitted immediately
        other = ServiceClient(svc.base_url, api_key="patient")
        assert other.submit(SPEC)["_status"] == 202
        # and the greedy key recovers once its campaign finishes
        doc = client.submit(SPEC, max_attempts=100)
        assert doc["_status"] in (200, 202)


def test_submit_retries_absorb_the_quota_rejection(tmp_path):
    policy = QuotaPolicy(max_inflight_per_key=1, retry_after=0.05)
    with start_background(tmp_path / "svc", policy=policy,
                          concurrent=1) as svc:
        client = ServiceClient(svc.base_url, api_key="greedy")
        client.submit(SLOW_SPEC)
        doc = client.submit(SPEC, max_attempts=100)  # backs off, then lands
        assert doc["_status"] == 202
        assert client.wait(doc["id"], timeout=120)["state"] == "complete"


def test_drain_rejects_new_submissions_with_503(tmp_path):
    with start_background(tmp_path / "svc") as svc:
        client = ServiceClient(svc.base_url)
        before = client.submit(SPEC)
        client.wait(before["id"], timeout=60)
        # ask the daemon to drain, then race one more submission in
        # before the listener closes; either answer is protocol-correct:
        # a 503 + Retry-After or a refused connection
        svc.daemon.request_stop()
        try:
            doc = client.submit(dict(SPEC, name="late"))
        except QuotaExceededError as exc:
            assert exc.retry_after > 0
        except ServiceError:
            pass  # listener already closed
        else:
            assert doc.get("deduped") in (False, True)
    # context exit: drain completed, thread joined


def test_a_connection_accepted_as_the_daemon_stops_is_answered(tmp_path):
    # The loop is held while a client connects and sends a submission
    # and the stop is requested, so on release the loop runs the stop
    # first and accepts the connection right after it: the exact
    # interleaving in which a daemon used to return with the accepted
    # connection's set-up still pending, leaving the client unanswered
    # until its own timeout.
    body = json.dumps(dict(SPEC, name="late")).encode()
    with start_background(tmp_path / "svc") as svc:
        held, release = threading.Event(), threading.Event()

        def hold() -> None:
            held.set()
            release.wait(10)

        svc.daemon._loop.call_soon_threadsafe(hold)
        assert held.wait(10)
        try:
            sock = socket.create_connection(svc.daemon.address, timeout=10)
            sock.sendall(b"POST /campaigns HTTP/1.1\r\nHost: svc\r\n"
                         b"Content-Length: %d\r\n\r\n" % len(body) + body)
            svc.daemon.request_stop()
        finally:
            release.set()
    with sock:
        reply = b"".join(iter(lambda: sock.recv(65536), b""))
    assert reply.startswith(b"HTTP/1.1 503 "), reply[:80]
    assert b"Retry-After:" in reply and b"service is draining" in reply


def test_service_json_is_published_and_removed(tmp_path):
    root = tmp_path / "svc"
    with start_background(root) as svc:
        meta = json.loads((root / "service.json").read_text())
        assert svc.base_url.endswith(str(meta["port"]))
        assert meta["resumed"] == 0
    assert not (root / "service.json").exists()


def test_service_json_appears_whole_through_a_rename(tmp_path, monkeypatch):
    # Clients read service.json as soon as it exists, so the daemon must
    # never create it empty and fill it in place: the final path is never
    # opened for writing and appears only through os.replace.
    root = tmp_path / "svc"
    target = str(root / "service.json")
    written, published = [], []
    real_os_open, real_io_open, real_replace = os.open, io.open, os.replace

    def is_target(path) -> bool:
        return not isinstance(path, int) and \
            os.path.abspath(os.fspath(path)) == target

    def spy_os_open(path, flags, *args, **kwargs):
        if is_target(path) and flags & (os.O_WRONLY | os.O_RDWR | os.O_CREAT):
            written.append(flags)
        return real_os_open(path, flags, *args, **kwargs)

    def spy_io_open(file, mode="r", *args, **kwargs):
        if is_target(file) and set(mode) & set("wax+"):
            written.append(mode)
        return real_io_open(file, mode, *args, **kwargs)

    def spy_replace(src, dst, *args, **kwargs):
        real_replace(src, dst, *args, **kwargs)
        if is_target(dst):
            with real_io_open(target, "rb") as fh:
                published.append(fh.read())

    monkeypatch.setattr(os, "open", spy_os_open)
    monkeypatch.setattr(io, "open", spy_io_open)
    monkeypatch.setattr(builtins, "open", spy_io_open)
    monkeypatch.setattr(os, "replace", spy_replace)
    with start_background(root) as svc:
        host, port = svc.daemon.address
        assert published == [(canonical_json(
            {"host": host, "port": port, "resumed": 0}) + "\n").encode()]
    assert written == []
    assert not os.path.exists(target)


def test_scheduler_rejects_while_draining_without_a_loop(tmp_path):
    # unit-level pin for the drain rejection the HTTP race above can
    # only observe opportunistically
    from repro.service import CampaignService

    service = CampaignService(tmp_path / "svc")
    service._draining.set()
    record, deduped, rejection = service.submit(SPEC)
    assert record is None and not deduped
    assert rejection is not None
    assert rejection.status == 503 and rejection.retryable


def test_store_endpoint_reports_index_backed_stats(service):
    client = ServiceClient(service.base_url)
    empty = client.store()
    assert empty["objects"] == 0
    assert empty["indexed"] is True  # fresh service roots hold a database
    assert empty["quarantined"] == 0 and "shards" not in empty

    doc = client.submit(SPEC)
    client.wait(doc["id"], timeout=60)
    stats = client.store()
    assert stats["objects"] == client.status(doc["id"])["points"]

    metrics = client.metrics()
    assert metrics["service_store_objects"] == stats["objects"]
    assert metrics["service_store_indexed"] == 1.0


def test_open_descriptors_stay_flat_across_fifty_campaigns(service):
    # Every campaign builds store handles of its own; they share the
    # process's one connection to the store, so no descriptor of the
    # store's files piles up (sockets come and go with requests).
    client = ServiceClient(service.base_url)

    def store_fds() -> int:
        targets = []
        for fd in os.listdir("/proc/self/fd"):
            try:
                targets.append(os.readlink(f"/proc/self/fd/{fd}"))
            except OSError:  # closed since the listing
                pass
        return sum("cache.db" in target for target in targets)

    def campaign(i: int) -> None:
        doc = client.submit({**SPEC, "name": f"fds-{i}", "cases": ["reduce"]})
        assert client.wait(doc["id"], timeout=60)["state"] == "complete"

    for i in range(5):
        campaign(i)
    before = store_fds()
    assert before > 0  # the daemon's connection is open
    for i in range(5, 55):
        campaign(i)
    assert store_fds() == before
