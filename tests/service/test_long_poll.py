"""Long-poll contract: parked claims and status waits on the daemon's loop.

``POST /executors/{id}/lease?wait=S`` parks an idle claim until a wave
becomes claimable and ``GET /campaigns/{id}?wait=S`` parks until the
record's next state change. Each parked request is a coroutine on the
daemon's event loop, so these tests park many at once over raw sockets,
check that the loop stays responsive, and check how every park ends:
woken, timed out, hung up or drained.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.service import ServiceClient, start_background
from repro.service import scheduler as scheduler_mod

SPEC = {
    "name": "long-poll",
    "machines": ["A"],
    "backends": ["GCC-TBB"],
    "cases": ["reduce"],
    "size_exps": [8],
    "threads": [2],
}

PAYLOAD = [{"task_id": "t-1", "point": {"machine": "A"}}]


def _until(predicate, timeout: float = 5.0) -> None:
    """Wait until ``predicate()`` holds (fails the test after ``timeout``)."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            pytest.fail("condition not reached in time")
        time.sleep(0.002)


def _open(svc, method: str, path: str) -> socket.socket:
    """Send one bodiless request on a raw socket; the reply is read later."""
    sock = socket.create_connection(svc.daemon.address, timeout=10)
    sock.sendall(f"{method} {path} HTTP/1.1\r\nHost: svc\r\n"
                 f"Content-Length: 0\r\n\r\n".encode())
    return sock


def _reply(sock: socket.socket) -> dict:
    """Read a whole ``Connection: close`` reply; returns its JSON body."""
    with sock:
        raw = b"".join(iter(lambda: sock.recv(65536), b""))
    head, _, body = raw.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 "), head
    return json.loads(body)


def _parked(svc, kind: str) -> int:
    return svc.daemon.parked[kind]


@pytest.fixture
def held_campaigns(monkeypatch):
    """Campaign runs block (state ``running``) until a drain starts."""
    real = scheduler_mod.run_campaign

    def held(spec, **kwargs):
        while not kwargs["should_stop"]():
            time.sleep(0.005)
        return real(spec, **kwargs)

    monkeypatch.setattr(scheduler_mod, "run_campaign", held)


def test_an_offer_wakes_a_parked_claim_within_50ms(tmp_path):
    with start_background(tmp_path / "svc") as svc:
        client = ServiceClient(svc.base_url)
        eid = client.register_executor("parked", 1)["id"]
        got: list = []
        claimer = threading.Thread(
            target=lambda: got.append(
                (client.claim_wave(eid, wait=5.0), time.perf_counter())))
        claimer.start()
        _until(lambda: _parked(svc, "claims") == 1)
        offered = time.perf_counter()
        wave = svc.daemon.service.registry.offer("campaign", PAYLOAD)
        claimer.join(5)
        (offer, answered), = got
        assert offer["wave"] == wave.wave_id
        assert answered - offered < 0.05


def test_a_parked_claim_answers_null_when_its_window_ends(tmp_path):
    with start_background(tmp_path / "svc") as svc:
        client = ServiceClient(svc.base_url)
        eid = client.register_executor("idle", 1)["id"]
        t0 = time.perf_counter()
        assert client.claim_wave(eid, wait=0.2) is None
        assert 0.2 <= time.perf_counter() - t0 < 2.0
        assert _parked(svc, "claims") == 0


def test_a_hung_up_claim_is_not_granted_the_next_wave(tmp_path):
    with start_background(tmp_path / "svc") as svc:
        client = ServiceClient(svc.base_url)
        gone = client.register_executor("gone", 1)["id"]
        live = client.register_executor("live", 2)["id"]
        sock = _open(svc, "POST", f"/executors/{gone}/lease?wait=5")
        _until(lambda: _parked(svc, "claims") == 1)
        sock.close()
        _until(lambda: _parked(svc, "claims") == 0)
        registry = svc.daemon.service.registry
        wave = registry.offer("campaign", PAYLOAD)
        assert registry.state_of([wave.wave_id]) == {wave.wave_id: "pending"}
        offer = client.claim_wave(live, wait=1.0)
        assert offer["wave"] == wave.wave_id
    # a runner thread's wake that races the loop's close does nothing
    svc.daemon._claimable_soon()


def test_healthz_answers_while_32_requests_park_and_a_stop_answers_them(
        tmp_path, held_campaigns):
    svc = start_background(tmp_path / "svc")
    try:
        client = ServiceClient(svc.base_url)
        cid = client.submit(SPEC)["id"]
        _until(lambda: client.status(cid)["state"] == "running")
        claims = [
            _open(svc, "POST", f"/executors/"
                  f"{client.register_executor(f'h{i}', i)['id']}/lease?wait=30")
            for i in range(16)
        ]
        waits = [_open(svc, "GET", f"/campaigns/{cid}?wait=30")
                 for _ in range(16)]
        _until(lambda: _parked(svc, "claims") == 16
               and _parked(svc, "status") == 16)
        t0 = time.perf_counter()
        assert client.healthz()["status"] == "ok"
        assert time.perf_counter() - t0 < 0.1
        svc.daemon.request_stop()
        assert all(_reply(sock) == {"wave": None} for sock in claims)
        assert all(_reply(sock)["id"] == cid for sock in waits)
    finally:
        t0 = time.perf_counter()
        svc.stop(timeout=2.0)
    assert time.perf_counter() - t0 < 2.0


def test_a_status_wait_answers_at_the_state_change(tmp_path, monkeypatch):
    gate = threading.Event()
    real = scheduler_mod.run_campaign

    def gated(spec, **kwargs):
        gate.wait(10)
        return real(spec, **kwargs)

    monkeypatch.setattr(scheduler_mod, "run_campaign", gated)
    with start_background(tmp_path / "svc") as svc:
        client = ServiceClient(svc.base_url)
        cid = client.submit(SPEC)["id"]
        _until(lambda: client.status(cid)["state"] == "running")
        sock = _open(svc, "GET", f"/campaigns/{cid}?wait=30")
        _until(lambda: _parked(svc, "status") == 1)
        gate.set()
        t0 = time.perf_counter()
        assert _reply(sock)["state"] == "complete"
        assert time.perf_counter() - t0 < 2.0


def test_a_status_wait_on_a_finished_campaign_returns_at_once(tmp_path):
    with start_background(tmp_path / "svc") as svc:
        client = ServiceClient(svc.base_url)
        cid = client.submit(SPEC)["id"]
        assert client.wait(cid, timeout=60)["state"] == "complete"
        t0 = time.perf_counter()
        assert client.status(cid, wait=30.0)["state"] == "complete"
        assert time.perf_counter() - t0 < 0.5
        assert _parked(svc, "status") == 0


def test_a_bad_query_parameter_is_400(tmp_path):
    with start_background(tmp_path / "svc") as svc:
        for path in ("/campaigns/abc?wait=-1", "/campaigns/abc?wait=nan",
                     "/campaigns/abc?wait=soon", "/campaigns/abc/events?offset=x"):
            sock = _open(svc, "GET", path)
            with sock:
                raw = b"".join(iter(lambda: sock.recv(65536), b""))
            assert raw.startswith(b"HTTP/1.1 400 "), path
