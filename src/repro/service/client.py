"""Stdlib-only HTTP client for the campaign service.

:class:`ServiceClient` is the blocking counterpart of the daemon: plain
``http.client`` requests, JSON in and out, no third-party dependencies.
It is what the ``pstl-service`` CLI, the quickstart example and the
tests use to talk to a daemon; the load generator keeps its own
``asyncio`` socket path because it needs thousands of requests in
flight, which a blocking client cannot express.

Error mapping mirrors the wire protocol: a retryable rejection
(429/503 with ``Retry-After``) raises
:class:`~repro.errors.QuotaExceededError` carrying the server's hint,
any other non-2xx raises :class:`~repro.errors.ServiceError`.
:meth:`ServiceClient.submit` can absorb retryable rejections itself --
honest backoff, bounded attempts -- which is the behaviour quota'd
clients are expected to implement.

Every response's ``X-Handle-Ms`` header is accumulated in
``handle_ms_total`` alongside ``wall_ms_total``, so a caller can split
observed latency into "work the server did" and "everything else"
(queueing, protocol, scheduling) without extra instrumentation.

Waiting is event-driven: :meth:`ServiceClient.wait` long-polls
``GET /campaigns/{id}?wait=S``, which the daemon answers at the
campaign's next state change, and :meth:`ServiceClient.claim_wave`
takes a ``wait`` that parks an idle claim until a wave is offered. A
long-poll's socket timeout is the client's ``timeout`` plus its park.
"""

from __future__ import annotations

import json
import select
import time
from http.client import HTTPConnection
from typing import Any, Callable, Mapping
from urllib.parse import urlsplit

from repro.errors import QuotaExceededError, ServiceError

__all__ = ["ServiceClient"]

#: States from which a campaign will not move without new input.
_TERMINAL = ("complete", "broken", "interrupted")

#: Longest park :meth:`ServiceClient.wait` asks of one status request.
STATUS_PARK_S = 10.0

#: How often a parked request with an ``abandon`` check looks at it.
ABANDON_CHECK_S = 0.02


class ServiceClient:
    """Blocking JSON client bound to one daemon base URL."""

    def __init__(self, base_url: str, *, api_key: str = "anonymous",
                 timeout: float = 30.0) -> None:
        """Point at ``base_url`` (e.g. ``http://127.0.0.1:8631``).

        ``api_key`` is sent as ``X-Api-Key`` on every request and is
        the identity quotas are enforced against.
        """
        parts = urlsplit(base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise ServiceError(f"base_url must be http://host:port, "
                               f"got {base_url!r}")
        self.host = parts.hostname
        self.port = parts.port if parts.port is not None else 80
        self.api_key = api_key
        self.timeout = timeout
        self.requests = 0
        self.wall_ms_total = 0.0
        self.handle_ms_total = 0.0

    # -- plumbing ----------------------------------------------------------

    def _request(self, method: str, path: str,
                 payload: Mapping[str, Any] | None = None, *,
                 wait: float = 0.0,
                 abandon: Callable[[], bool] | None = None) -> dict[str, Any]:
        """One round trip; returns the JSON body or raises on error.

        ``wait`` is how long the daemon may park the request; it extends
        the socket timeout. ``abandon``, checked every
        :data:`ABANDON_CHECK_S` until the answer starts, hangs up as soon
        as it returns True and raises :class:`ServiceError`.
        """
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        headers = {"X-Api-Key": self.api_key}
        if body is not None:
            headers["Content-Type"] = "application/json"
        conn = HTTPConnection(self.host, self.port, timeout=self.timeout + wait)
        t0 = time.perf_counter()
        try:
            conn.request(method, path, body=body, headers=headers)
            if abandon is not None:
                while not select.select([conn.sock], [], [], ABANDON_CHECK_S)[0]:
                    if abandon():
                        raise ServiceError(f"{method} {path} abandoned")
            response = conn.getresponse()
            raw = response.read()
            status = response.status
            handle_ms = float(response.getheader("X-Handle-Ms", "0") or "0")
            retry_after = response.getheader("Retry-After")
            content_type = response.getheader("Content-Type", "")
        except (ConnectionError, OSError) as exc:
            raise ServiceError(
                f"cannot reach service at {self.host}:{self.port}: {exc}"
            ) from None
        finally:
            conn.close()
        self.requests += 1
        self.wall_ms_total += (time.perf_counter() - t0) * 1000.0
        self.handle_ms_total += handle_ms
        if content_type.startswith("text/"):
            doc: dict[str, Any] = {"text": raw.decode("utf-8")}
        else:
            try:
                doc = json.loads(raw.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                doc = {"error": raw.decode("utf-8", "replace")}
        if 200 <= status < 300:
            doc["_status"] = status
            return doc
        message = doc.get("error", f"HTTP {status}")
        if retry_after is not None:
            raise QuotaExceededError(message, retry_after=float(retry_after))
        raise ServiceError(f"HTTP {status}: {message}")

    # -- API surface -------------------------------------------------------

    def healthz(self) -> dict[str, Any]:
        """``GET /healthz``: liveness, version and drain flag."""
        return self._request("GET", "/healthz")

    def metrics(self) -> dict[str, float]:
        """``GET /metrics`` parsed into a ``{name: value}`` dict."""
        text = self._request("GET", "/metrics")["text"]
        out: dict[str, float] = {}
        for line in text.splitlines():
            name, _, value = line.partition(" ")
            if name and value:
                out[name] = float(value)
        return out

    def store(self) -> dict[str, Any]:
        """``GET /store``: shared-cache stats off the result table."""
        return self._request("GET", "/store")

    def submit(self, spec_payload: Mapping[str, Any], *,
               max_attempts: int = 1) -> dict[str, Any]:
        """``POST /campaigns``; returns the status document.

        ``max_attempts > 1`` retries retryable rejections (429 and
        drain/injected 503s), sleeping the server's ``Retry-After``
        between attempts. The last rejection propagates as
        :class:`QuotaExceededError` when the budget runs out.
        """
        if max_attempts < 1:
            raise ServiceError("max_attempts must be >= 1")
        for attempt in range(max_attempts):
            try:
                return self._request("POST", "/campaigns", dict(spec_payload))
            except QuotaExceededError as exc:
                if attempt + 1 >= max_attempts:
                    raise
                time.sleep(exc.retry_after)
        raise AssertionError("unreachable")  # pragma: no cover

    def submit_scenario(self, name: str,
                        overrides: Mapping[str, Any] | None = None, *,
                        max_attempts: int = 1) -> dict[str, Any]:
        """Submit a registered scenario by name (``POST /campaigns``).

        Sends ``{"scenario": name, **overrides}``; the daemon resolves
        it through the scenario registry, so it dedups against the
        equivalent inline campaign spec. ``overrides`` narrows axis
        fields, e.g. ``{"size_exps": [12]}``.
        """
        payload: dict[str, Any] = {"scenario": name}
        if overrides:
            payload.update(overrides)
        return self.submit(payload, max_attempts=max_attempts)

    def status(self, campaign_id: str, *, wait: float = 0.0) -> dict[str, Any]:
        """``GET /campaigns/{id}``: state plus progress counts.

        ``wait > 0`` long-polls: the daemon answers at the campaign's
        next state change, or after ``wait`` seconds, or at once when
        the campaign is finished.
        """
        path = f"/campaigns/{campaign_id}"
        if wait > 0:
            path += f"?wait={wait:g}"
        return self._request("GET", path, wait=wait)

    def events(self, campaign_id: str, offset: int = 0) -> dict[str, Any]:
        """``GET /campaigns/{id}/events?offset=N``: rows past ``offset``.

        Pass the returned ``next_offset`` back in to stream
        incrementally; each call costs only the bytes appended since.
        """
        return self._request(
            "GET", f"/campaigns/{campaign_id}/events?offset={int(offset)}")

    def results(self, campaign_id: str) -> dict[str, Any]:
        """``GET /campaigns/{id}/results``: the finished grid's rows."""
        return self._request("GET", f"/campaigns/{campaign_id}/results")

    # -- executor protocol (repro.remote) ---------------------------------

    def register_executor(self, host: str, pid: int) -> dict[str, Any]:
        """``POST /executors``: join the registry; returns id + TTLs."""
        return self._request("POST", "/executors",
                             {"host": host, "pid": int(pid)})

    def executor_heartbeat(self, executor_id: str) -> dict[str, Any]:
        """``POST /executors/{id}/heartbeat``: refresh liveness."""
        return self._request("POST", f"/executors/{executor_id}/heartbeat")

    def claim_wave(self, executor_id: str, *, wait: float = 0.0,
                   abandon: Callable[[], bool] | None = None
                   ) -> dict[str, Any] | None:
        """``POST /executors/{id}/lease``: claim a wave, or None if idle.

        The lease document carries ``wave``/``epoch``/``payloads``; the
        executor must ship a sealed segment presenting the same epoch.
        ``wait > 0`` parks an idle claim at the daemon until a wave is
        offered (or ``wait`` seconds pass); ``abandon`` hangs the parked
        claim up early, and the daemon then grants it nothing.
        """
        path = f"/executors/{executor_id}/lease"
        if wait > 0:
            path += f"?wait={wait:g}"
        doc = self._request("POST", path, wait=wait, abandon=abandon)
        return doc if doc.get("wave") else None

    def ship_segment(self, executor_id: str, manifest: Mapping[str, Any],
                     rows: list[dict]) -> dict[str, Any]:
        """``POST /executors/{id}/segments``: deliver a sealed segment.

        Returns the acceptance doc (``{"status": "accepted" | "duplicate"
        | "stale" | "unknown"}``); an injected lost shipment surfaces as
        a retryable 503, which :class:`QuotaExceededError` carries.
        """
        return self._request("POST", f"/executors/{executor_id}/segments",
                             {"manifest": dict(manifest), "rows": rows})

    def executors(self) -> dict[str, Any]:
        """``GET /executors``: the registry's executor table + counters."""
        return self._request("GET", "/executors")

    def wait(self, campaign_id: str, *, timeout: float = 120.0,
             poll: float | None = None) -> dict[str, Any]:
        """Long-poll status until the campaign reaches a terminal state.

        Each request parks at the daemon until the campaign's state
        changes (at most :data:`STATUS_PARK_S`, and never past
        ``timeout``), so the answer arrives when the campaign finishes,
        not at a poll tick. ``poll`` is accepted and ignored: there is
        no poll interval any more, and callers written for one (the
        pipeline benchmark passes ``poll=0.005``) still run.
        """
        deadline = time.monotonic() + timeout
        while True:
            left = deadline - time.monotonic()
            doc = self.status(campaign_id,
                              wait=max(0.0, min(left, STATUS_PARK_S)))
            if doc.get("state") in _TERMINAL:
                return doc
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"campaign {campaign_id} still {doc.get('state')!r} "
                    f"after {timeout:g}s")

    def overhead_ms(self) -> float:
        """Mean per-request overhead: wall latency minus server handle time."""
        if self.requests == 0:
            return 0.0
        return (self.wall_ms_total - self.handle_ms_total) / self.requests
