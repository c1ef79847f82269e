"""The campaign daemon: a stdlib-only asyncio HTTP/1.1 front end.

One process, one event loop, one :class:`~repro.service.scheduler.
CampaignService`. The HTTP layer is deliberately tiny -- requests are
parsed by hand off an ``asyncio`` stream, every response closes its
connection, and the only content type is JSON -- because the service's
interesting problems live *behind* the socket (admission, dedup, shared
store, drain), not in protocol plumbing, and the container has no
third-party HTTP stack to lean on.

Routes
------

=========================== =============================================
``POST /campaigns``         submit a spec; 202 accepted / 200 duplicate /
                            429 or 503 + ``Retry-After`` / 413 oversized
``GET /campaigns/{id}?wait=S``
                            status + incremental progress counts; with
                            ``wait``, answers at the record's next state
                            change or after S seconds (at once when the
                            campaign is finished)
``GET /campaigns/{id}/events?offset=N``
                            journal entries past byte ``offset`` plus the
                            ``next_offset`` cursor to poll from
``GET /campaigns/{id}/results``
                            the finished grid's rows (409 while running)
``GET /healthz``            liveness + drain flag
``GET /metrics``            ``name value`` lines, text/plain
``GET /store``              shared-cache stats from the result table
                            (objects, indexed, quarantined)
``POST /executors``         register a remote wave executor; returns its
                            id and the lease/liveness TTLs
``POST /executors/{id}/heartbeat``
                            refresh an executor's liveness window
``POST /executors/{id}/lease?wait=S``
                            claim a pending campaign wave (epoch-fenced
                            lease; doubles as the idle heartbeat); with
                            ``wait``, parks until a wave is claimable or
                            S seconds (at most half the executor TTL)
                            pass, then answers ``{"wave": null}``
``POST /executors/{id}/segments``
                            ship a sealed result segment (manifest +
                            rows); 503 + ``Retry-After`` when an
                            injected fault "loses" the shipment
``GET /executors``          the executor table + wave-protocol counters
=========================== =============================================

Every response carries ``X-Handle-Ms``, the server-side handling time:
the load generator subtracts it from wall latency to report *request
overhead* -- what the service costs beyond the work itself. For a
parked ``?wait=`` request it includes the park.

A parked request is a coroutine on the daemon's one event loop, never a
thread. Record state changes happen on the loop and resolve the status
waits directly; the executor registry is driven by campaign runner
threads, so its :attr:`~repro.remote.registry.ExecutorRegistry.
on_claimable` hook wakes parked claims through ``call_soon_threadsafe``.
A parked claim whose client hangs up is granted nothing, and a drain
answers every parked request at once.

Once listening, the daemon publishes its bound address to
``<root>/service.json`` by temp file plus rename
(:func:`repro.campaign.durable.publish`), so a client that finds the
file always reads a whole document. ``serve()`` installs SIGTERM/SIGINT
handlers that drain gracefully: stop admissions, answer parked requests,
close the listener once every connection it accepted is answered, let
running campaigns finish their wave, flush journals, remove
``service.json``, exit. A restarted daemon resumes interrupted
campaigns from those journals (see :meth:`CampaignService.start`).
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from pathlib import Path
from typing import Any, Callable

from repro import __version__
from repro.campaign.durable import publish
from repro.campaign.store import canonical_json
from repro.errors import CampaignError, ReproError, SegmentError, ServiceError
from repro.faults import FaultPlan
from repro.remote.segment import SegmentManifest, verify_rows
from repro.service.quotas import QuotaPolicy, Rejection
from repro.service.scheduler import FINAL, CampaignService
from repro.trace import get_tracer

__all__ = ["ServiceDaemon", "serve", "start_background", "BackgroundService"]

#: Largest request body the daemon will read (a spec, not a dataset).
MAX_BODY_BYTES = 1 << 20

#: Segment shipments carry whole waves of result rows; give them more
#: headroom than a spec while still bounding a hostile client.
MAX_SEGMENT_BODY_BYTES = 8 << 20

#: Longest park a ``?wait=S`` request gets, in seconds.
MAX_WAIT_S = 60.0

#: How long a stopping daemon waits to answer the connections it accepted.
CLOSE_GRACE_S = 5.0

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class _ClientGone(Exception):
    """Internal control flow: the client hung up while its request parked."""


class _HttpReply(Exception):
    """Internal control flow: abort the handler with a ready response."""

    def __init__(self, status: int, payload: dict[str, Any],
                 retry_after: float | None = None) -> None:
        """Capture the ``status``, JSON ``payload`` and retry hint."""
        super().__init__(payload.get("error", ""))
        self.status = status
        self.payload = payload
        self.retry_after = retry_after


def _reject_reply(rejection: Rejection) -> _HttpReply:
    """Map an admission :class:`Rejection` onto its HTTP response."""
    return _HttpReply(
        rejection.status,
        {"error": rejection.reason, "retryable": rejection.retryable},
        retry_after=rejection.retry_after,
    )


class ServiceDaemon:
    """The HTTP front end bound to one :class:`CampaignService`."""

    def __init__(
        self,
        root: str | Path,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        policy: QuotaPolicy | None = None,
        concurrent: int = 2,
        campaign_workers: int = 0,
        faults: FaultPlan | None = None,
        lease_ttl: float = 5.0,
        executor_ttl: float = 10.0,
        wave_timeout: float = 60.0,
    ) -> None:
        """Configure (but do not start) a daemon rooted at ``root``.

        ``port=0`` asks the OS for a free port; the bound address is
        published atomically to ``<root>/service.json`` once listening,
        which is how the CLI and tests discover a just-started daemon.
        ``lease_ttl``/``executor_ttl``/``wave_timeout`` parameterize the
        remote-executor protocol (see :mod:`repro.remote`).
        """
        self.root = Path(root)
        self.host = host
        self.port = port
        self.service = CampaignService(
            self.root, policy=policy, concurrent=concurrent,
            campaign_workers=campaign_workers, faults=faults,
            lease_ttl=lease_ttl, executor_ttl=executor_ttl,
            wave_timeout=wave_timeout,
        )
        self.requests = 0
        self.request_serial = 0
        #: Requests parked right now, by kind.
        self.parked = {"claims": 0, "status": 0}
        self._server: asyncio.AbstractServer | None = None
        self._stopping: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        #: Resolved (and replaced) whenever a wave becomes claimable.
        self._claimable: asyncio.Future | None = None

    # -- wire plumbing -----------------------------------------------------

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes]:
        """Parse one request: ``(method, target, headers, body)``."""
        head = await reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            raise _HttpReply(400, {"error": "malformed request line"}) from None
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        limit = MAX_SEGMENT_BODY_BYTES if target.startswith("/executors") \
            else MAX_BODY_BYTES
        if length > limit:
            raise _HttpReply(413, {"error": "request body too large"})
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    @staticmethod
    def _response(status: int, payload: dict[str, Any], handle_ms: float,
                  retry_after: float | None = None,
                  content_type: str = "application/json") -> bytes:
        """Serialize one complete ``Connection: close`` HTTP response."""
        if content_type == "application/json":
            body = (canonical_json(payload) + "\n").encode("utf-8")
        else:
            body = str(payload.get("text", "")).encode("utf-8")
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"X-Handle-Ms: {handle_ms:.3f}",
            "Connection: close",
        ]
        if retry_after is not None:
            head.append(f"Retry-After: {retry_after:g}")
        return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        """Serve one connection: parse, dispatch, respond, close."""
        self.requests += 1
        self.request_serial += 1
        serial = self.request_serial
        t0 = time.perf_counter()
        retry_after: float | None = None
        try:
            method, target, headers, body = await self._read_request(reader)
            status, payload, content_type = await self._dispatch(
                method, target, headers, body, reader)
        except _HttpReply as reply:
            status, payload = reply.status, reply.payload
            retry_after, content_type = reply.retry_after, "application/json"
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                _ClientGone):
            writer.close()
            return
        except Exception as exc:  # noqa: BLE001 - the 500 boundary
            status = 500
            payload = {"error": f"{type(exc).__name__}: {exc}"}
            content_type = "application/json"
        injector = self.service.injector
        if injector is not None:
            delay = injector.slow_client_delay(f"request#{serial}")
            if delay > 0:
                await asyncio.sleep(delay)
        handle_ms = (time.perf_counter() - t0) * 1000.0
        tracer = get_tracer()
        if tracer.enabled:
            tracer.record("service.request", handle_ms / 1000.0,
                          category="service", track="service", status=status)
        try:
            writer.write(self._response(status, payload, handle_ms,
                                        retry_after, content_type))
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            writer.close()

    # -- routing -----------------------------------------------------------

    async def _dispatch(self, method: str, target: str,
                        headers: dict[str, str], body: bytes,
                        reader: asyncio.StreamReader
                        ) -> tuple[int, dict[str, Any], str]:
        """Route one parsed request to its handler."""
        path, _, query = target.partition("?")
        parts = [p for p in path.split("/") if p]
        if path == "/healthz" and method == "GET":
            return 200, {"status": "ok", "version": __version__,
                         "draining": self.service.draining}, "application/json"
        if path == "/metrics" and method == "GET":
            return 200, {"text": self._metrics_text()}, "text/plain"
        if path == "/store" and method == "GET":
            return 200, self.service.store_stats(), "application/json"
        if parts and parts[0] == "campaigns":
            if len(parts) == 1 and method == "POST":
                return self._post_campaign(headers, body)
            if len(parts) == 2 and method == "GET":
                return await self._get_status(parts[1], query, reader)
            if len(parts) == 3 and method == "GET" and parts[2] == "events":
                return self._get_events(parts[1], query)
            if len(parts) == 3 and method == "GET" and parts[2] == "results":
                return self._get_results(parts[1])
        if parts and parts[0] == "executors":
            if len(parts) == 1 and method == "POST":
                return self._post_executor(body)
            if len(parts) == 1 and method == "GET":
                return 200, {
                    "executors": self.service.registry.executors(),
                    "counters": self.service.registry.counters(),
                }, "application/json"
            if len(parts) == 3 and method == "POST" and parts[2] == "heartbeat":
                return self._post_heartbeat(parts[1])
            if len(parts) == 3 and method == "POST" and parts[2] == "lease":
                return await self._post_lease(parts[1], query, reader)
            if len(parts) == 3 and method == "POST" and parts[2] == "segments":
                return self._post_segment(parts[1], body)
        if parts and parts[0] in ("campaigns", "healthz", "metrics", "store",
                                  "executors"):
            raise _HttpReply(405, {"error": f"{method} not allowed on {path}"})
        raise _HttpReply(404, {"error": f"no route for {method} {path}"})

    # -- executor protocol (repro.remote) ---------------------------------

    def _post_executor(self, body: bytes) -> tuple[int, dict[str, Any], str]:
        """``POST /executors``: register a remote executor."""
        payload = self._json_body(body)
        host = str(payload.get("host", "unknown"))
        try:
            pid = int(payload.get("pid", 0))
        except (TypeError, ValueError):
            raise _HttpReply(400, {"error": "pid must be an integer"}) from None
        return 200, self.service.registry.register(host, pid), "application/json"

    def _post_heartbeat(self, eid: str) -> tuple[int, dict[str, Any], str]:
        """``POST /executors/{id}/heartbeat``: refresh liveness."""
        if not self.service.registry.heartbeat(eid):
            raise _HttpReply(404, {"error": f"unknown executor {eid!r}"})
        return 200, {"ok": True}, "application/json"

    async def _post_lease(self, eid: str, query: str,
                          reader: asyncio.StreamReader
                          ) -> tuple[int, dict[str, Any], str]:
        """``POST /executors/{id}/lease?wait=S``: claim a pending wave.

        With ``wait``, an idle claim parks until a wave becomes
        claimable, the window ends or a drain starts; a draining daemon
        grants no lease. The window is capped at half the executor TTL,
        so a parked executor stays live. Each pass takes the claimable
        future *before* it re-checks the registry, so an offer landing
        in between is never missed.
        """
        registry = self.service.registry
        if not registry.heartbeat(eid):
            raise _HttpReply(404, {"error": f"unknown executor {eid!r}"})
        loop = asyncio.get_running_loop()
        deadline = loop.time() + min(_wait_seconds(query),
                                     registry.executor_ttl / 2)
        hangup: asyncio.Task | None = None
        try:
            while not self.service.draining:
                claimable = self._claimable
                assert claimable is not None  # set while run() serves
                doc = registry.claim(eid)
                if doc is not None:
                    return 200, doc, "application/json"
                left = deadline - loop.time()
                if left <= 0:
                    break
                if hangup is None:
                    hangup = asyncio.ensure_future(reader.read(1))
                await self._park("claims", (claimable, hangup), left)
                if hangup.done() or reader.at_eof():
                    raise _ClientGone()
            return 200, {"wave": None}, "application/json"
        finally:
            _drop(hangup)

    async def _park(self, kind: str, wakes: tuple[asyncio.Future, ...],
                    seconds: float) -> None:
        """Wait until one of ``wakes`` resolves or ``seconds`` pass."""
        self.parked[kind] += 1
        try:
            await asyncio.wait(wakes, timeout=seconds,
                               return_when=asyncio.FIRST_COMPLETED)
        finally:
            self.parked[kind] -= 1

    def _wake_claims(self) -> None:
        """Answer every parked claim's wait (on the loop): re-check now."""
        claimable = self._claimable
        if claimable is not None:
            self._claimable = asyncio.get_running_loop().create_future()
            claimable.set_result(None)

    def _claimable_soon(self) -> None:
        """The registry's hook, on any thread: wake parked claims."""
        loop = self._loop
        if loop is None:
            return
        try:
            loop.call_soon_threadsafe(self._wake_claims)
        except RuntimeError:
            pass  # loop already closed: nothing is parked any more

    def _post_segment(self, eid: str,
                      body: bytes) -> tuple[int, dict[str, Any], str]:
        """``POST /executors/{id}/segments``: accept a sealed shipment."""
        payload = self._json_body(body)
        rows = payload.get("rows")
        if not isinstance(rows, list) \
                or not all(isinstance(row, dict) for row in rows):
            raise _HttpReply(400, {"error": "rows must be a list of objects"})
        try:
            manifest = SegmentManifest.from_dict(payload.get("manifest") or {})
            verify_rows(manifest, rows)
        except SegmentError as exc:
            raise _HttpReply(400, {"error": str(exc)}) from None
        epoch = manifest.epoch
        status = self.service.registry.deliver(
            eid, manifest.wave, epoch, manifest, rows)
        if status == "lost":
            # The injected wire fault ate the shipment: tell the
            # executor to re-ship, exactly like a real lost ack.
            raise _HttpReply(
                503, {"error": "segment lost in transit", "retryable": True},
                retry_after=0.05)
        return 200, {"status": status}, "application/json"

    @staticmethod
    def _json_body(body: bytes) -> dict[str, Any]:
        """Parse a JSON-object request body (400 on anything else)."""
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except ValueError as exc:  # bad JSON or UTF-8, or a huge integer
            raise _HttpReply(400, {"error": f"body is not JSON: {exc}"}) from None
        if not isinstance(payload, dict):
            raise _HttpReply(400, {"error": "body must be a JSON object"})
        return payload

    def _post_campaign(self, headers: dict[str, str],
                       body: bytes) -> tuple[int, dict[str, Any], str]:
        """``POST /campaigns``: parse the spec and submit it."""
        api_key = headers.get("x-api-key", "anonymous")
        if not body:
            raise _HttpReply(400, {"error": "body is not JSON: empty body"})
        payload = self._json_body(body)
        try:
            record, deduped, rejection = self.service.submit(payload, api_key)
        except (CampaignError, ReproError) as exc:
            raise _HttpReply(400, {"error": str(exc)}) from None
        if rejection is not None:
            raise _reject_reply(rejection)
        assert record is not None  # submit() guarantees record xor rejection
        doc = record.to_dict()
        doc["deduped"] = deduped
        return (200 if deduped else 202), doc, "application/json"

    async def _get_status(self, cid: str, query: str,
                          reader: asyncio.StreamReader
                          ) -> tuple[int, dict[str, Any], str]:
        """``GET /campaigns/{id}?wait=S``: the incremental status document.

        With ``wait``, a campaign that can still change parks until its
        record's next state change, the window ends, a drain starts or
        the client hangs up.
        """
        wait = _wait_seconds(query)
        try:
            record = self.service.status(cid)
        except ServiceError as exc:
            raise _HttpReply(404, {"error": str(exc)}) from None
        if wait > 0 and record.state not in FINAL and not self.service.draining:
            hangup = asyncio.ensure_future(reader.read(1))
            try:
                await self._park(
                    "status", (self.service.state_change(cid), hangup), wait)
                if hangup.done() or reader.at_eof():
                    raise _ClientGone()
            finally:
                _drop(hangup)
            record = self.service.status(cid)
        return 200, record.to_dict(), "application/json"

    def _get_events(self, cid: str,
                    query: str) -> tuple[int, dict[str, Any], str]:
        """``GET /campaigns/{id}/events``: journal rows past ``offset``."""
        offset = max(0, _query_param(query, "offset", int) or 0)
        try:
            return 200, self.service.events(cid, offset), "application/json"
        except ServiceError as exc:
            raise _HttpReply(404, {"error": str(exc)}) from None

    def _get_results(self, cid: str) -> tuple[int, dict[str, Any], str]:
        """``GET /campaigns/{id}/results``: the finished grid (else 409)."""
        try:
            return 200, self.service.results(cid), "application/json"
        except ServiceError as exc:
            status = 404 if "unknown campaign" in str(exc) else 409
            raise _HttpReply(status, {"error": str(exc)}) from None

    def _metrics_text(self) -> str:
        """The ``/metrics`` body: one ``service_<name> <value>`` per line."""
        counters: dict[str, int | float] = {"requests": self.requests}
        counters.update(self.service.counters())
        lines = [f"service_{name} {value}" for name, value in counters.items()]
        return "\n".join(lines) + "\n"

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (valid once :meth:`run` is listening)."""
        return self.host, self.port

    @property
    def base_url(self) -> str:
        """``http://host:port`` for the bound address."""
        return f"http://{self.host}:{self.port}"

    def request_stop(self) -> None:
        """Ask a running daemon to drain and exit (thread/signal safe)."""
        loop, stopping = self._loop, self._stopping
        if loop is None or stopping is None:
            return
        try:
            loop.call_soon_threadsafe(stopping.set)
        except RuntimeError:
            pass  # loop already closed: the daemon is gone anyway

    async def run(self, *, install_signals: bool = True,
                  ready: threading.Event | None = None) -> None:
        """Listen, serve until stopped, then drain and clean up.

        ``install_signals`` wires SIGTERM/SIGINT to :meth:`request_stop`
        (only possible on the main thread); ``ready`` is set once the
        port file is written, for :func:`start_background` callers.
        """
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        self._claimable = self._loop.create_future()
        self.service.registry.on_claimable = self._claimable_soon
        resumed = self.service.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        port_file = self.root / "service.json"
        publish(port_file, canonical_json({
            "host": self.host, "port": self.port, "resumed": resumed,
        }) + "\n")
        if install_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(signum, self.request_stop)
        if ready is not None:
            ready.set()
        try:
            await self._stopping.wait()
        finally:
            self.service.begin_drain()
            self._wake_claims()
            await self._answer_accepted(CLOSE_GRACE_S)
            self._server.close()
            await self._server.wait_closed()
            await self.service.drain()
            self.service.registry.on_claimable = None
            if install_signals:
                loop = asyncio.get_running_loop()
                for signum in (signal.SIGTERM, signal.SIGINT):
                    loop.remove_signal_handler(signum)
            try:
                port_file.unlink()
            except FileNotFoundError:
                pass

    async def _answer_accepted(self, timeout: float) -> None:
        """Stop accepting, then answer every connection already accepted.

        The listening socket stops being read first, so nothing new is
        accepted; connections still queued in the kernel are reset when
        the listener closes. A connection accepted just before that has
        only a pending transport set-up task, and asyncio fails that
        set-up once the server is closed: the client would wait out its
        own timeout unanswered. So the caller closes the server only
        after every task on the loop but this one and the campaign
        runners -- the set-up tasks, then the :meth:`_handle` tasks they
        start, which answer (a submission gets 503 while draining) --
        has finished, or ``timeout`` seconds have passed.
        """
        assert self._server is not None
        loop = asyncio.get_running_loop()
        for sock in self._server.sockets:
            loop.remove_reader(sock.fileno())
        deadline = loop.time() + timeout
        while (left := deadline - loop.time()) > 0:
            pending = asyncio.all_tasks() - {asyncio.current_task(),
                                             *self.service.runners}
            if not pending:
                return
            await asyncio.wait(pending, timeout=left)


def _drop(hangup: asyncio.Task | None) -> None:
    """Retire a hang-up watch: cancel it, or collect how it ended."""
    if hangup is None:
        return
    if not hangup.done():
        hangup.cancel()
    elif not hangup.cancelled():
        hangup.exception()  # a reset connection ends the read with an error


def _query_param(query: str, name: str, parse: Callable[[str], Any]) -> Any:
    """Query parameter ``name`` through ``parse``: None when absent, 400
    when it does not parse."""
    for pair in query.split("&"):
        key, _, value = pair.partition("=")
        if key == name:
            try:
                return parse(value)
            except ValueError:
                raise _HttpReply(
                    400, {"error": f"bad {name} {value!r}"}) from None
    return None


def _wait_seconds(query: str) -> float:
    """The ``wait`` query parameter in seconds (0 when absent), capped."""
    seconds = _query_param(query, "wait", float)
    if seconds is None:
        return 0.0
    if not 0.0 <= seconds:  # negative or NaN
        raise _HttpReply(400, {"error": f"bad wait {seconds!r}"})
    return min(seconds, MAX_WAIT_S)


def serve(root: str | Path, **kwargs: Any) -> None:
    """Run a daemon in the foreground until SIGTERM/SIGINT (CLI entry)."""
    daemon = ServiceDaemon(root, **kwargs)
    asyncio.run(daemon.run())


class BackgroundService:
    """A daemon running on its own thread (tests, examples, benchmarks).

    Use as a context manager::

        with start_background(root) as svc:
            client = ServiceClient(svc.base_url)
            ...

    Exiting the block drains the daemon and joins the thread.
    """

    def __init__(self, daemon: ServiceDaemon) -> None:
        """Wrap ``daemon``; call :meth:`start` (or use the helper)."""
        self.daemon = daemon
        self._thread: threading.Thread | None = None

    @property
    def base_url(self) -> str:
        """The running daemon's ``http://host:port``."""
        return self.daemon.base_url

    def start(self, timeout: float = 10.0) -> "BackgroundService":
        """Boot the daemon thread and wait until it is accepting requests."""
        ready = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(
                self.daemon.run(install_signals=False, ready=ready)),
            name="repro-service", daemon=True,
        )
        self._thread.start()
        if not ready.wait(timeout):
            raise ServiceError("service daemon failed to start in time")
        return self

    def stop(self, timeout: float = 60.0) -> None:
        """Drain the daemon and join its thread."""
        self.daemon.request_stop()
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive():
                raise ServiceError("service daemon did not drain in time")
            self._thread = None

    def __enter__(self) -> "BackgroundService":
        """Context-manager entry: the already-started handle."""
        return self

    def __exit__(self, *exc: Any) -> None:
        """Context-manager exit: drain and join."""
        self.stop()


def start_background(root: str | Path, **kwargs: Any) -> BackgroundService:
    """Start a daemon on a background thread; returns the joined handle."""
    return BackgroundService(ServiceDaemon(root, **kwargs)).start()
