"""Load generator and SLO harness for the campaign service.

This module answers the service's headline question with numbers: can
one daemon absorb *thousands* of concurrent campaign submissions over a
shared store without losing or corrupting a result, and what latency do
clients see while it does?

The generator drives a deterministic traffic mix over real HTTP (its
own ``asyncio`` socket path -- the blocking
:class:`~repro.service.client.ServiceClient` cannot hold thousands of
requests in flight):

* **cold** -- a grid no prior submission used; every point executes;
* **warm** -- a previously-submitted grid under a new campaign name:
  a new campaign whose points all hit the shared cache;
* **dup** -- a byte-identical resubmission, which must collapse onto
  the existing campaign id without planning anything.

Clients honour the protocol: a 429/503 with ``Retry-After`` is slept
and retried (bounded), never counted as a failure unless the budget
runs out. After the submission phase the generator long-polls every
accepted campaign (``GET /campaigns/{id}?wait=S``, one request per state
change) to a terminal state, then audits completeness over HTTP --
every campaign complete, every result grid exactly as long as its
plan, no failed points -- which is the "zero lost or corrupted"
acceptance check. :func:`LoadgenReport.to_dict` feeds
``BENCH_SERVICE.json`` and :func:`assert_slo` is the CI gate.

Latency accounting: each submission's wall time is measured around the
socket round trip, and the daemon's ``X-Handle-Ms`` header lets the
report split p50/p99 wall latency from *request overhead* (wall minus
server handle time).
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any
from urllib.parse import urlsplit

from repro.errors import ServiceError
from repro.service.client import STATUS_PARK_S
from repro.suite.cases import case_names

__all__ = ["LoadgenConfig", "LoadgenReport", "build_payloads", "run_loadgen",
           "assert_slo", "percentile"]

#: Grid dimensions the cold-traffic generator cycles through.
_SIZE_EXPS = tuple(range(5, 15))
_THREADS = (2, 4, 8)


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``samples`` by nearest-rank."""
    if not samples:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ServiceError(f"quantile must be in [0, 1], got {q}")
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


@dataclass(frozen=True)
class LoadgenConfig:
    """One load run's shape: volume, concurrency and traffic mix."""

    submissions: int = 1000
    concurrency: int = 64
    warm_fraction: float = 0.25
    dup_fraction: float = 0.25
    max_attempts: int = 8
    machine: str = "A"
    backend: str = "GCC-TBB"
    api_keys: int = 16
    submit_timeout: float = 30.0
    completion_timeout: float = 300.0

    def __post_init__(self) -> None:
        """Validate volume, concurrency and that the mix fits in 1.0."""
        if self.submissions < 1:
            raise ServiceError("submissions must be >= 1")
        if self.concurrency < 1:
            raise ServiceError("concurrency must be >= 1")
        if self.api_keys < 1:
            raise ServiceError("api_keys must be >= 1")
        if self.max_attempts < 1:
            raise ServiceError("max_attempts must be >= 1")
        for name in ("warm_fraction", "dup_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ServiceError(f"{name} must be in [0, 1], got {value}")
        if self.warm_fraction + self.dup_fraction > 1.0:
            raise ServiceError("warm_fraction + dup_fraction must be <= 1")


@dataclass
class LoadgenReport:
    """Everything one load run measured (JSON-ready via :meth:`to_dict`)."""

    submissions: int = 0
    cold: int = 0
    warm: int = 0
    dup: int = 0
    accepted: int = 0
    deduped: int = 0
    retried: int = 0
    submit_failures: int = 0
    campaigns: int = 0
    completed: int = 0
    lost: int = 0
    corrupted: int = 0
    duration_s: float = 0.0
    throughput_rps: float = 0.0
    submit_p50_ms: float = 0.0
    submit_p99_ms: float = 0.0
    request_overhead_ms: float = 0.0
    dedup_hit_rate: float = 0.0
    completed_rate: float = 0.0
    wall_ms: list[float] = field(default_factory=list, repr=False)
    handle_ms: list[float] = field(default_factory=list, repr=False)

    def finalize(self) -> None:
        """Derive the aggregate rates and percentiles from raw samples."""
        self.submit_p50_ms = percentile(self.wall_ms, 0.50)
        self.submit_p99_ms = percentile(self.wall_ms, 0.99)
        if self.wall_ms and len(self.handle_ms) == len(self.wall_ms):
            overheads = [w - h for w, h in zip(self.wall_ms, self.handle_ms)]
            self.request_overhead_ms = sum(overheads) / len(overheads)
        if self.duration_s > 0:
            self.throughput_rps = self.submissions / self.duration_s
        if self.dup:
            self.dedup_hit_rate = self.deduped / self.dup
        if self.campaigns:
            self.completed_rate = self.completed / self.campaigns

    def to_dict(self) -> dict[str, Any]:
        """The report without its raw sample arrays (ledger-sized)."""
        return {
            "submissions": self.submissions,
            "cold": self.cold, "warm": self.warm, "dup": self.dup,
            "accepted": self.accepted, "deduped": self.deduped,
            "retried": self.retried,
            "submit_failures": self.submit_failures,
            "campaigns": self.campaigns, "completed": self.completed,
            "lost": self.lost, "corrupted": self.corrupted,
            "duration_s": round(self.duration_s, 4),
            "throughput_rps": round(self.throughput_rps, 2),
            "submit_p50_ms": round(self.submit_p50_ms, 3),
            "submit_p99_ms": round(self.submit_p99_ms, 3),
            "request_overhead_ms": round(self.request_overhead_ms, 3),
            "dedup_hit_rate": round(self.dedup_hit_rate, 4),
            "completed_rate": round(self.completed_rate, 4),
        }


def build_payloads(config: LoadgenConfig) -> list[tuple[str, dict[str, Any]]]:
    """The deterministic submission schedule: ``(traffic_class, payload)``.

    Cold grids cycle (case, size_exp, threads) so consecutive cold
    submissions never share a point; warm entries re-use an earlier
    grid under a fresh name; dups repeat an earlier payload verbatim.
    The schedule depends only on ``config``, so two runs of the same
    config submit byte-identical traffic.
    """
    cases = case_names()
    unique_grids = len(cases) * len(_SIZE_EXPS) * len(_THREADS)
    payloads: list[tuple[str, dict[str, Any]]] = []
    prior: list[dict[str, Any]] = []
    n_dup = int(config.submissions * config.dup_fraction)
    n_warm = int(config.submissions * config.warm_fraction)
    n_cold = config.submissions - n_dup - n_warm
    if n_cold < 1:
        raise ServiceError("traffic mix leaves no cold submissions")
    if n_cold > unique_grids:
        raise ServiceError(
            f"{n_cold} cold submissions need more than the {unique_grids} "
            f"distinct grids available; lower submissions or raise the "
            f"warm/dup fractions")
    cold_done = warm_done = dup_done = 0
    for i in range(config.submissions):
        # interleave classes deterministically along the schedule:
        # positions 1 mod 4 lean warm, 3 mod 4 lean dup, the rest cold
        # until each class's budget runs out.
        if prior and dup_done < n_dup and i % 4 == 3:
            payloads.append(("dup", dict(prior[dup_done % len(prior)])))
            dup_done += 1
        elif prior and warm_done < n_warm and i % 4 == 1:
            base = dict(prior[warm_done % len(prior)])
            base["name"] = f"loadgen-warm-{warm_done:05d}"
            payloads.append(("warm", base))
            warm_done += 1
        elif cold_done < n_cold:
            k = cold_done
            payload = {
                "name": f"loadgen-cold-{k:05d}",
                "machines": [config.machine],
                "backends": [config.backend],
                "cases": [cases[k % len(cases)]],
                "size_exps": [_SIZE_EXPS[(k // len(cases)) % len(_SIZE_EXPS)]],
                "threads": [_THREADS[(k // (len(cases) * len(_SIZE_EXPS)))
                                     % len(_THREADS)]],
            }
            payloads.append(("cold", payload))
            prior.append(payload)
            cold_done += 1
        elif prior and warm_done < n_warm:
            base = dict(prior[warm_done % len(prior)])
            base["name"] = f"loadgen-warm-{warm_done:05d}"
            payloads.append(("warm", base))
            warm_done += 1
        else:  # only dup budget remains by construction
            payloads.append(("dup", dict(prior[dup_done % len(prior)])))
            dup_done += 1
    return payloads


async def _http(host: str, port: int, method: str, path: str,
                body: bytes = b"", api_key: str = "loadgen",
                timeout: float = 30.0) -> tuple[int, dict[str, str], bytes]:
    """One raw ``Connection: close`` round trip on an asyncio socket."""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout)
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        f"X-Api-Key: {api_key}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode("latin-1")
    try:
        writer.write(head + body)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout)
    finally:
        writer.close()
    header_blob, _, payload = raw.partition(b"\r\n\r\n")
    lines = header_blob.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, payload


async def _submit_one(host: str, port: int, payload: dict[str, Any],
                      api_key: str, config: LoadgenConfig,
                      report: LoadgenReport) -> str | None:
    """Submit one payload with honest backoff; returns the campaign id."""
    body = json.dumps(payload).encode("utf-8")
    for _attempt in range(config.max_attempts):
        t0 = time.perf_counter()
        try:
            status, headers, raw = await _http(
                host, port, "POST", "/campaigns", body, api_key,
                config.submit_timeout)
        except (OSError, asyncio.TimeoutError):
            report.submit_failures += 1
            return None
        wall_ms = (time.perf_counter() - t0) * 1000.0
        report.wall_ms.append(wall_ms)
        report.handle_ms.append(float(headers.get("x-handle-ms", "0") or "0"))
        if status in (200, 202):
            doc = json.loads(raw.decode("utf-8"))
            report.accepted += 1
            if doc.get("deduped"):
                report.deduped += 1
            return str(doc["id"])
        if status in (429, 503) and "retry-after" in headers:
            report.retried += 1
            await asyncio.sleep(float(headers["retry-after"]))
            continue
        report.submit_failures += 1
        return None
    report.submit_failures += 1
    return None


async def _await_completion(host: str, port: int, ids: list[str],
                            config: LoadgenConfig,
                            report: LoadgenReport) -> None:
    """Long-poll every campaign to a terminal state, at most
    ``config.concurrency`` at a time; count it completed or lost."""
    deadline = time.monotonic() + config.completion_timeout
    semaphore = asyncio.Semaphore(config.concurrency)

    async def settle(cid: str) -> None:
        async with semaphore:
            while (left := deadline - time.monotonic()) > 0:
                wait = min(left, STATUS_PARK_S)
                status, _headers, raw = await _http(
                    host, port, "GET", f"/campaigns/{cid}?wait={wait:g}",
                    timeout=config.submit_timeout + wait)
                if status != 200:
                    break
                state = json.loads(raw.decode("utf-8")).get("state")
                if state == "complete":
                    report.completed += 1
                    return
                if state in ("broken", "interrupted"):
                    break
        report.lost += 1

    await asyncio.gather(*(settle(cid) for cid in ids))


async def _audit_results(host: str, port: int, ids: list[str],
                         config: LoadgenConfig,
                         report: LoadgenReport) -> None:
    """Fetch every completed grid and count missing/failed rows as corrupt."""
    for cid in ids:
        status, _headers, raw = await _http(
            host, port, "GET", f"/campaigns/{cid}/results",
            timeout=config.submit_timeout)
        if status != 200:
            continue  # non-complete campaigns were already counted lost
        doc = json.loads(raw.decode("utf-8"))
        rows = doc.get("rows", [])
        status_doc_raw = await _http(host, port, "GET", f"/campaigns/{cid}",
                                     timeout=config.submit_timeout)
        points = json.loads(status_doc_raw[2].decode("utf-8")).get("points", 0)
        failed = sum(1 for row in rows if row.get("status") == "failed")
        if len(rows) != points or failed:
            report.corrupted += 1


async def _run(base_url: str, config: LoadgenConfig) -> LoadgenReport:
    """The async body of :func:`run_loadgen`."""
    parts = urlsplit(base_url)
    if parts.scheme != "http" or not parts.hostname or parts.port is None:
        raise ServiceError(f"base_url must be http://host:port, got {base_url!r}")
    host, port = parts.hostname, parts.port
    schedule = build_payloads(config)
    report = LoadgenReport(submissions=len(schedule))
    for klass, _payload in schedule:
        setattr(report, klass, getattr(report, klass) + 1)
    semaphore = asyncio.Semaphore(config.concurrency)
    ids: list[str | None] = [None] * len(schedule)

    async def bounded(index: int, payload: dict[str, Any]) -> None:
        async with semaphore:
            api_key = f"key-{index % config.api_keys:02d}"
            ids[index] = await _submit_one(
                host, port, payload, api_key, config, report)

    t0 = time.perf_counter()
    await asyncio.gather(*(bounded(i, payload)
                           for i, (_klass, payload) in enumerate(schedule)))
    report.duration_s = time.perf_counter() - t0
    unique_ids = list(dict.fromkeys(cid for cid in ids if cid is not None))
    report.campaigns = len(unique_ids)
    await _await_completion(host, port, unique_ids, config, report)
    await _audit_results(host, port, unique_ids, config, report)
    report.finalize()
    return report


def run_loadgen(base_url: str,
                config: LoadgenConfig | None = None) -> LoadgenReport:
    """Drive one full load run against a daemon at ``base_url``.

    Blocking wrapper: runs its own event loop, so call it from a plain
    thread (never from inside the daemon's loop).
    """
    return asyncio.run(_run(base_url, config or LoadgenConfig()))


def assert_slo(report: LoadgenReport, *, min_completed_rate: float = 1.0,
               min_dedup_hit_rate: float = 1.0,
               max_p99_ms: float | None = None) -> None:
    """Raise :class:`ServiceError` when ``report`` misses the SLOs.

    The defaults encode the acceptance bar: every campaign completes,
    every duplicate dedups, nothing lost or corrupted. ``max_p99_ms``
    is opt-in because wall-clock floors are machine-relative; the bench
    trajectory tracks p99 across commits instead.
    """
    problems: list[str] = []
    if report.lost:
        problems.append(f"{report.lost} campaigns lost")
    if report.corrupted:
        problems.append(f"{report.corrupted} campaigns corrupted")
    if report.submit_failures:
        problems.append(f"{report.submit_failures} submissions failed outright")
    if report.completed_rate < min_completed_rate:
        problems.append(f"completed_rate {report.completed_rate:.4f} < "
                        f"{min_completed_rate}")
    if report.dup and report.dedup_hit_rate < min_dedup_hit_rate:
        problems.append(f"dedup_hit_rate {report.dedup_hit_rate:.4f} < "
                        f"{min_dedup_hit_rate}")
    if max_p99_ms is not None and report.submit_p99_ms > max_p99_ms:
        problems.append(f"submit_p99_ms {report.submit_p99_ms:.1f} > "
                        f"{max_p99_ms}")
    if problems:
        raise ServiceError("SLO violation: " + "; ".join(problems))
