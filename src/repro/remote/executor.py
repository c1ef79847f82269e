"""The remote wave executor: claim, compute, seal, ship, repeat.

A :class:`RemoteExecutor` is one simulated "host": a process (or
thread, in tests) that keeps no files at all -- each wave's rows live
in memory from compute to ship. All coordination happens over the
service's HTTP executor protocol:

1. ``POST /executors`` to register (returns the executor id);
2. ``POST /executors/{id}/lease`` to claim a pending wave (doubles as
   the idle heartbeat); the claim carries the wave's registry epoch,
   the one fence of the protocol;
3. compute the wave through the same fused
   :func:`~repro.campaign.executor.execute_wave` path local campaigns
   use -- bit-identity starts with running identical code;
4. seal the wave's result rows in memory
   (:func:`~repro.remote.segment.seal`): a manifest named after the
   wave and epoch, carrying the row count and content checksum;
5. ``POST /executors/{id}/segments`` to ship the sealed segment, with
   a bounded re-ship loop absorbing lost deliveries. A ship whose epoch
   the registry has since expired is filed as ``stale`` and dedups at
   ingest.

Chaos hooks (driven by the same deterministic
:class:`~repro.faults.FaultPlan` as everything else): ``executor_dead``
SIGKILLs the process right after a claim, and ``segment_dup_ship``
ships a sealed segment twice -- both of which the coordinator-side
protocol must absorb without losing or duplicating a single row.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Any, Callable

from repro.campaign.executor import execute_wave
from repro.errors import QuotaExceededError, ServiceError
from repro.faults import FaultInjector, FaultPlan
from repro.remote.segment import SegmentManifest, result_row, seal
from repro.service.client import ServiceClient

__all__ = ["RemoteExecutor"]

#: Bounded re-ship attempts per sealed segment (absorbs ``segment_lost``).
SHIP_ATTEMPTS = 4


def _safe(name: str) -> str:
    """A wave id as a segment-name token (``campaign/w1`` -> ``campaign_w1``)."""
    return "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in name)


class RemoteExecutor:
    """One executor process/thread bound to a daemon."""

    def __init__(self, base_url: str, *,
                 host: str | None = None,
                 faults: FaultPlan | None = None,
                 poll: float = 0.05) -> None:
        """Serve waves from the daemon at ``base_url``.

        ``host`` is the advertised host label (defaults to a
        pid-derived name, simulating distinct hosts in tests);
        ``faults`` activates the executor-side chaos sites.
        """
        self.host = host if host is not None else f"host-{os.getpid()}"
        self.poll = float(poll)
        self.client = ServiceClient(base_url, api_key=f"executor:{self.host}")
        self.injector = FaultInjector(faults) if faults is not None else None
        self.id: str | None = None
        self.waves = 0
        self.rows = 0
        self.reships = 0
        self.dup_ships = 0

    # -- lifecycle --------------------------------------------------------

    def register(self) -> str:
        """Join the daemon's registry; returns the assigned executor id."""
        doc = self.client.register_executor(self.host, os.getpid())
        self.id = doc["id"]
        return self.id

    def run(self, *, max_idle: float = 60.0, max_waves: int | None = None,
            should_stop: Callable[[], bool] | None = None) -> dict[str, Any]:
        """Serve waves until idle for ``max_idle`` seconds (or stopped).

        Returns a summary counter dict. A daemon that goes away mid-run
        ends the loop cleanly -- executors are disposable by design.
        """
        if self.id is None:
            self.register()
        idle_since = time.monotonic()
        while True:
            if should_stop is not None and should_stop():
                break
            if max_waves is not None and self.waves >= max_waves:
                break
            try:
                offer = self.client.claim_wave(self.id)
            except (ServiceError, QuotaExceededError):
                break  # daemon gone or draining: nothing left to serve
            if offer is None:
                if time.monotonic() - idle_since >= max_idle:
                    break
                time.sleep(self.poll)
                continue
            self.serve_wave(offer)
            idle_since = time.monotonic()
        return self.summary()

    def summary(self) -> dict[str, Any]:
        """Counters for CLI output and tests."""
        return {
            "executor": self.id,
            "host": self.host,
            "waves": self.waves,
            "rows": self.rows,
            "reships": self.reships,
            "dup_ships": self.dup_ships,
        }

    # -- one wave ---------------------------------------------------------

    def serve_wave(self, offer: dict[str, Any]) -> None:
        """Compute, seal and ship one claimed wave."""
        wave_id = offer["wave"]
        epoch = int(offer["epoch"])
        payloads = offer["payloads"]
        if self.injector is not None \
                and self.injector.claim_executor_dead(wave_id):
            # Abrupt host death: no cleanup, no goodbye -- the lease
            # expires by deadline and the coordinator reassigns.
            os.kill(os.getpid(), signal.SIGKILL)
        outs = execute_wave([dict(p["point"]) for p in payloads])
        rows = [result_row(payload["task_id"], payload["point"], out,
                           wall_ms=out.get("wall_ms"))
                for payload, out in zip(payloads, outs)]
        assert self.id is not None
        manifest = seal(rows, segment=f"{_safe(wave_id)}-e{epoch}",
                        executor=self.id, epoch=epoch, wave=wave_id)
        self._ship(wave_id, manifest, rows)
        self.waves += 1
        self.rows += len(rows)

    def _ship(self, wave_id: str, manifest: SegmentManifest,
              rows: list[dict]) -> None:
        """Deliver a sealed segment; bounded re-ships absorb lost ones."""
        assert self.id is not None
        ident = f"{wave_id}:{manifest.checksum[:16]}"
        ships = 1
        if self.injector is not None \
                and self.injector.claim_segment_dup_ship(ident):
            ships = 2
            self.dup_ships += 1
        for _ in range(ships):
            for attempt in range(SHIP_ATTEMPTS):
                try:
                    self.client.ship_segment(
                        self.id, manifest.to_dict(), rows)
                    break
                except QuotaExceededError as exc:
                    # Retryable: the wire "lost" the shipment (or the
                    # daemon asked us to back off). Re-ship.
                    self.reships += 1
                    if attempt + 1 >= SHIP_ATTEMPTS:
                        raise
                    time.sleep(min(exc.retry_after, 0.2))
