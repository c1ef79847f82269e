"""Executor registry and wave leases: the coordinator's shared state.

The registry is the meeting point between three kinds of actors:

- **executors** register, heartbeat, claim wave leases and deliver
  sealed segments (over HTTP, so these calls arrive on the daemon's
  event loop);
- **coordinators** (one per running campaign, on a runner thread)
  offer waves, drain deliveries for ingest, and expire stale leases;
- **operators** read the counters through ``GET /executors`` and
  ``/metrics``.

Everything is guarded by one condition variable: registry operations
are tiny (no I/O under the lock -- segment ingest happens on the
coordinator's thread *after* draining), so a single lock stays far off
any hot path while making the state machine easy to reason about.
Coordinators wait on that condition; the daemon's parked claims wait on
its event loop instead, which the :attr:`ExecutorRegistry.on_claimable`
hook wakes whenever a wave becomes claimable.

Wave lease lifecycle::

    pending --claim--> leased --deliver(current epoch)--> done
       ^                  |
       '---expire_stale---'      (deadline passed, or an injected
                                  ``lease_expire`` fault; each
                                  reassignment bumps the epoch at the
                                  next claim)

A delivery presenting a *stale* epoch -- its holder was expired and the
wave reassigned -- does not complete the wave, but its rows are still
queued for ingest: results are deterministic, so the ingest's key
dedup collapses them into the exactly-once outcome, and the counter
``stale_ships`` records that fencing did its job.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.faults import FaultInjector
from repro.remote.segment import SegmentManifest
from repro.trace import get_tracer

PENDING = "pending"
LEASED = "leased"
DONE = "done"


@dataclass
class ExecutorInfo:
    """One registered executor process ("host")."""

    id: str
    host: str
    pid: int
    registered_at: float
    last_seen: float
    waves_done: int = 0
    stale_ships: int = 0

    def to_dict(self, now: float, executor_ttl: float) -> dict[str, Any]:
        """Wire shape for ``GET /executors`` (liveness computed at read time)."""
        return {
            "id": self.id,
            "host": self.host,
            "pid": self.pid,
            "live": (now - self.last_seen) < executor_ttl,
            "age_s": round(now - self.registered_at, 3),
            "idle_s": round(now - self.last_seen, 3),
            "waves_done": self.waves_done,
            "stale_ships": self.stale_ships,
        }


@dataclass
class WaveOffer:
    """One wave's worth of tasks offered to remote executors."""

    wave_id: str
    campaign: str
    payloads: list[dict]
    state: str = PENDING
    executor: str | None = None
    epoch: int = 0
    expires_at: float = 0.0
    reassignments: int = 0
    #: (manifest, rows) shipments queued for the coordinator to ingest;
    #: includes stale-epoch and duplicate ships (dedup happens at ingest).
    deliveries: list[tuple[SegmentManifest, list[dict]]] = field(default_factory=list)

    def to_wire(self) -> dict[str, Any]:
        """The lease document an executor receives from a claim."""
        return {
            "wave": self.wave_id,
            "campaign": self.campaign,
            "epoch": self.epoch,
            "payloads": self.payloads,
        }


class ExecutorRegistry:
    """Thread-safe executor + wave-lease state shared by daemon and runners."""

    def __init__(self, *, lease_ttl: float = 5.0, executor_ttl: float = 10.0,
                 clock: Callable[[], float] = time.monotonic,
                 injector: FaultInjector | None = None) -> None:
        """``lease_ttl`` bounds a claimed wave; ``executor_ttl`` bounds liveness.

        The ``injector`` (the service's fault injector, when chaos
        testing) powers two wire/lease fault sites here: ``lease_expire``
        (a claimed lease is treated as lapsed on the next sweep) and
        ``segment_lost`` (a delivery is dropped once, forcing the
        executor's re-ship path).
        """
        self.lease_ttl = float(lease_ttl)
        self.executor_ttl = float(executor_ttl)
        self.clock = clock
        self.injector = injector
        self._cond = threading.Condition()
        self._executors: dict[str, ExecutorInfo] = {}
        self._offers: dict[str, WaveOffer] = {}
        self._serial = 0
        # counters (monotonic; surfaced via /metrics and GET /executors)
        self.waves_offered = 0
        self.waves_completed = 0
        self.waves_reassigned = 0
        self.stale_ships = 0
        self.lost_ships = 0
        self.duplicate_ships = 0
        #: Set by :meth:`drain`: coordinators stop waiting for remote
        #: waves and take them back.
        self.draining = False
        #: Called, outside the lock and on whichever thread made it so,
        #: each time a wave becomes claimable: an :meth:`offer`, or
        #: :meth:`expire_stale` returning leases to pending. The daemon
        #: sets it to wake its parked ``?wait=`` claims.
        self.on_claimable: Callable[[], None] | None = None

    # -- executor side ---------------------------------------------------

    def register(self, host: str, pid: int) -> dict[str, Any]:
        """Add an executor; returns its assigned id + protocol parameters."""
        now = self.clock()
        with self._cond:
            self._serial += 1
            eid = f"ex-{self._serial}"
            self._executors[eid] = ExecutorInfo(
                id=eid, host=str(host), pid=int(pid),
                registered_at=now, last_seen=now)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.record("remote.register", 0.0, category="remote",
                          track="remote", executor=eid, host=str(host))
        return {"id": eid, "lease_ttl": self.lease_ttl,
                "executor_ttl": self.executor_ttl}

    def heartbeat(self, eid: str) -> bool:
        """Refresh an executor's liveness; False when it was never registered."""
        with self._cond:
            info = self._executors.get(eid)
            if info is None:
                return False
            info.last_seen = self.clock()
            return True

    def claim(self, eid: str) -> dict[str, Any] | None:
        """Lease the oldest pending wave to ``eid`` (None when none pending).

        Every grant -- first claim or post-expiry reclaim -- bumps the
        offer's epoch, so a ship from a previous holder is identifiable
        as stale no matter how delayed it arrives.
        """
        now = self.clock()
        with self._cond:
            info = self._executors.get(eid)
            if info is None:
                return None
            info.last_seen = now
            for offer in self._offers.values():
                if offer.state != PENDING:
                    continue
                offer.state = LEASED
                offer.executor = eid
                offer.epoch += 1
                offer.expires_at = now + self.lease_ttl
                doc = offer.to_wire()
                break
            else:
                return None
        tracer = get_tracer()
        if tracer.enabled:
            tracer.record("remote.lease", 0.0, category="remote",
                          track="remote", executor=eid, wave=doc["wave"],
                          epoch=doc["epoch"])
        return doc

    def deliver(self, eid: str, wave_id: str, epoch: int,
                manifest: SegmentManifest,
                rows: Sequence[Mapping[str, Any]]) -> str:
        """Accept a shipped segment for ``wave_id``; returns a status string.

        - ``"accepted"``: current-epoch ship; the wave is done.
        - ``"duplicate"``: the wave already completed (re-ship after a
          lost ack, or the duplicate-ship fault); queued anyway, ingest
          dedups.
        - ``"stale"``: the presenting epoch was fenced out by a
          reassignment; queued for ingest but does not complete the wave.
        - ``"lost"``: injected ``segment_lost`` -- the shipment is
          dropped as if the wire ate it; the executor must re-ship.
        - ``"unknown"``: no such wave (coordinator already reclaimed it).
        """
        now = self.clock()
        ident = f"{wave_id}:{manifest.checksum[:16]}"
        if self.injector is not None and self.injector.claim_segment_lost(ident):
            with self._cond:
                self.lost_ships += 1
            self._trace_ship("lost", eid, wave_id, epoch, manifest)
            return "lost"
        with self._cond:
            info = self._executors.get(eid)
            if info is not None:
                info.last_seen = now
            offer = self._offers.get(wave_id)
            if offer is None:
                status = "unknown"
            else:
                queue_rows = [dict(row) for row in rows]
                if offer.state == DONE:
                    status = "duplicate"
                    self.duplicate_ships += 1
                    offer.deliveries.append((manifest, queue_rows))
                elif offer.state == LEASED and offer.executor == eid \
                        and offer.epoch == int(epoch):
                    status = "accepted"
                    offer.state = DONE
                    offer.deliveries.append((manifest, queue_rows))
                    self.waves_completed += 1
                    if info is not None:
                        info.waves_done += 1
                else:
                    status = "stale"
                    self.stale_ships += 1
                    if info is not None:
                        info.stale_ships += 1
                    offer.deliveries.append((manifest, queue_rows))
            self._cond.notify_all()
        self._trace_ship(status, eid, wave_id, epoch, manifest)
        return status

    # -- coordinator side ------------------------------------------------

    def live(self) -> list[ExecutorInfo]:
        """Executors whose heartbeat is within ``executor_ttl``."""
        now = self.clock()
        with self._cond:
            return [info for info in self._executors.values()
                    if (now - info.last_seen) < self.executor_ttl]

    def offer(self, campaign: str, payloads: list[dict]) -> WaveOffer:
        """Queue one wave of task payloads for executors to claim."""
        with self._cond:
            self.waves_offered += 1
            wave_id = f"{campaign}/w{self.waves_offered}"
            wave = WaveOffer(wave_id=wave_id, campaign=campaign,
                             payloads=payloads)
            self._offers[wave_id] = wave
            self._cond.notify_all()
        self._claimable()
        return wave

    def expire_stale(self) -> list[str]:
        """Return expired leases to the pending queue; list of wave ids.

        A lease expires when its deadline passed -- the holder died, or
        is too slow -- or when the chaos plan's ``lease_expire`` site
        fires for this (wave, epoch), which simulates the deadline
        passing while the holder still computes.
        """
        now = self.clock()
        expired: list[str] = []
        with self._cond:
            for offer in self._offers.values():
                if offer.state != LEASED:
                    continue
                lapse = now >= offer.expires_at
                if not lapse and self.injector is not None:
                    lapse = self.injector.claim_lease_expire(
                        f"{offer.wave_id}#{offer.epoch}")
                if lapse:
                    offer.state = PENDING
                    offer.executor = None
                    offer.reassignments += 1
                    self.waves_reassigned += 1
                    expired.append(offer.wave_id)
            if expired:
                self._cond.notify_all()
        if expired:
            self._claimable()
            tracer = get_tracer()
            if tracer.enabled:
                for wave_id in expired:
                    tracer.record("remote.reassign", 0.0, category="remote",
                                  track="remote", wave=wave_id)
        return expired

    def _claimable(self) -> None:
        """Run the :attr:`on_claimable` hook, if one is set."""
        hook = self.on_claimable
        if hook is not None:
            hook()

    def drain_deliveries(self, wave_ids: Sequence[str]
                         ) -> list[tuple[str, SegmentManifest, list[dict]]]:
        """Remove and return queued deliveries for ``wave_ids`` (FIFO)."""
        out: list[tuple[str, SegmentManifest, list[dict]]] = []
        with self._cond:
            for wave_id in wave_ids:
                offer = self._offers.get(wave_id)
                if offer is None:
                    continue
                while offer.deliveries:
                    manifest, rows = offer.deliveries.pop(0)
                    out.append((wave_id, manifest, rows))
        return out

    def state_of(self, wave_ids: Sequence[str]) -> dict[str, str]:
        """Current state per wave id (``"unknown"`` for reclaimed waves)."""
        with self._cond:
            return {
                wave_id: (self._offers[wave_id].state
                          if wave_id in self._offers else "unknown")
                for wave_id in wave_ids
            }

    def take_back(self, wave_id: str) -> WaveOffer | None:
        """Reclaim an unfinished wave for local execution (None when done).

        Removing the offer means a ship that arrives later reads
        ``"unknown"`` -- the executor drops its segment and moves on.
        """
        with self._cond:
            offer = self._offers.get(wave_id)
            if offer is None or offer.state == DONE:
                return None
            return self._offers.pop(wave_id)

    def forget(self, wave_id: str) -> None:
        """Drop a finished offer once its deliveries are fully ingested."""
        with self._cond:
            self._offers.pop(wave_id, None)

    def wait(self, timeout: float) -> None:
        """Block until registry state changes (or ``timeout`` seconds pass)."""
        with self._cond:
            self._cond.wait(timeout)

    def drain(self) -> None:
        """Wake every coordinator's wait for good: the service is draining
        and no held wave will ship (idempotent)."""
        with self._cond:
            self.draining = True
            self._cond.notify_all()

    # -- observability ---------------------------------------------------

    def executors(self) -> list[dict[str, Any]]:
        """Wire docs for every registered executor (``GET /executors``)."""
        now = self.clock()
        with self._cond:
            return [info.to_dict(now, self.executor_ttl)
                    for info in self._executors.values()]

    def counters(self) -> dict[str, Any]:
        """Monotonic protocol counters for ``/metrics``."""
        now = self.clock()
        with self._cond:
            live = sum(1 for info in self._executors.values()
                       if (now - info.last_seen) < self.executor_ttl)
            return {
                "executors_registered": len(self._executors),
                "executors_live": live,
                "waves_offered": self.waves_offered,
                "waves_completed": self.waves_completed,
                "waves_reassigned": self.waves_reassigned,
                "stale_ships": self.stale_ships,
                "lost_ships": self.lost_ships,
                "duplicate_ships": self.duplicate_ships,
            }

    @staticmethod
    def _trace_ship(status: str, eid: str, wave_id: str, epoch: int,
                    manifest: SegmentManifest) -> None:
        """Emit one ``remote.ship`` span per delivery attempt."""
        tracer = get_tracer()
        if tracer.enabled:
            tracer.record("remote.ship", 0.0, category="remote",
                          track="remote", status=status, executor=eid,
                          wave=wave_id, epoch=epoch, rows=manifest.rows)
