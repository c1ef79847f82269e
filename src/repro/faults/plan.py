"""Seed-driven fault schedules for the campaign pipeline.

A :class:`FaultPlan` is a *declarative* description of how hostile the
world should be during one campaign run: a per-site injection rate plus
a seed. Whether a given fault fires is a pure function of
``(seed, site, identity)`` -- the identity being a task id for worker
faults, a cache key for store corruption, and a task id for journal
tears -- so the same plan against the same campaign always injects the
same faults, in serial and pool mode alike, regardless of scheduling
order. That determinism is what makes chaos tests reproducible: a
failing seed is a repro recipe, not a flake.

Sites (see docs/ROBUSTNESS.md for the full fault model):

``worker_exception``
    The worker raises :class:`~repro.errors.InjectedFaultError` before
    touching the point (a crashed evaluation; in batch mode it poisons
    the whole wave-shard future).
``worker_hang``
    The worker stalls ``hang_seconds`` before proceeding (drives the
    executor's per-task timeout path; pool mode only).
``worker_kill``
    The worker SIGKILLs itself, breaking the process pool
    (``BrokenProcessPool``); the executor must rebuild the pool and
    re-queue in-flight tasks (pool mode only).
``cache_corrupt``
    One byte of the just-written cache object is flipped (disk) or the
    record is tampered in place (memory), exercising checksum
    quarantine.
``journal_torn_tail``
    The just-appended journal line is truncated mid-write, simulating a
    crash between ``write`` and a durable ``fsync``.
``service_reject``
    The ``repro.service`` admission layer spuriously rejects one
    otherwise-admissible submission with 503 + Retry-After (a transient
    the client must absorb by retrying; fires at most once per
    submission identity, so the retry is admitted).
``slow_client``
    The service stalls ``slow_client_seconds`` before writing one
    response, modelling a slow/lossy client link (drives client
    timeout/latency handling; the loadgen's p99 must absorb it).
``segment_lost``
    The coordinator drops one shipped segment as if the wire ate it
    (no ack); the remote executor's bounded re-ship loop must recover
    (fires at most once per (wave, segment) identity, so the re-ship
    lands).
``segment_dup_ship``
    The remote executor ships one sealed segment twice; the
    coordinator's index dedup must ingest it exactly once.
``lease_expire``
    A claimed wave lease is treated as lapsed while its holder still
    computes; the coordinator reassigns the wave (epoch bump) and the
    original holder's late ship arrives fenced as stale.
``executor_dead``
    The remote executor SIGKILLs itself after claiming a wave --
    abrupt host death. The lease expires by deadline and the wave is
    reassigned to a surviving executor (or runs locally).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Any, Mapping

from repro.errors import FaultPlanError

__all__ = ["FaultPlan", "FAULT_SITES", "WORKER_SITES", "decision", "load_fault_plan"]

#: Every injection site a plan may rate, in decision-priority order.
FAULT_SITES = (
    "worker_exception",
    "worker_hang",
    "worker_kill",
    "cache_corrupt",
    "journal_torn_tail",
    "service_reject",
    "slow_client",
    "segment_lost",
    "segment_dup_ship",
    "lease_expire",
    "executor_dead",
)

#: Sites that fire inside (or against) a worker; mutually exclusive per task.
WORKER_SITES = ("worker_kill", "worker_hang", "worker_exception")


def decision(seed: int, site: str, ident: str) -> float:
    """Deterministic uniform draw in [0, 1) for one injection opportunity.

    The draw is a pure hash of ``(seed, site, ident)``: no RNG state, no
    ordering sensitivity, stable across processes and platforms.
    """
    digest = hashlib.sha256(f"{seed}|{site}|{ident}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic fault schedule: per-site rates plus a seed.

    Rates are probabilities in ``[0, 1]`` evaluated independently per
    opportunity via :func:`decision`; ``max_faults`` caps the total
    number of injections (the cap is consumed in claim order, so it is
    the one order-sensitive knob -- leave it ``None`` for fully
    order-independent schedules). ``hang_seconds`` bounds how long a
    hung worker stalls so an abandoned worker eventually frees its pool
    slot.
    """

    seed: int = 0
    worker_exception: float = 0.0
    worker_hang: float = 0.0
    worker_kill: float = 0.0
    cache_corrupt: float = 0.0
    journal_torn_tail: float = 0.0
    service_reject: float = 0.0
    slow_client: float = 0.0
    segment_lost: float = 0.0
    segment_dup_ship: float = 0.0
    lease_expire: float = 0.0
    executor_dead: float = 0.0
    hang_seconds: float = 30.0
    slow_client_seconds: float = 0.05
    max_faults: int | None = None

    def __post_init__(self) -> None:
        for site in FAULT_SITES:
            rate = getattr(self, site)
            if not isinstance(rate, (int, float)) or not 0.0 <= rate <= 1.0:
                raise FaultPlanError(f"{site} rate must be in [0, 1], got {rate!r}")
        if self.hang_seconds < 0:
            raise FaultPlanError("hang_seconds must be non-negative")
        if self.slow_client_seconds < 0:
            raise FaultPlanError("slow_client_seconds must be non-negative")
        if self.max_faults is not None and self.max_faults < 0:
            raise FaultPlanError("max_faults must be non-negative or None")

    def rate(self, site: str) -> float:
        """The injection rate configured for ``site``."""
        if site not in FAULT_SITES:
            raise FaultPlanError(f"unknown fault site {site!r}; known: {FAULT_SITES}")
        return float(getattr(self, site))

    def fires(self, site: str, ident: str) -> bool:
        """Whether this plan injects ``site`` for opportunity ``ident``."""
        return decision(self.seed, site, ident) < self.rate(site)

    def with_seed(self, seed: int) -> "FaultPlan":
        """The same schedule under a different seed (CLI ``--fault-seed``)."""
        return replace(self, seed=seed)

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-ready)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        """Rebuild from :meth:`to_dict` output (unknown keys rejected)."""
        known = {f.name for f in fields(cls)}
        extra = set(payload) - known
        if extra:
            raise FaultPlanError(f"unknown FaultPlan fields: {sorted(extra)}")
        return cls(**dict(payload))


def load_fault_plan(path: str | Path) -> FaultPlan:
    """Parse a ``--faults plan.json`` file into a :class:`FaultPlan`."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise FaultPlanError(f"no fault plan at {path}") from None
    except json.JSONDecodeError as exc:
        raise FaultPlanError(f"invalid fault plan {path}: {exc}") from None
    if not isinstance(payload, Mapping):
        raise FaultPlanError(f"fault plan {path} must be a JSON object")
    return FaultPlan.from_dict(payload)
