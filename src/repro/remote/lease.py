"""Epoch-fenced on-disk leases with expiry and takeover.

A lease file is a small JSON document naming the current ``holder``, a
monotonically increasing ``epoch``, and an expiry deadline. The rules:

- **Acquire**: a free or *expired* lease may be claimed by any holder;
  every grant bumps the epoch, so the previous holder's (holder, epoch)
  pair can never be mistaken for the current one.
- **Renew**: only the current (holder, epoch) may extend the deadline.
- **Fencing**: guarded operations re-validate the lease immediately
  before acting. A lapsed deadline raises
  :class:`~repro.errors.LeaseExpiredError`; a takeover (the file now
  names someone else, or a higher epoch) raises
  :class:`~repro.errors.StaleWriterError`. Either way the write never
  happens -- the zombie writer fails loudly instead of corrupting state
  the new holder owns.

All reads and writes of the lease file happen under an exclusive
``flock`` on the file itself (the store's shared lock,
:func:`repro.campaign.durable.locked`), so acquire/renew/check are
atomic with respect to each other even across processes. A grant
rewrites the file in place and syncs it under that lock. The clock is
injectable (``clock=time.time`` by default) so tests drive expiry
deterministically without sleeping.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.campaign.durable import locked
from repro.errors import LeaseError, LeaseExpiredError, StaleWriterError


@dataclass(frozen=True)
class Lease:
    """An immutable grant: ``holder`` owns ``name`` at ``epoch`` until expiry."""

    name: str
    holder: str
    epoch: int
    granted_at: float
    ttl: float

    @property
    def expires_at(self) -> float:
        """Wall-clock deadline after which the lease may be taken over."""
        return self.granted_at + self.ttl

    def expired(self, now: float) -> bool:
        """True when ``now`` is past the deadline (takeover is allowed)."""
        return now >= self.expires_at

    def to_dict(self) -> dict[str, Any]:
        """Serialize to the on-disk JSON shape."""
        return {
            "name": self.name,
            "holder": self.holder,
            "epoch": self.epoch,
            "granted_at": self.granted_at,
            "ttl": self.ttl,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Lease":
        """Rebuild a lease from its on-disk JSON shape."""
        try:
            return cls(
                name=str(payload["name"]),
                holder=str(payload["holder"]),
                epoch=int(payload["epoch"]),
                granted_at=float(payload["granted_at"]),
                ttl=float(payload["ttl"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise LeaseError(f"malformed lease payload: {exc}") from None


class LeaseFile:
    """One named lease persisted at ``path``; see the module docstring."""

    def __init__(self, path: str | os.PathLike,
                 clock: Callable[[], float] = time.time) -> None:
        """Bind to ``path`` (created on first acquire) with an injectable clock."""
        self.path = Path(path)
        self.clock = clock

    # -- locked file primitives ------------------------------------------

    def _locked(self, mutate: Callable[[Lease | None], Lease | None]) -> Lease | None:
        """Run ``mutate(current)`` under an exclusive lock on the lease file.

        ``mutate`` returns the lease to persist (or None to leave the
        file as-is); its exceptions propagate with the file untouched.
        """
        with locked(self.path) as fd:
            size = os.fstat(fd).st_size
            current: Lease | None = None
            if size:
                raw = os.pread(fd, size, 0)
                try:
                    current = Lease.from_dict(json.loads(raw.decode("utf-8")))
                except (ValueError, LeaseError):
                    current = None  # torn lease file: treat as free
            updated = mutate(current)
            if updated is not None and updated is not current:
                data = (json.dumps(updated.to_dict(), sort_keys=True) + "\n").encode("utf-8")
                os.ftruncate(fd, 0)
                os.pwrite(fd, data, 0)
                os.fsync(fd)
            return updated

    # -- protocol --------------------------------------------------------

    def read(self) -> Lease | None:
        """The current lease on disk, or None when free/torn."""
        seen: list[Lease | None] = [None]

        def peek(current: Lease | None) -> None:
            seen[0] = current
            return None

        self._locked(peek)
        return seen[0]

    def acquire(self, holder: str, ttl: float) -> Lease:
        """Claim the lease for ``holder``, bumping the epoch.

        Succeeds when the lease is free, expired, or already held by
        ``holder`` (re-acquire after a suspected lapse). A live lease
        held by someone else raises :class:`LeaseError`. Every grant --
        including a re-acquire -- increments the epoch, fencing out any
        writer still presenting the previous grant.
        """
        if ttl <= 0:
            raise LeaseError(f"lease ttl must be positive, got {ttl}")
        now = self.clock()

        def grant(current: Lease | None) -> Lease:
            if current is not None and current.holder != holder \
                    and not current.expired(now):
                raise LeaseError(
                    f"lease {self.path.name} held by {current.holder!r} "
                    f"(epoch {current.epoch}) for another "
                    f"{current.expires_at - now:.3f}s")
            epoch = 1 if current is None else current.epoch + 1
            return Lease(name=self.path.stem, holder=holder, epoch=epoch,
                         granted_at=now, ttl=float(ttl))

        granted = self._locked(grant)
        assert granted is not None
        return granted

    def renew(self, lease: Lease, ttl: float | None = None) -> Lease:
        """Extend ``lease`` from now; only the current (holder, epoch) may.

        Raises :class:`StaleWriterError` when the file names a different
        holder or epoch (takeover happened), and
        :class:`LeaseExpiredError` when the grant lapsed before the
        renewal -- even if nobody took over yet, the holder must
        re-acquire so the epoch advances.
        """
        now = self.clock()

        def extend(current: Lease | None) -> Lease:
            self._validate(current, lease, now)
            return Lease(name=lease.name, holder=lease.holder, epoch=lease.epoch,
                         granted_at=now, ttl=float(ttl if ttl is not None else lease.ttl))

        renewed = self._locked(extend)
        assert renewed is not None
        return renewed

    def check(self, lease: Lease) -> None:
        """Validate that ``lease`` is still the live grant; raise if not.

        The fence primitive: :class:`LeaseExpiredError` for a lapsed
        deadline, :class:`StaleWriterError` for a takeover.
        """
        now = self.clock()

        def validate(current: Lease | None) -> None:
            self._validate(current, lease, now)
            return None

        self._locked(validate)

    def guard(self, lease: Lease) -> Callable[[], None]:
        """A zero-argument fence closure for ``Journal(path, fence=...)``.

        Each call re-reads the lease file under its lock and raises the
        typed error when ``lease`` is no longer the live grant, so every
        fenced journal append re-validates immediately before writing.
        """
        return lambda: self.check(lease)

    def _validate(self, current: Lease | None, lease: Lease, now: float) -> None:
        """Shared check/renew validation (runs under the file lock)."""
        if current is None or current.holder != lease.holder \
                or current.epoch != lease.epoch:
            held = "free" if current is None else (
                f"held by {current.holder!r} at epoch {current.epoch}")
            raise StaleWriterError(
                f"lease {self.path.name}: writer {lease.holder!r} at epoch "
                f"{lease.epoch} was superseded (now {held})")
        if current.expired(now):
            raise LeaseExpiredError(
                f"lease {self.path.name}: holder {lease.holder!r} epoch "
                f"{lease.epoch} expired {now - current.expires_at:.3f}s ago")
