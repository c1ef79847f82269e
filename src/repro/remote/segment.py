"""Sealed segments: one claimed wave's result rows and their manifest.

A *segment* is one executor's result rows for one claimed wave at one
registry epoch. The executor *seals* it in memory (:func:`seal`): a
manifest records the row count, and the byte size and content checksum
of the rows' canonical lines, and travels beside the rows in one HTTP
body. The executor writes nothing to disk; whether a ship still counts
is the registry's call (its epoch check), not the segment's.

The checksum is defined over the canonical serialization of the rows,
so the coordinator can verify a shipped segment from its JSON body
alone -- no shared filesystem required -- and two executors that
computed the same rows independently seal the same checksum.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.campaign.spec import canonical_json
from repro.errors import SegmentError


def _lines(rows: Sequence[Mapping[str, Any]]) -> bytes:
    """The canonical line serialization of ``rows``, one line per row."""
    return "".join(canonical_json(dict(row)) + "\n"
                   for row in rows).encode("utf-8")


def rows_checksum(rows: Sequence[Mapping[str, Any]]) -> str:
    """sha256 (hex) over the canonical line serialization of ``rows``."""
    return hashlib.sha256(_lines(rows)).hexdigest()


@dataclass(frozen=True)
class SegmentManifest:
    """Immutable description of a sealed segment, shipped alongside its rows."""

    segment: str
    executor: str
    epoch: int
    wave: str
    rows: int
    size: int
    checksum: str

    def to_dict(self) -> dict[str, Any]:
        """Serialize to the on-wire JSON shape."""
        return {
            "segment": self.segment,
            "executor": self.executor,
            "epoch": self.epoch,
            "wave": self.wave,
            "rows": self.rows,
            "size": self.size,
            "checksum": self.checksum,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SegmentManifest":
        """Rebuild a manifest from JSON; malformed input raises SegmentError."""
        try:
            return cls(
                segment=str(payload["segment"]),
                executor=str(payload["executor"]),
                epoch=int(payload["epoch"]),
                wave=str(payload["wave"]),
                rows=int(payload["rows"]),
                size=int(payload["size"]),
                checksum=str(payload["checksum"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SegmentError(f"malformed segment manifest: {exc}") from None


def seal(rows: Sequence[Mapping[str, Any]], *, segment: str, executor: str,
         epoch: int, wave: str) -> SegmentManifest:
    """The manifest of ``rows`` sealed as ``segment``; touches no file.

    ``size`` and ``checksum`` cover the rows' canonical lines, so a
    receiver recomputes both from the shipped rows alone
    (:func:`verify_rows` checks the checksum).
    """
    data = _lines(rows)
    return SegmentManifest(
        segment=segment,
        executor=executor,
        epoch=int(epoch),
        wave=wave,
        rows=len(rows),
        size=len(data),
        checksum=hashlib.sha256(data).hexdigest(),
    )


def verify_rows(manifest: SegmentManifest,
                rows: Sequence[Mapping[str, Any]]) -> None:
    """Check shipped ``rows`` against their ``manifest``; raise on mismatch.

    Both the row count and the content checksum must match -- a dropped
    row, an extra row, or any mutated field changes the canonical
    serialization and is rejected before a single row is ingested.
    """
    if len(rows) != manifest.rows:
        raise SegmentError(
            f"segment {manifest.segment}: manifest says {manifest.rows} "
            f"row(s), shipment carries {len(rows)}")
    actual = rows_checksum(rows)
    if actual != manifest.checksum:
        raise SegmentError(
            f"segment {manifest.segment}: checksum mismatch "
            f"(manifest {manifest.checksum[:16]}..., rows {actual[:16]}...)")


def result_row(task_id: str, point: Mapping[str, Any],
               payload: Mapping[str, Any],
               wall_ms: float | None = None) -> dict[str, Any]:
    """Build the canonical segment row for one finished task.

    ``payload`` is the executor's result dict (``status`` / ``seconds``
    / ``error``); ``point`` is the task's point spec as a dict. Rows
    deliberately carry no timestamps or host names in the checksummed
    body -- determinism of the row content is what makes re-shipped and
    reassigned segments collapse to one ingest. Keys are built in
    sorted order, so a row's JSON on the wire lists its fields in the
    order of its canonical line.
    """
    row = {
        "point": dict(sorted(point.items())),
        "result": {
            "error": payload.get("error"),
            "seconds": payload.get("seconds"),
            "status": payload.get("status"),
        },
        "task_id": task_id,
    }
    if wall_ms is not None:
        row["wall_ms"] = wall_ms
    return row
