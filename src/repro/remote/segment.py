"""Private journal segments and their sealed manifests.

A *segment* is one executor's private result log for one claimed wave
at one registry epoch: an append-only journal (one canonical-JSON row
per line, written and replayed by the campaign
:class:`~repro.campaign.store.Journal`, so it heals torn tails the same
way) that starts empty and takes the whole wave's rows in one fsynced
append. The executor then *seals* the segment: a manifest is published
next to it (temp file plus rename, :func:`repro.campaign.durable.publish`)
recording the row count, byte size, and a content checksum, after which
the segment is immutable and ready to ship. Whether a ship still counts
is the registry's call (its epoch check), not the segment's.

The checksum is defined over the canonical serialization of the rows
(exactly the bytes the writer appended), so the coordinator can verify
a shipped segment from its JSON body alone -- no shared filesystem
required -- and two executors that computed the same rows
independently produce byte-identical segments, which is what lets the
ingest ledger deduplicate re-shipped and reassigned work.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.campaign.durable import publish
from repro.campaign.spec import canonical_json
from repro.campaign.store import Journal
from repro.errors import SegmentError

MANIFEST_SUFFIX = ".manifest.json"
SEGMENT_SUFFIX = ".seg.jsonl"


def rows_checksum(rows: Sequence[Mapping[str, Any]]) -> str:
    """sha256 (hex) over the canonical line serialization of ``rows``."""
    digest = hashlib.sha256()
    for row in rows:
        digest.update((canonical_json(dict(row)) + "\n").encode("utf-8"))
    return digest.hexdigest()


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
        """Serialize to the on-disk / on-wire JSON shape."""
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


class SegmentWriter:
    """Appends result rows to a private segment, then seals it.

    The segment lives at ``<root>/<name>.seg.jsonl`` and starts empty: a
    segment or manifest an earlier writer left under ``name`` is removed
    first, so a wave id and epoch handed out again by a restarted
    daemon never extend the last run's rows. ``seal()`` publishes the
    manifest atomically and returns it; further appends are a
    programming error.
    """

    def __init__(self, root: str | os.PathLike, name: str, *,
                 executor: str, epoch: int, wave: str) -> None:
        """Start segment ``name`` under ``root``, empty."""
        self.root = Path(root)
        self.name = name
        self.executor = executor
        self.epoch = int(epoch)
        self.wave = wave
        self.path = self.root / f"{name}{SEGMENT_SUFFIX}"
        self.manifest_path = self.root / f"{name}{MANIFEST_SUFFIX}"
        for stale in (self.manifest_path, self.path):
            stale.unlink(missing_ok=True)
        self._journal = Journal(self.path)
        self._sealed = False

    def append(self, *rows: Mapping[str, Any]) -> None:
        """Append result rows as one fsynced write (raises after seal)."""
        if self._sealed:
            raise SegmentError(f"segment {self.name} is sealed; appends rejected")
        self._journal.append(*rows)

    def rows(self) -> list[dict]:
        """All intact rows currently in the segment, in append order."""
        return self._journal.entries()

    def seal(self) -> SegmentManifest:
        """Freeze the segment and publish its manifest atomically.

        Re-reads the rows actually on disk, so the manifest always
        describes real content.
        """
        rows = self.rows()
        manifest = SegmentManifest(
            segment=self.name,
            executor=self.executor,
            epoch=self.epoch,
            wave=self.wave,
            rows=len(rows),
            size=self.path.stat().st_size if self.path.exists() else 0,
            checksum=rows_checksum(rows),
        )
        publish(self.manifest_path,
                json.dumps(manifest.to_dict(), sort_keys=True, indent=2) + "\n")
        self._sealed = True
        return manifest


def read_segment(path: str | os.PathLike) -> tuple[SegmentManifest, list[dict]]:
    """Load a sealed segment from disk and verify it against its manifest.

    ``path`` is the segment file (``*.seg.jsonl``); the manifest is
    expected next to it. Raises :class:`SegmentError` when the manifest
    is missing or the content fails verification.
    """
    seg_path = Path(path)
    name = seg_path.name
    if name.endswith(SEGMENT_SUFFIX):
        name = name[: -len(SEGMENT_SUFFIX)]
    manifest_path = seg_path.with_name(f"{name}{MANIFEST_SUFFIX}")
    try:
        manifest = SegmentManifest.from_dict(
            json.loads(manifest_path.read_text(encoding="utf-8")))
    except FileNotFoundError:
        raise SegmentError(f"segment {name}: no manifest at {manifest_path}") from None
    except ValueError as exc:
        raise SegmentError(f"segment {name}: corrupt manifest: {exc}") from None
    rows = Journal(seg_path).entries()
    verify_rows(manifest, rows)
    return manifest, rows


def result_row(task_id: str, point: Mapping[str, Any],
               payload: Mapping[str, Any],
               wall_ms: float | None = None) -> dict[str, Any]:
    """Build the canonical segment row for one finished task.

    ``payload`` is the executor's result dict (``status`` / ``seconds``
    / ``error``); ``point`` is the task's point spec as a dict. Rows
    deliberately carry no timestamps or host names in the checksummed
    body -- determinism of the row content is what makes re-shipped and
    reassigned segments collapse to one ingest.
    """
    row = {
        "task_id": task_id,
        "point": dict(point),
        "result": {
            "status": payload.get("status"),
            "seconds": payload.get("seconds"),
            "error": payload.get("error"),
        },
    }
    if wall_ms is not None:
        row["wall_ms"] = wall_ms
    return row

