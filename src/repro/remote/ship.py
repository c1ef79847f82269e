"""Coordinator-side segment ingest: verify, dedup, land in the shared store.

The ingest path is what makes multi-host shipping *exactly-once*
without a shared filesystem lock. Three layers of defense, cheapest
first:

1. **Manifest verification** -- a shipped segment whose row count or
   content checksum disagrees with its sealed manifest is rejected
   whole (:class:`~repro.errors.SegmentError`); no partial ingest.
2. **Segment ledger** -- every ingested segment's content checksum is
   recorded in an append-only ledger next to the campaign journal.
   Because result rows are deterministic and carry no
   timestamps/host names, a re-shipped segment (duplicate ship fault,
   retry after a lost ack) or an identical segment recomputed by a
   reassigned executor hashes identically and is skipped whole.
3. **Index dedup** -- rows from *overlapping but non-identical*
   segments (a reassigned wave sharded differently) are deduplicated
   one by one against the store: a key that already resolves is
   counted ``deduped`` and not re-put, so the persistent shard index
   gains exactly one row per unique result. The rest of the segment
   lands with one :meth:`~repro.campaign.store.ResultStore.put_many`:
   one pack file and one index append per shard touched.

Ingest deliberately does **not** append to the campaign journal: the
campaign executor's single finish path journals every dispatched task
exactly once (with ``persist=False`` since the rows already landed
here), keeping the journal shape identical between local and remote
execution -- which is half of the bit-identity story.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.campaign.spec import PointSpec
from repro.campaign.store import DONE, NA, Journal, ResultStore
from repro.errors import CampaignError, SegmentError
from repro.remote.segment import SegmentManifest, verify_rows
from repro.trace import get_tracer

#: Statuses ingest will land in the store; anything else (failed rows,
#: unknown drift) is skipped and left for the coordinator to retry.
_STORABLE = (DONE, NA)


@dataclass
class IngestReport:
    """Cumulative counters for one ingestor (one campaign's coordinator)."""

    segments: int = 0            #: segments verified and processed
    duplicate_segments: int = 0  #: whole segments skipped via the ledger
    rows: int = 0                #: rows examined across processed segments
    ingested: int = 0            #: rows newly landed in the store
    deduped: int = 0             #: rows already present (index/object hit)
    skipped: int = 0             #: non-storable rows (failed / drifted)
    by_executor: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """Serialize for metrics endpoints and CLI summaries."""
        return {
            "segments": self.segments,
            "duplicate_segments": self.duplicate_segments,
            "rows": self.rows,
            "ingested": self.ingested,
            "deduped": self.deduped,
            "skipped": self.skipped,
            "by_executor": dict(sorted(self.by_executor.items())),
        }


class SegmentLedger:
    """Append-only record of ingested segment checksums (one campaign).

    One JSON line per ingested segment; appends go through
    :class:`~repro.campaign.store.Journal` so they inherit the flock +
    single-``write()`` discipline and torn-tail healing. The ledger is
    the idempotency barrier: :meth:`seen` answers "was this exact
    content ingested already?" across process restarts, which is what
    keeps a resume from double-ingesting segments that landed before a
    crash.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        """Bind to ``path`` (created on first record)."""
        self.path = Path(path)
        self._journal = Journal(self.path)
        self._seen: set[str] | None = None

    def _load(self) -> set[str]:
        if self._seen is None:
            self._seen = {
                entry["checksum"] for entry in self._journal.entries()
                if isinstance(entry.get("checksum"), str)
            }
        return self._seen

    def seen(self, checksum: str) -> bool:
        """True when a segment with this content checksum was ingested."""
        return checksum in self._load()

    def record(self, manifest: SegmentManifest, ingested: int, deduped: int) -> None:
        """Durably record ``manifest`` as ingested."""
        self._journal.append({
            "checksum": manifest.checksum,
            "segment": manifest.segment,
            "executor": manifest.executor,
            "epoch": manifest.epoch,
            "wave": manifest.wave,
            "rows": manifest.rows,
            "ingested": ingested,
            "deduped": deduped,
        })
        self._load().add(manifest.checksum)


class SegmentIngestor:
    """Lands shipped segments in one campaign's shared store, exactly once."""

    def __init__(self, store: ResultStore, ledger_path: str | os.PathLike) -> None:
        """Ingest into ``store``, recording segments at ``ledger_path``."""
        self.store = store
        self.ledger = SegmentLedger(ledger_path)
        self.report = IngestReport()

    def ingest(self, manifest: SegmentManifest,
               rows: Sequence[Mapping[str, Any]]) -> IngestReport:
        """Verify and ingest one shipped segment; returns the running report.

        Raises :class:`SegmentError` (nothing ingested) when the rows
        fail manifest verification; otherwise idempotent -- duplicate
        segments and already-present rows are counted, not re-landed.
        """
        started = time.perf_counter()
        verify_rows(manifest, rows)
        if self.ledger.seen(manifest.checksum):
            self.report.duplicate_segments += 1
            self._trace(manifest, started, duplicate=True)
            return self.report
        self.report.segments += 1
        deduped = 0
        items, queued = [], set()
        for row in rows:
            self.report.rows += 1
            point = self._point(row)
            status = (row.get("result") or {}).get("status")
            if point is None or status not in _STORABLE:
                self.report.skipped += 1
                continue
            key = self.store.key_for(point)
            if key in queued or self.store.contains(key):
                deduped += 1
                continue
            queued.add(key)
            items.append((key, point, dict(row["result"]), row.get("wall_ms")))
        self.store.put_many(items)  # the whole segment: one pack
        ingested = len(items)
        self.ledger.record(manifest, ingested, deduped)
        self.report.ingested += ingested
        self.report.deduped += deduped
        by = self.report.by_executor
        by[manifest.executor] = by.get(manifest.executor, 0) + ingested
        self._trace(manifest, started, duplicate=False)
        return self.report

    @staticmethod
    def _point(row: Mapping[str, Any]) -> PointSpec | None:
        """Parse a row's point spec; schema drift reads as non-storable."""
        payload = row.get("point")
        if not isinstance(payload, Mapping):
            return None
        try:
            return PointSpec.from_dict(payload, ignore_unknown=True)
        except (CampaignError, TypeError):
            # missing fields surface as TypeError from the constructor
            return None

    @staticmethod
    def _trace(manifest: SegmentManifest, started: float, duplicate: bool) -> None:
        """Emit one ``remote.ingest`` span for a processed segment."""
        tracer = get_tracer()
        if tracer.enabled:
            tracer.record(
                "remote.ingest", time.perf_counter() - started,
                category="remote", track="remote",
                segment=manifest.segment, executor=manifest.executor,
                wave=manifest.wave, rows=manifest.rows, duplicate=duplicate)
