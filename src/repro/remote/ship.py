"""Coordinator-side segment ingest: verify, dedup, land in the shared store.

The ingest path is what makes multi-host shipping *exactly-once*
without a shared filesystem lock. Two checks, cheapest first:

1. **Manifest verification** -- a shipped segment whose row count or
   content checksum disagrees with its sealed manifest is rejected
   whole (:class:`~repro.errors.SegmentError`); no partial ingest.
2. **Key dedup** -- every row whose key the store already holds is
   counted ``deduped`` and not re-put, so the store gains exactly one
   row per unique result. Because result rows
   are deterministic, this one check absorbs every duplicate the
   protocol can produce: a re-shipped segment (duplicate ship fault,
   retry after a lost ack), a stale holder's late ship, an identical
   segment recomputed by a reassigned executor, and overlapping
   segments of a wave sharded differently -- across daemon restarts
   too, since the check reads the store itself. The rest of the segment
   lands with one :meth:`~repro.campaign.store.ResultStore.put_many`:
   one transaction.

Ingest deliberately does **not** append to the campaign journal: the
campaign executor's single finish path journals every dispatched task
exactly once (with ``persist=False`` since the rows already landed
here), keeping the journal shape identical between local and remote
execution -- which is half of the bit-identity story.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.campaign.spec import PointSpec
from repro.campaign.store import DONE, NA, ResultStore
from repro.errors import CampaignError
from repro.remote.segment import SegmentManifest, verify_rows
from repro.trace import get_tracer

#: Statuses ingest will land in the store; anything else (failed rows,
#: unknown drift) is skipped and left for the coordinator to retry.
_STORABLE = (DONE, NA)


@dataclass
class IngestReport:
    """Cumulative counters for one ingestor (one campaign's coordinator)."""

    segments: int = 0            #: segments verified and processed
    rows: int = 0                #: rows examined across processed segments
    ingested: int = 0            #: rows newly landed in the store
    deduped: int = 0             #: rows already present (key hit)
    skipped: int = 0             #: non-storable rows (failed / drifted)

    def to_dict(self) -> dict[str, Any]:
        """Serialize for metrics endpoints and CLI summaries."""
        return {
            "segments": self.segments,
            "rows": self.rows,
            "ingested": self.ingested,
            "deduped": self.deduped,
            "skipped": self.skipped,
        }


class SegmentIngestor:
    """Lands shipped segments in one campaign's shared store, exactly once."""

    def __init__(self, store: ResultStore) -> None:
        """Ingest into ``store``, deduplicating against its keys."""
        self.store = store
        self.report = IngestReport()

    def ingest(self, manifest: SegmentManifest,
               rows: Sequence[Mapping[str, Any]]) -> IngestReport:
        """Verify and ingest one shipped segment; returns the running report.

        Raises :class:`SegmentError` (nothing ingested) when the rows
        fail manifest verification; otherwise idempotent -- rows whose
        key the store already holds are counted, not re-landed.
        """
        started = time.perf_counter()
        verify_rows(manifest, rows)
        self.report.segments += 1
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
                self.report.deduped += 1
                continue
            queued.add(key)
            items.append((key, point, dict(row["result"]), row.get("wall_ms")))
        self.store.put_many(items)  # the whole segment: one transaction
        self.report.ingested += len(items)
        self._trace(manifest, started)
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
    def _trace(manifest: SegmentManifest, started: float) -> None:
        """Emit one ``remote.ingest`` span for a processed segment."""
        tracer = get_tracer()
        if tracer.enabled:
            tracer.record(
                "remote.ingest", time.perf_counter() - started,
                category="remote", track="remote",
                segment=manifest.segment, executor=manifest.executor,
                wave=manifest.wave, rows=manifest.rows)
