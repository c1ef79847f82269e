"""Segment ingest: manifest verification and the key dedup that make
shipping exactly-once."""

from __future__ import annotations

import pytest

from repro.campaign.spec import PointSpec
from repro.campaign.store import ResultStore
from repro.errors import SegmentError
from repro.remote.segment import (
    SegmentManifest,
    result_row,
    rows_checksum,
)
from repro.remote.ship import SegmentIngestor


def _point(i: int) -> dict:
    return {"machine": "A", "backend": "GCC-TBB", "case": "reduce",
            "size_exp": 8 + i, "threads": 2, "mode": "model",
            "allocator": None, "min_time": 0.0}


def _segment(name: str, rows: list[dict], *,
             executor: str = "ex-1", epoch: int = 1,
             wave: str = "c/w1") -> tuple[SegmentManifest, list[dict]]:
    manifest = SegmentManifest(segment=name, executor=executor, epoch=epoch,
                               wave=wave, rows=len(rows), size=0,
                               checksum=rows_checksum(rows))
    return manifest, rows


def _done_rows(n: int, start: int = 0) -> list[dict]:
    return [
        result_row(f"t{i}", _point(i),
                   {"status": "done", "seconds": 0.25, "error": None},
                   wall_ms=2.0)
        for i in range(start, start + n)
    ]


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


@pytest.fixture
def ingestor(store):
    return SegmentIngestor(store)


def test_fresh_segment_lands_every_storable_row(ingestor, store):
    manifest, rows = _segment("s1", _done_rows(3))
    report = ingestor.ingest(manifest, rows)
    assert report.segments == 1
    assert report.ingested == 3
    assert report.deduped == 0
    for row in rows:
        point = PointSpec.from_dict(row["point"])
        record = store.load_key(store.key_for(point))
        assert record is not None
        assert record["result"]["seconds"] == 0.25


def test_reshipped_segment_dedups_every_row_in_the_index(ingestor):
    manifest, rows = _segment("s1", _done_rows(3))
    ingestor.ingest(manifest, rows)
    report = ingestor.ingest(manifest, rows)
    assert report.deduped == 3
    assert report.ingested == 3  # unchanged: nothing landed twice


def test_recomputed_identical_segment_dedups_even_under_a_new_name(ingestor):
    """A reassigned executor's recomputed segment hashes identically."""
    rows = _done_rows(3)
    first, _ = _segment("s1-e1-l1", rows, executor="ex-1")
    second, _ = _segment("s1-e2-l1", [dict(r) for r in rows], executor="ex-2")
    assert first.checksum == second.checksum
    ingestor.ingest(first, rows)
    report = ingestor.ingest(second, rows)
    assert report.deduped == 3
    assert report.ingested == 3


def test_overlapping_segments_dedup_row_by_row(ingestor):
    """Different shardings overlap; the key dedup absorbs the overlap."""
    a_manifest, a_rows = _segment("a", _done_rows(3))
    b_manifest, b_rows = _segment("b", _done_rows(3, start=1))  # t1..t3
    ingestor.ingest(a_manifest, a_rows)
    report = ingestor.ingest(b_manifest, b_rows)
    assert report.ingested == 3 + 1  # only t3 was new
    assert report.deduped == 2


def test_failed_rows_are_skipped_not_stored(ingestor, store):
    rows = _done_rows(1) + [
        result_row("t9", _point(9),
                   {"status": "failed", "seconds": None, "error": "boom"})
    ]
    manifest, rows = _segment("s", rows)
    report = ingestor.ingest(manifest, rows)
    assert report.ingested == 1
    assert report.skipped == 1
    assert store.load_key(store.key_for(PointSpec.from_dict(_point(9)))) is None


def test_drifted_point_schema_is_skipped(ingestor):
    bad = result_row("t0", {"machine": "A"},  # not a full point spec
                     {"status": "done", "seconds": 0.1, "error": None})
    manifest, rows = _segment("s", [bad])
    report = ingestor.ingest(manifest, rows)
    assert report.skipped == 1
    assert report.ingested == 0


def test_corrupt_shipment_is_rejected_whole(ingestor, store):
    manifest, rows = _segment("s", _done_rows(3))
    rows[0]["result"]["seconds"] = 123.0  # tampered after sealing
    with pytest.raises(SegmentError, match="checksum mismatch"):
        ingestor.ingest(manifest, rows)
    assert ingestor.report.ingested == 0
    assert store.load_key(store.key_for(PointSpec.from_dict(_point(1)))) is None


def test_ledger_survives_process_restart(tmp_path):
    """The store's own table is the ingest ledger: it outlives the process."""
    manifest, rows = _segment("s", _done_rows(2))
    SegmentIngestor(ResultStore(tmp_path / "cache")).ingest(manifest, rows)
    # a fresh ingestor on a fresh handle (a restarted daemon) lands nothing
    reborn = SegmentIngestor(ResultStore(tmp_path / "cache"))
    report = reborn.ingest(manifest, rows)
    assert report.ingested == 0
    assert report.deduped == 2
    assert reborn.store.count_objects() == 2
