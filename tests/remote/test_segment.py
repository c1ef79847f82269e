"""Segments and manifests: sealing, verification, and content identity."""

from __future__ import annotations

import pytest

from repro.errors import SegmentError
from repro.remote.segment import (
    SegmentManifest,
    result_row,
    rows_checksum,
    seal,
    verify_rows,
)

POINT = {"machine": "A", "backend": "GCC-TBB", "case": "reduce",
         "size_exp": 8, "threads": 2, "mode": "model",
         "allocator": None, "min_time": 0.0}


def _rows(n: int) -> list[dict]:
    return [
        result_row(f"t{i}", POINT,
                   {"status": "done", "seconds": 0.1 * i, "error": None},
                   wall_ms=1.5)
        for i in range(n)
    ]


def test_writer_seals_a_verifiable_segment():
    rows = _rows(3)
    manifest = seal(rows, segment="w1-e1", executor="ex-1", epoch=1,
                    wave="c/w1")
    assert (manifest.segment, manifest.executor, manifest.epoch,
            manifest.wave, manifest.rows) == ("w1-e1", "ex-1", 1, "c/w1", 3)
    assert manifest.checksum == rows_checksum(rows)
    verify_rows(manifest, rows)  # the shipped rows pass as sealed


def test_verify_rejects_row_count_mismatch():
    rows = _rows(3)
    manifest = seal(rows, segment="s", executor="e", epoch=1, wave="w")
    with pytest.raises(SegmentError, match="manifest says 3"):
        verify_rows(manifest, rows[:2])


def test_verify_rejects_mutated_content():
    rows = _rows(3)
    manifest = seal(rows, segment="s", executor="e", epoch=1, wave="w")
    rows[1]["result"]["seconds"] = 99.0
    with pytest.raises(SegmentError, match="checksum mismatch"):
        verify_rows(manifest, rows)


def test_checksum_depends_only_on_content_not_writer():
    """Two executors computing the same rows seal identical checksums."""
    a = seal(_rows(4), segment="seg", executor="ex-1", epoch=1, wave="w")
    b = seal([dict(row) for row in _rows(4)], segment="seg",
             executor="ex-2", epoch=4, wave="w")
    assert (a.checksum, a.size) == (b.checksum, b.size)


def test_manifest_roundtrip_and_malformed():
    manifest = seal(_rows(1), segment="s", executor="e", epoch=2, wave="w")
    assert SegmentManifest.from_dict(manifest.to_dict()) == manifest
    with pytest.raises(SegmentError, match="malformed"):
        SegmentManifest.from_dict({"segment": "s"})
