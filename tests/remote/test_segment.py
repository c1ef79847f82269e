"""Segments and manifests: sealing, verification, and content identity."""

from __future__ import annotations

import json

import pytest

from repro.errors import SegmentError
from repro.remote.segment import (
    SegmentManifest,
    SegmentWriter,
    read_segment,
    result_row,
    rows_checksum,
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


def test_writer_seals_a_verifiable_segment(tmp_path):
    writer = SegmentWriter(tmp_path, "w1-e1-l1",
                           executor="ex-1", epoch=1, wave="c/w1")
    for row in _rows(3):
        writer.append(row)
    manifest = writer.seal()
    assert manifest.rows == 3
    assert manifest.executor == "ex-1"
    loaded_manifest, loaded_rows = read_segment(writer.path)
    assert loaded_manifest == manifest
    assert loaded_rows == writer.rows()


def test_sealed_segment_rejects_appends(tmp_path):
    writer = SegmentWriter(tmp_path, "w1", executor="ex-1", epoch=1, wave="w")
    writer.append(_rows(1)[0])
    writer.seal()
    with pytest.raises(SegmentError, match="sealed"):
        writer.append(_rows(1)[0])


def test_verify_rejects_row_count_mismatch(tmp_path):
    rows = _rows(3)
    manifest = SegmentManifest(segment="s", executor="e", epoch=1, wave="w",
                               rows=3, size=0, checksum=rows_checksum(rows))
    with pytest.raises(SegmentError, match="manifest says 3"):
        verify_rows(manifest, rows[:2])


def test_verify_rejects_mutated_content(tmp_path):
    rows = _rows(3)
    manifest = SegmentManifest(segment="s", executor="e", epoch=1, wave="w",
                               rows=3, size=0, checksum=rows_checksum(rows))
    rows[1]["result"]["seconds"] = 99.0
    with pytest.raises(SegmentError, match="checksum mismatch"):
        verify_rows(manifest, rows)


def test_checksum_depends_only_on_content_not_writer(tmp_path):
    """Two executors computing the same rows seal identical checksums."""
    a = SegmentWriter(tmp_path / "a", "seg", executor="ex-1", epoch=1, wave="w")
    b = SegmentWriter(tmp_path / "b", "seg", executor="ex-2", epoch=4, wave="w")
    for row in _rows(4):
        a.append(row)
        b.append(dict(row))
    assert a.seal().checksum == b.seal().checksum


def test_writer_starts_its_segment_empty(tmp_path):
    """A reused name (a restarted daemon's wave and epoch) drops the old rows."""
    old = SegmentWriter(tmp_path, "w1-e1", executor="ex-1", epoch=1, wave="c/w1")
    old.append(*_rows(3))
    old.seal()
    writer = SegmentWriter(tmp_path, "w1-e1", executor="ex-1", epoch=1,
                           wave="c/w1")
    assert not writer.path.exists() and not writer.manifest_path.exists()
    writer.append(*_rows(2))
    manifest = writer.seal()
    assert manifest.rows == 2
    assert read_segment(writer.path) == (manifest, _rows(2))


def test_read_segment_without_manifest_raises(tmp_path):
    writer = SegmentWriter(tmp_path, "w1", executor="e", epoch=1, wave="w")
    writer.append(_rows(1)[0])
    with pytest.raises(SegmentError, match="no manifest"):
        read_segment(writer.path)


def test_read_segment_with_huge_integer_manifest_raises(tmp_path):
    # An integer past json's 4,300-digit limit raises a plain ValueError.
    writer = SegmentWriter(tmp_path, "w1", executor="e", epoch=1, wave="w")
    writer.append(_rows(1)[0])
    writer.seal()
    (manifest,) = tmp_path.glob("*.manifest.json")
    manifest.write_text('{"rows": ' + "9" * 5000 + "}", encoding="utf-8")
    with pytest.raises(SegmentError, match="corrupt manifest"):
        read_segment(writer.path)


def test_read_segment_detects_post_seal_tampering(tmp_path):
    writer = SegmentWriter(tmp_path, "w1", executor="e", epoch=1, wave="w")
    for row in _rows(2):
        writer.append(row)
    writer.seal()
    with open(writer.path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"task_id": "evil", "point": POINT,
                             "result": {"status": "done", "seconds": 0.0,
                                        "error": None}}) + "\n")
    with pytest.raises(SegmentError):
        read_segment(writer.path)


def test_manifest_roundtrip_and_malformed():
    manifest = SegmentManifest(segment="s", executor="e", epoch=2, wave="w",
                               rows=1, size=10, checksum="ab")
    assert SegmentManifest.from_dict(manifest.to_dict()) == manifest
    with pytest.raises(SegmentError, match="malformed"):
        SegmentManifest.from_dict({"segment": "s"})
