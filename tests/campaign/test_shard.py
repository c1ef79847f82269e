"""Shard index: append/merge semantics, O(1) counts, locked compaction."""

from __future__ import annotations

import json

import pytest

from repro.campaign.spec import canonical_json
from repro.campaign.shard import (
    SHARD_COUNT,
    STORE_LAYOUT_VERSION,
    CompactionReport,
    ShardIndex,
    StoreIndex,
    read_store_meta,
    shard_prefix,
    write_store_meta,
)
from repro.errors import CampaignError


def _put(key, seconds=1.0, **extra):
    row = {"op": "put", "key": key, "path": f"objects/{key[:2]}/{key}.json",
           "checksum": f"c-{key}-{seconds}", "point": {}, "status": "done",
           "seconds": seconds, "wall_ms": None}
    row.update(extra)
    return row


def test_shard_prefix_validates_two_hex_digits():
    assert shard_prefix("ab12ff") == "ab"
    assert shard_prefix("AB12FF") == "ab"
    for bad in ("", "a", "zz99", "g0aa"):
        with pytest.raises(CampaignError):
            shard_prefix(bad)
    assert SHARD_COUNT == 256  # two hex digits, the objects/ fan-out


def test_append_lookup_last_wins_and_tombstones(tmp_path):
    shard = ShardIndex(tmp_path, "ab")
    shard.append(_put("ab01", seconds=1.0))
    shard.append(_put("ab02", seconds=2.0))
    shard.append(_put("ab01", seconds=3.0))  # supersedes the first row
    assert shard.lookup("ab01")["seconds"] == 3.0
    assert shard.lookup("ab02")["seconds"] == 2.0
    assert shard.count() == 2

    shard.append({"op": "quarantine", "key": "ab02", "reason": "tampered"})
    assert shard.lookup("ab02") is None
    assert shard.count() == 1


def test_cache_invalidates_on_cross_instance_writes(tmp_path):
    writer = ShardIndex(tmp_path, "ab")
    reader = ShardIndex(tmp_path, "ab")
    writer.append(_put("ab01"))
    assert reader.count() == 1  # prime the reader's cache
    writer.append(_put("ab02"))  # a different handle, same files
    assert reader.count() == 2
    assert set(reader.rows()) == {"ab01", "ab02"}


def test_torn_log_line_is_skipped_not_fatal(tmp_path):
    shard = ShardIndex(tmp_path, "ab")
    shard.append(_put("ab01"))
    with open(shard.log_path, "ab") as fh:
        fh.write(b'{"op": "put", "key": "ab02", "trunc')  # crash mid-append
    assert set(shard.rows()) == {"ab01"}
    shard.append(_put("ab03"))  # heals the torn tail before writing
    assert set(shard.rows()) == {"ab01", "ab03"}


def test_compact_folds_log_and_reports_drops(tmp_path):
    shard = ShardIndex(tmp_path, "ab")
    shard.append(_put("ab01", seconds=1.0))
    shard.append(_put("ab01", seconds=2.0))  # superseded
    shard.append(_put("ab02"))
    shard.append({"op": "quarantine", "key": "ab02", "reason": "bad"})
    log_bytes = shard.log_path.stat().st_size

    report = shard.compact()
    assert report.shards == 1
    assert report.rows_kept == 1
    assert report.superseded == 1
    assert report.quarantined_dropped == 1
    assert report.log_bytes_merged == log_bytes
    assert shard.log_path.stat().st_size == 0  # log folded away

    snapshot = json.loads(shard.compact_path.read_text(encoding="utf-8"))
    assert snapshot["layout"] == STORE_LAYOUT_VERSION
    assert snapshot["count"] == 1
    assert set(snapshot["rows"]) == {"ab01"}
    assert snapshot["rows"]["ab01"]["seconds"] == 2.0


def test_compacted_count_is_read_from_the_snapshot_head(tmp_path):
    shard = ShardIndex(tmp_path, "ab")
    for i in range(5):
        shard.append(_put(f"ab{i:02x}"))
    shard.compact()
    # "count" sorts first, so a fresh handle answers from a 64-byte read
    head = shard.compact_path.read_bytes()[:64]
    assert head.startswith(b'{"count": 5')
    fresh = ShardIndex(tmp_path, "ab")
    assert fresh.count() == 5
    assert fresh._cache is None  # count() never parsed the rows
    # a pending log entry forces the full merge again
    fresh.append({"op": "quarantine", "key": "ab00", "reason": "x"})
    assert fresh.count() == 4


def test_compact_is_idempotent_and_survives_reopen(tmp_path):
    shard = ShardIndex(tmp_path, "ab")
    shard.append(_put("ab01"))
    shard.compact()
    second = shard.compact()  # nothing left to fold
    assert second.rows_kept == 1 and second.superseded == 0
    assert ShardIndex(tmp_path, "ab").lookup("ab01") is not None


def test_store_index_routes_counts_and_iterates_in_order(tmp_path):
    index = StoreIndex(tmp_path)
    pack = "objects/packs/p1.pack"
    index.record_puts([
        {"key": "ff01", "path": pack, "offset": 0, "length": 10,
         "checksum": "c1", "point": {"case": "reduce"}, "status": "done",
         "seconds": 1.0, "wall_ms": 4.5},
        {"key": "ab02", "path": pack, "offset": 11, "length": 12,
         "checksum": "c2", "point": {"case": "sort"}, "status": "done",
         "seconds": 2.0, "wall_ms": None},
        {"key": "ab03", "path": pack, "offset": 24, "length": 9,
         "checksum": "c3", "point": {"case": "merge"}, "status": "failed",
         "seconds": None, "wall_ms": None},
    ])
    assert index.prefixes() == ["ab", "ff"]
    assert index.count() == 3
    assert index.lookup("ff01")["wall_ms"] == 4.5
    assert index.lookup("ab02")["path"] == pack
    assert index.locate("ab02") == (pack, 11, 12)
    assert [key for key, _ in index.rows()] == ["ab02", "ab03", "ff01"]
    # one batch of rows for shard "ab", in order
    assert [row["key"] for row in index.shard("ab")._read_log()] == \
        ["ab02", "ab03"]

    index.record_quarantine("ab02", "tampered")
    report = index.compact()
    assert report.shards == 2
    assert report.rows_kept == 2 and report.quarantined_dropped == 1
    assert [key for key, _ in index.rows()] == ["ab03", "ff01"]


def test_compaction_report_merge_and_summary():
    total = CompactionReport()
    total.merge(CompactionReport(shards=1, rows_kept=3, superseded=1,
                                 quarantined_dropped=0, log_bytes_merged=10))
    total.merge(CompactionReport(shards=1, rows_kept=2, superseded=0,
                                 quarantined_dropped=2, log_bytes_merged=5))
    assert total.shards == 2 and total.rows_kept == 5
    assert "2 shard(s) compacted: 5 row(s) kept" in total.summary()
    assert "1 superseded" in total.summary()
    assert "2 quarantined row(s) dropped" in total.summary()


def test_store_meta_roundtrip_and_torn_marker(tmp_path):
    assert read_store_meta(tmp_path) is None
    write_store_meta(tmp_path)
    meta = read_store_meta(tmp_path)
    assert meta == {"layout": STORE_LAYOUT_VERSION, "shards": SHARD_COUNT}
    (tmp_path / "STORE_META.json").write_text('{"layout": 2', encoding="utf-8")
    assert read_store_meta(tmp_path) is None  # torn marker reads as v1


def test_locator_cache_folds_new_lines_and_rebuilds_after_compaction(tmp_path):
    writer = ShardIndex(tmp_path, "ab")
    reader = ShardIndex(tmp_path, "ab")
    writer.append(_put("ab01"), _put("ab02"))
    assert set(reader.locators()) == {"ab01", "ab02"}
    folded = reader._cache_offset
    assert folded == writer.log_path.stat().st_size

    # an unterminated fragment is left for later; complete lines fold in
    writer.append(_put("ab03", offset=7, length=5))
    with open(writer.log_path, "ab") as fh:
        fh.write(b'{"op": "put", "key": "ab04", "trunc')  # crash mid-append
    assert reader.locate("ab03") == (_put("ab03")["path"], 7, 5)
    assert "ab04" not in reader.locators()
    assert reader._cache_offset > folded  # only the new bytes were read
    writer.append({"op": "quarantine", "key": "ab01", "reason": "x"})
    assert set(reader.locators()) == {"ab02", "ab03"}

    # another handle's compaction shrinks the log: the reader rebuilds
    writer.compact()
    writer.append(_put("ab05"))
    assert set(reader.locators()) == {"ab02", "ab03", "ab05"}
    assert reader.count() == 3


def test_locators_agree_with_full_rows_on_torn_and_loose_lines(tmp_path):
    # The read path folds only locators; a row torn right after its point
    # dict (ending in "}" like a whole row), a loose row without offset
    # and a tombstone must fold exactly as the full-row parse reads them.
    shard = ShardIndex(tmp_path, "ab")
    packed = _put("ab" + "0" * 62, offset=40, length=7,
                  checksum="0123456789abcdef",
                  point={"machine": "A", "threads": 2})
    line = canonical_json(packed).encode()
    torn = line[:line.index(b',"seconds"')].replace(b"ab" + b"0" * 62,
                                                    b"ab" + b"1" * 62)
    assert torn.endswith(b"}")
    shard.append(packed, _put("ab02"))  # a packed and a loose row
    with open(shard.log_path, "ab") as fh:
        fh.write(torn + b"\n")  # crash mid-append, healed
    shard.append({"op": "quarantine", "key": "ab02", "reason": "x"})

    assert shard.locators() == {
        "ab" + "0" * 62: ("objects/ab/ab" + "0" * 62 + ".json", 40, 7)}
    assert set(shard.rows()) == set(shard.locators())
