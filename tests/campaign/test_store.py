"""Store: content addressing, fingerprint invalidation, journal tolerance."""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.campaign.fingerprint import model_fingerprint
from repro.campaign.shard import ShardIndex
from repro.campaign.store import (
    DONE,
    FAILED,
    Journal,
    NA,
    PointResult,
    ResultStore,
    cache_key,
    record_checksum,
)
from repro.campaign.spec import PointSpec
from repro.errors import CampaignError


POINT = PointSpec(machine="A", backend="GCC-TBB", case="reduce",
                  size_exp=12, threads=32)
OTHER = PointSpec(machine="B", backend="GCC-TBB", case="reduce",
                  size_exp=12, threads=2)


def _overwrite(span, data: bytes) -> None:
    """Write ``data`` over ``span`` in place, space-padded to its length
    (a pack line cannot change length without moving its neighbours)."""
    assert len(data) <= span.length
    with open(span.path, "r+b") as fh:
        fh.seek(span.offset)
        fh.write(data.ljust(span.length))


def _replant(store, key: str, raw: bytes) -> None:
    """Point ``key``'s index row at ``raw`` -- tampered or hand-written
    record bytes -- written as a pack of their own."""
    pack = store.root / "objects" / "packs" / f"planted-{key[:12]}.pack"
    pack.parent.mkdir(parents=True, exist_ok=True)
    pack.write_bytes(raw + b"\n")
    row = store.index.lookup(key) or {}
    store.index.record_puts([{
        **row, "key": key, "path": pack.relative_to(store.root).as_posix(),
        "offset": 0, "length": len(raw)}])


def _encode(record) -> bytes:
    """A record's stored form (the same JSON a put writes)."""
    return json.dumps(record, sort_keys=True).encode("utf-8")


def test_cache_key_depends_on_point_and_fingerprint():
    other = PointSpec(machine="A", backend="GCC-TBB", case="reduce",
                      size_exp=12, threads=16)
    assert cache_key(POINT, "f1") == cache_key(POINT, "f1")
    assert cache_key(POINT, "f1") != cache_key(other, "f1")
    assert cache_key(POINT, "f1") != cache_key(POINT, "f2")


def test_model_fingerprint_is_stable():
    assert model_fingerprint() == model_fingerprint()
    assert len(model_fingerprint()) == 20


def test_disk_roundtrip(tmp_path):
    store = ResultStore(tmp_path / "cache")
    payload = {"status": DONE, "seconds": 1.5, "error": None}
    key = store.put(POINT, payload)
    assert store.load_key(key)["result"] == payload
    assert store.get(POINT)["result"] == payload
    # the record is one line of a pack; its index row locates the span
    span = store.locate(key)
    assert span.path.parent == tmp_path / "cache" / "objects" / "packs"
    assert json.loads(span.read()) == store.load_key(key)


def test_memory_store_roundtrip():
    store = ResultStore(None)
    store.put(POINT, {"status": DONE, "seconds": 2.0, "error": None})
    result = store.result_for("tid", POINT)
    assert result.seconds == 2.0
    assert result.cached is True
    assert store.hits == 1 and store.writes == 1


def test_fingerprint_change_invalidates(tmp_path):
    old = ResultStore(tmp_path / "cache", fingerprint="model-v1")
    old.put(POINT, {"status": DONE, "seconds": 1.0, "error": None})
    new = ResultStore(tmp_path / "cache", fingerprint="model-v2")
    assert new.get(POINT) is None
    assert new.misses == 1


def test_corrupt_object_is_a_miss(tmp_path):
    store = ResultStore(tmp_path / "cache")
    key = store.put(POINT, {"status": DONE, "seconds": 1.0, "error": None})
    _overwrite(store.locate(key), b"{torn")
    assert store.get(POINT) is None


def test_cached_payload_excludes_run_bookkeeping():
    fresh = PointResult(task_id="t", point=POINT, status=DONE, seconds=3.0,
                        cached=False, attempts=2)
    served = PointResult(task_id="t", point=POINT, status=DONE, seconds=3.0,
                         cached=True, attempts=0)
    assert fresh.payload() == served.payload()


def test_journal_append_and_replay(tmp_path):
    journal = Journal(tmp_path / "journal.jsonl")
    journal.append({"task_id": "a", "status": DONE, "seconds": 1.0})
    journal.append({"task_id": "b", "status": NA})
    assert [e["task_id"] for e in journal.entries()] == ["a", "b"]
    done = journal.completed_ids()
    assert set(done) == {"a", "b"}


def test_journal_tolerates_torn_tail(tmp_path):
    journal = Journal(tmp_path / "journal.jsonl")
    journal.append({"task_id": "a", "status": DONE, "seconds": 1.0})
    with open(journal.path, "a", encoding="utf-8") as fh:
        fh.write('{"task_id": "b", "sta')  # killed mid-write
    assert [e["task_id"] for e in journal.entries()] == ["a"]
    assert set(journal.completed_ids()) == {"a"}


def test_journal_failed_entries_are_not_terminal(tmp_path):
    journal = Journal(tmp_path / "journal.jsonl")
    journal.append({"task_id": "a", "status": DONE, "seconds": 1.0})
    journal.append({"task_id": "b", "status": FAILED, "error": "boom"})
    assert set(journal.completed_ids()) == {"a"}  # b will be retried on resume
    # a later success supersedes the failure
    journal.append({"task_id": "b", "status": DONE, "seconds": 2.0})
    assert set(journal.completed_ids()) == {"a", "b"}


def test_missing_journal_is_empty(tmp_path):
    journal = Journal(tmp_path / "nope.jsonl")
    assert journal.entries() == []
    assert journal.completed_ids() == {}


def test_append_after_torn_tail_heals_the_line(tmp_path):
    # regression: appending to a newline-less torn tail used to fuse the
    # torn fragment and the new entry into one unparseable line
    journal = Journal(tmp_path / "journal.jsonl")
    journal.append({"task_id": "a", "status": DONE, "seconds": 1.0})
    with open(journal.path, "a", encoding="utf-8") as fh:
        fh.write('{"task_id": "b", "sta')  # killed mid-write, no newline
    journal.append({"task_id": "c", "status": DONE, "seconds": 3.0})
    assert [e["task_id"] for e in journal.entries()] == ["a", "c"]
    assert journal.torn_lines() == 1


def test_result_for_tolerates_schema_drifted_records(tmp_path):
    # regression: a record whose `result` slice comes from another schema
    # version used to raise KeyError from result_for; it must be a miss
    store = ResultStore(tmp_path / "cache")
    key = store.put(POINT, {"status": DONE, "seconds": 1.0, "error": None})
    record = json.loads(store.locate(key).read())
    record["result"] = {"note": "written by a newer schema"}
    record["checksum"] = record_checksum(record)  # intact, just drifted
    _replant(store, key, _encode(record))

    assert store.result_for("tid", POINT) is None
    assert store.misses == 1 and store.quarantined == 0  # a miss, not damage
    scan = store.scan()
    assert scan.drifted == 1 and scan.errors == 0


def test_checksum_mismatch_is_quarantined_not_served(tmp_path):
    store = ResultStore(tmp_path / "cache")
    key = store.put(POINT, {"status": DONE, "seconds": 1.0, "error": None})
    span = store.locate(key)
    record = json.loads(span.read())
    record["result"]["seconds"] = 9.0  # tampered value, stale checksum
    _overwrite(span, _encode(record))

    assert store.get(POINT) is None
    assert store.quarantined == 1
    assert store.locate(key) is None  # tombstoned out of the index
    # the pack is never rewritten; the evidence is a copy of the span
    quarantined = tmp_path / "cache" / "quarantine" / f"{key}.json"
    assert quarantined.read_bytes() == span.read() == _encode(record)


def test_records_without_checksum_are_quarantined(tmp_path):
    store = ResultStore(tmp_path / "cache")
    key = store.put(POINT, {"status": DONE, "seconds": 2.5, "error": None})
    record = json.loads(store.locate(key).read())
    del record["checksum"]  # unauditable: it must not be served
    _replant(store, key, _encode(record))

    scan = store.scan()
    assert scan.corrupt == [(key, "missing checksum")]
    assert store.result_for("tid", POINT) is None
    assert store.quarantined == 1 and store.locate(key) is None


def test_two_flipped_bits_never_serve_a_wrong_value(tmp_path):
    # Regression: one flip renaming "checksum" to "chdcksum" plus one
    # turning 0.5 into 0.4 used to leave a checksum-less record that was
    # served, unverified, as a cache hit of 0.4.
    store = ResultStore(tmp_path / "cache")
    key = store.put(POINT, {"status": DONE, "seconds": 0.5, "error": None})
    span = store.locate(key)
    raw = bytearray(span.read())
    raw[raw.index(b'"checksum"') + 3] ^= 0x01  # checksum -> chdcksum
    raw[raw.index(b'"seconds": 0.5') + len(b'"seconds": 0.')] ^= 0x01  # 0.4
    _overwrite(span, bytes(raw))
    assert b'"chdcksum"' in span.read() and b'"seconds": 0.4' in span.read()

    scan = store.scan()
    assert scan.corrupt == [(key, "missing checksum")] and scan.ok == 0
    assert store.result_for("tid", POINT) is None
    assert store.quarantined == 1


def test_put_many_writes_one_pack_of_todays_record_bytes(tmp_path, monkeypatch):
    appends = []
    real = ShardIndex.append
    monkeypatch.setattr(ShardIndex, "append", lambda self, *rows: (
        appends.append((self.prefix, len(rows))), real(self, *rows))[1])
    store = ResultStore(tmp_path / "cache")
    points = [POINT, OTHER, PointSpec(machine="C", backend="GCC-TBB",
                                      case="reduce", size_exp=12, threads=4)]
    keys = store.put_many(
        [(p, {"status": DONE, "seconds": float(i), "error": None}, 0.5)
         for i, p in enumerate(points)])
    assert keys == [store.key_for(p) for p in points]
    packs = sorted((tmp_path / "cache" / "objects" / "packs").iterdir())
    assert len(packs) == 1  # one file for the whole batch
    lines = packs[0].read_bytes().splitlines()
    assert len(lines) == 3
    for key, line in zip(keys, lines):
        span = store.locate(key)
        assert span.path == packs[0] and span.read() == line
        record = json.loads(line)
        assert line == _encode(record)  # the object JSON, byte for byte
        assert record["key"] == key
        assert record["checksum"] == record_checksum(record)
    # One append per shard touched, carrying that shard's rows (keys move
    # with the model fingerprint, so two of them may share a shard).
    assert sorted(appends) == sorted(Counter(k[:2] for k in keys).items())
    assert store.index.lookup(keys[0])["wall_ms"] == 0.5
    assert store.writes == 3

    appends.clear()
    assert store.put_many([]) == []  # nothing to write touches nothing
    assert appends == [] and len(list(packs[0].parent.iterdir())) == 1


def test_stale_row_pointing_at_another_keys_record_is_a_miss(tmp_path):
    store = ResultStore(tmp_path / "cache")
    key = store.put(POINT, {"status": DONE, "seconds": 1.0, "error": None})
    okey = store.put(OTHER, {"status": DONE, "seconds": 2.0, "error": None})
    other = store.locate(okey)
    store.index.record_puts([{
        "key": key, "path": other.path.relative_to(store.root).as_posix(),
        "offset": other.offset, "length": other.length}])

    assert store.scan().corrupt == [(key, "record key != index key")]
    assert store.result_for("tid", POINT) is None  # never OTHER's 2.0
    assert store.quarantined == 1 and store.locate(key) is None
    assert store.result_for("tid", OTHER).seconds == 2.0  # owner unharmed


def test_quarantining_one_record_of_a_pack_keeps_its_neighbours(tmp_path):
    store = ResultStore(tmp_path / "cache")
    points = [POINT, OTHER, PointSpec(machine="C", backend="GCC-TBB",
                                      case="reduce", size_exp=12, threads=4)]
    keys = store.put_many(
        [(p, {"status": DONE, "seconds": float(i + 1), "error": None}, None)
         for i, p in enumerate(points)])
    victim = store.locate(keys[1])
    pristine = victim.path.read_bytes()
    store.corrupt(keys[1], at=0.5)
    damaged = victim.read()

    assert store.result_for("tid", points[1]) is None
    assert store.quarantined == 1
    for i in (0, 2):  # the neighbours are still served
        assert store.result_for("tid", points[i]).seconds == float(i + 1)
    # the pack kept its size and every byte but the flipped one
    now = victim.path.read_bytes()
    assert len(now) == len(pristine)
    assert sum(a != b for a, b in zip(now, pristine)) == 1
    qfile = tmp_path / "cache" / "quarantine" / f"{keys[1]}.json"
    assert qfile.read_bytes() == damaged
    scan = store.scan()
    assert (scan.objects, scan.ok, scan.errors, scan.orphaned) == (2, 2, 0, 1)


def test_scan_flags_misfiled_and_mismatched_objects(tmp_path):
    store = ResultStore(tmp_path / "cache")
    key = store.put(POINT, {"status": DONE, "seconds": 1.0, "error": None})
    record = json.loads(store.locate(key).read())
    # index the record under a key that is not its content hash
    fake = "ab" + "0" * (len(key) - 2)
    record["key"] = fake
    record["checksum"] = record_checksum(record)
    _replant(store, fake, _encode(record))

    scan = store.scan()
    reasons = dict(scan.corrupt)
    assert reasons == {fake: "content hash != index key"}

    scan = store.scan(quarantine=True)
    assert scan.quarantined == 1
    assert store.locate(fake) is None
    assert store.scan().errors == 0  # a second audit comes back clean


# -- sharded index (v2 layout) ----------------------------------------------


def _same_shard_point(store, prefix, *, skip=()):
    """A point whose cache key lands in shard ``prefix`` (and is not in
    ``skip``) -- scans the thread axis until the content hash cooperates."""
    for threads in range(1, 20_000):
        point = PointSpec(machine="A", backend="GCC-TBB", case="reduce",
                          size_exp=12, threads=threads)
        key = cache_key(point, store.fingerprint)
        if key[:2] == prefix and key not in skip:
            return point, key
    raise AssertionError(f"no key under shard {prefix!r} found")


def test_fresh_disk_store_is_indexed(tmp_path):
    store = ResultStore(tmp_path / "cache")
    assert store.indexed is True
    assert (tmp_path / "cache" / "STORE_META.json").exists()
    key = store.put(POINT, {"status": DONE, "seconds": 1.0, "error": None})
    row = store.index.lookup(key)
    span = store.locate(key)
    record = json.loads(span.read())
    assert row["checksum"] == record["checksum"]
    assert row["path"] == span.path.relative_to(store.root).as_posix()
    assert row["path"].startswith("objects/packs/")
    assert (row["offset"], row["length"]) == (0, len(span.read()))
    assert row["status"] == DONE and row["seconds"] == 1.0
    assert store.count_objects() == 1


def test_preexisting_flat_store_reads_as_v1_unindexed(tmp_path):
    # a v1 flat store: loose objects under objects/ab/, no marker, no
    # index -- reads go through the index, so opening it is an error
    root = tmp_path / "cache"
    key = cache_key(POINT, model_fingerprint())
    record = {"key": key, "fingerprint": model_fingerprint(),
              "point": POINT.to_dict(),
              "result": {"status": DONE, "seconds": 1.0, "error": None}}
    record["checksum"] = record_checksum(record)
    (root / "objects" / key[:2]).mkdir(parents=True)
    (root / "objects" / key[:2] / f"{key}.json").write_bytes(_encode(record))

    with pytest.raises(CampaignError, match="tools/migrate_store.py"):
        ResultStore(root)
    assert not (root / "STORE_META.json").exists()  # nothing was stamped


def test_memory_store_has_no_index_to_compact():
    store = ResultStore(None)
    store.put(POINT, {"status": DONE, "seconds": 1.0, "error": None})
    assert store.indexed is False
    assert store.count_objects() == 1
    with pytest.raises(CampaignError):
        store.compact()


def test_quarantine_drops_the_index_row(tmp_path):
    store = ResultStore(tmp_path / "cache")
    key = store.put(POINT, {"status": DONE, "seconds": 1.0, "error": None})
    assert store.count_objects() == 1
    store.corrupt(key, at=0.5)
    assert store.get(POINT) is None  # quarantining read
    assert store.index.lookup(key) is None
    assert store.count_objects() == 0
    report = store.compact()
    assert report.quarantined_dropped == 1 and report.rows_kept == 0


def test_requarantine_does_not_overwrite_earlier_evidence(tmp_path):
    # Regression: heal-recompute-corrupt cycles used to clobber the first
    # quarantined object because the destination name was always <key>.json.
    store = ResultStore(tmp_path / "cache")
    key = store.put(POINT, {"status": DONE, "seconds": 1.0, "error": None})
    store.corrupt(key, at=0.25)
    first_bytes = store.locate(key).read()
    assert store.get(POINT) is None  # first quarantine

    key2 = store.put(POINT, {"status": DONE, "seconds": 2.0, "error": None})
    assert key2 == key  # same point, same content address
    store.corrupt(key, at=0.75)
    second_bytes = store.locate(key).read()
    assert store.get(POINT) is None  # second quarantine, same key

    qdir = tmp_path / "cache" / "quarantine"
    assert (qdir / f"{key}.json").read_bytes() == first_bytes
    assert (qdir / f"{key}.1.json").read_bytes() == second_bytes
    assert store.quarantined == 2


def test_memory_requarantine_preserves_both_records():
    store = ResultStore(None)
    key = store.put(POINT, {"status": DONE, "seconds": 1.0, "error": None})
    store.quarantine(key, "first")
    store.put(POINT, {"status": DONE, "seconds": 2.0, "error": None})
    store.quarantine(key, "second")
    parked = store._memory_quarantine
    assert set(parked) == {key, f"{key}.1"}
    assert parked[key]["result"]["seconds"] == 1.0
    assert parked[f"{key}.1"]["result"]["seconds"] == 2.0


def test_corrupt_clamps_out_of_range_at(tmp_path):
    store = ResultStore(tmp_path / "cache")
    key = store.put(POINT, {"status": DONE, "seconds": 1.0, "error": None})
    span = store.locate(key)
    pristine = span.read()
    store.corrupt(key, at=-5.0)  # used to raise / index before the file
    assert span.read() != pristine
    store.corrupt(key, at=-5.0)  # XOR is an involution at the same spot
    assert span.read() == pristine
    store.corrupt(key, at=7.5)  # clamps to the span's final byte...
    assert span.read()[:-1] == pristine[:-1] and span.read() != pristine
    assert span.path.read_bytes().endswith(b"\n")  # ...never its newline

    # empty and missing records are no-ops, never errors
    span.path.write_bytes(b"")
    store.corrupt(key, at=-1.0)
    assert span.path.read_bytes() == b""
    store.corrupt("ff" + "0" * 62, at=2.0)


def test_tear_tail_clamps_out_of_range_at(tmp_path):
    journal = Journal(tmp_path / "journal.jsonl")
    journal.append({"task_id": "a", "status": DONE})
    size = journal.path.stat().st_size
    # Regression: a negative ``at`` used to *grow* the file -- truncate
    # past EOF pads with zero bytes the reader then chokes on.
    assert journal.tear_tail(at=-3.0) == 1
    assert journal.path.stat().st_size == size - 1
    assert journal.tear_tail(at=99.0) == size - 1  # clamps to the whole line
    assert journal.path.stat().st_size == 0
    assert journal.tear_tail(at=-1.0) == 0  # empty journal: no-op
    assert journal.tear_tail(at=0.5) == 0
    assert Journal(tmp_path / "missing.jsonl").tear_tail(at=-2.0) == 0


def test_legacy_and_v2_records_share_a_shard_without_double_count(tmp_path):
    # One pre-checksum (legacy) record and one current record forced into
    # the *same* shard: the audit flags and quarantines the legacy one
    # exactly once, and a repeated audit counts neither twice.
    store = ResultStore(tmp_path / "cache")
    key = store.put(POINT, {"status": DONE, "seconds": 1.0, "error": None})
    sibling, key2 = _same_shard_point(store, key[:2], skip={key})
    store.put(sibling, {"status": DONE, "seconds": 2.0, "error": None})
    record = json.loads(store.locate(key2).read())
    del record["checksum"]  # written before checksums existed
    _replant(store, key2, _encode(record))

    scan = store.scan(quarantine=True)
    assert (scan.objects, scan.ok, scan.quarantined) == (2, 1, 1)
    assert scan.corrupt == [(key2, "missing checksum")]
    again = store.scan(quarantine=True)  # stable: nothing counted twice
    assert (again.objects, again.ok, again.errors, again.quarantined) == \
        (1, 1, 0, 0)
    # the sibling's first line and the legacy line are dead, not errors
    assert again.orphaned == 2 and again.index_stale == 0
    assert store.result_for("tid", sibling) is None
    assert store.result_for("tid", POINT).seconds == 1.0


def test_scan_cross_checks_index_against_tree(tmp_path):
    store = ResultStore(tmp_path / "cache")
    key = store.put(POINT, {"status": DONE, "seconds": 1.0, "error": None})

    # an object dropped in by hand has no index row -> orphaned, unserved
    okey = cache_key(OTHER, store.fingerprint)
    record = {"key": okey, "point": OTHER.to_dict(),
              "fingerprint": store.fingerprint,
              "result": {"status": DONE, "seconds": 3.0, "error": None}}
    record["checksum"] = record_checksum(record)
    opath = store.root / "objects" / okey[:2] / f"{okey}.json"
    opath.parent.mkdir(parents=True, exist_ok=True)
    opath.write_bytes(_encode(record))

    scan = store.scan()
    assert scan.orphaned == 1 and scan.index_stale == 0
    assert scan.errors == 0
    assert "1 orphaned" in scan.summary()
    assert store.get(OTHER) is None  # reads follow the index only

    # a row whose pack vanished out-of-band -> index-stale
    store.locate(key).path.unlink()
    scan = store.scan()
    assert scan.index_stale == 1 and scan.orphaned == 1
    assert "1 index-stale" in scan.summary()

    # a clean store keeps the short summary
    clean = ResultStore(tmp_path / "clean")
    clean.put(POINT, {"status": DONE, "seconds": 1.0, "error": None})
    assert "orphaned" not in clean.scan().summary()


def test_a_row_without_offset_reads_a_loose_object_whole(tmp_path):
    # stores written before packs hold loose objects and rows naming
    # them without offset/length; reads, audits and quarantine still work
    store = ResultStore(tmp_path / "cache")
    key = cache_key(POINT, store.fingerprint)
    record = {"key": key, "fingerprint": store.fingerprint,
              "point": POINT.to_dict(),
              "result": {"status": DONE, "seconds": 1.5, "error": None}}
    record["checksum"] = record_checksum(record)
    loose = store.root / "objects" / key[:2] / f"{key}.json"
    loose.parent.mkdir(parents=True)
    loose.write_bytes(_encode(record))
    store.index.record_puts([{"key": key,
                              "path": f"objects/{key[:2]}/{key}.json",
                              "checksum": record["checksum"]}])

    assert store.locate(key).length is None
    assert store.result_for("tid", POINT).seconds == 1.5
    scan = store.scan()
    assert (scan.objects, scan.ok, scan.orphaned) == (1, 1, 0)
    store.corrupt(key, at=0.5)
    assert store.get(POINT) is None and store.quarantined == 1
    assert (store.root / "quarantine" / f"{key}.json").read_bytes() == \
        loose.read_bytes()
