"""Store: content addressing, fingerprint invalidation, journal tolerance."""

from __future__ import annotations

import json
import sqlite3
import sys
from pathlib import Path

import pytest

from repro.campaign.fingerprint import model_fingerprint
from repro.campaign.shard import ShardIndex
from repro.campaign.store import (
    DONE,
    FAILED,
    Journal,
    JournalReader,
    NA,
    PointResult,
    ResultStore,
    cache_key,
    read_spec,
    record_checksum,
)
from repro.campaign.spec import PointSpec, canonical_json
from repro.errors import CampaignError


POINT = PointSpec(machine="A", backend="GCC-TBB", case="reduce",
                  size_exp=12, threads=32)
OTHER = PointSpec(machine="B", backend="GCC-TBB", case="reduce",
                  size_exp=12, threads=2)


COLUMNS = ("fingerprint", "point", "result", "checksum")


def stored(store, key: str) -> dict | None:
    """``key``'s row as stored: its text columns, as bytes (None: no row)."""
    row = store.index.get(key)
    return None if row is None else dict(zip(COLUMNS, row))


def record_line(key: str, row: dict) -> bytes:
    """A stored row's bytes as one record line: what a quarantine keeps."""
    return (b'{"checksum":"' + row["checksum"] + b'","fingerprint":"'
            + row["fingerprint"] + b'","key":"' + key.encode()
            + b'","point":' + row["point"] + b',"result":' + row["result"]
            + b"}")


def plant(store, key: str, record: dict | None = None, **columns) -> None:
    """Write ``key``'s row by hand on a connection of its own -- a tamper,
    or a row another writer left: the texts of ``record`` (encoded
    canonically; a missing checksum stored empty), then ``columns``
    verbatim. The row is inserted when the key has none."""
    values = {}
    if record is not None:
        values = {"fingerprint": record["fingerprint"],
                  "point": canonical_json(record["point"]),
                  "result": canonical_json(record["result"]),
                  "checksum": record.get("checksum", "")}
    values.update(columns)
    conn = sqlite3.connect(store.root / "cache.db")
    try:
        with conn:
            conn.execute("INSERT OR IGNORE INTO results (key, fingerprint, "
                         "point, result, checksum) VALUES (?, '', '', '', '')",
                         (key,))
            for column, value in values.items():
                conn.execute(f"UPDATE results SET {column} = ? WHERE key = ?",
                             (value, key))
    finally:
        conn.close()


def _encode(record) -> bytes:
    """A record's canonical bytes (a quarantined row's line, whole)."""
    return canonical_json(record).encode("utf-8")


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
    assert store.load_key(store.key_for(POINT))["result"] == payload
    # the record is one row of the store's database, its texts canonical
    assert (tmp_path / "cache" / "cache.db").is_file()
    row = stored(store, key)
    assert row["point"] == POINT.canonical().encode()
    assert json.loads(row["result"]) == payload
    assert json.loads(record_line(key, row)) == store.load_key(key)


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
    assert new.result_for("tid", POINT) is None
    assert new.misses == 1


def test_corrupt_object_is_a_miss(tmp_path):
    store = ResultStore(tmp_path / "cache")
    key = store.put(POINT, {"status": DONE, "seconds": 1.0, "error": None})
    plant(store, key, result=b"{torn")
    assert store.load_key(store.key_for(POINT)) is None
    assert stored(store, key) is None  # quarantined


def test_huge_integer_pack_line_is_quarantined(tmp_path):
    # An integer past json's 4,300-digit limit raises a plain ValueError.
    store = ResultStore(tmp_path / "cache")
    key = store.put(POINT, {"status": DONE, "seconds": 1.0, "error": None})
    plant(store, key, result=b'{"seconds":' + b"9" * 5000 + b"}")
    assert store.scan().errors == 1  # audited as unparseable, not a crash
    assert store.results_for([("t", POINT, key)]) == [None]
    assert store.quarantined == 1
    assert store.load_key(key) is None


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


def test_journal_skips_a_huge_integer_line(tmp_path):
    # An integer past json's 4,300-digit limit raises a plain ValueError.
    journal = Journal(tmp_path / "journal.jsonl")
    journal.append({"task_id": "a", "status": DONE, "seconds": 1.0})
    with open(journal.path, "a", encoding="utf-8") as fh:
        fh.write('{"task_id": "b", "wall_ms": ' + "9" * 5000 + "}\n")
    reader = JournalReader(journal.path)
    assert [e["task_id"] for e in journal.entries()] == ["a"]
    assert journal.torn_lines() == 1
    assert [e["task_id"] for e in reader.poll()] == ["a"]
    assert reader.torn == 1
    spec = tmp_path / "spec.json"
    spec.write_text('{"name": ' + "9" * 5000 + "}", encoding="utf-8")
    with pytest.raises(CampaignError, match="corrupt campaign spec"):
        read_spec(spec)


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
    record = store.load_key(key)
    record["result"] = {"note": "written by a newer schema"}
    record["checksum"] = record_checksum(record)  # intact, just drifted
    plant(store, key, record)

    assert store.result_for("tid", POINT) is None
    assert store.misses == 1 and store.quarantined == 0  # a miss, not damage
    scan = store.scan()
    assert scan.drifted == 1 and scan.errors == 0


def test_checksum_mismatch_is_quarantined_not_served(tmp_path):
    store = ResultStore(tmp_path / "cache")
    key = store.put(POINT, {"status": DONE, "seconds": 1.0, "error": None})
    record = store.load_key(key)
    record["result"]["seconds"] = 9.0  # tampered value, stale checksum
    plant(store, key, record)
    tampered = record_line(key, stored(store, key))

    assert store.load_key(store.key_for(POINT)) is None
    assert store.quarantined == 1
    assert stored(store, key) is None  # the row is deleted
    # the evidence is the row's bytes, verbatim
    quarantined = tmp_path / "cache" / "quarantine" / f"{key}.json"
    assert quarantined.read_bytes() == tampered == _encode(record)


def test_records_without_checksum_are_quarantined(tmp_path):
    store = ResultStore(tmp_path / "cache")
    key = store.put(POINT, {"status": DONE, "seconds": 2.5, "error": None})
    record = store.load_key(key)
    del record["checksum"]  # unauditable: it must not be served
    plant(store, key, record)

    scan = store.scan()
    assert scan.corrupt == [(key, "missing checksum")]
    assert store.result_for("tid", POINT) is None
    assert store.quarantined == 1 and stored(store, key) is None


def test_two_flipped_bits_never_serve_a_wrong_value(tmp_path):
    # Regression: one flip renaming "checksum" to "chdcksum" plus one
    # turning 0.5 into 0.4 used to leave a checksum-less record that was
    # served, unverified, as a cache hit of 0.4. A row has no field name
    # to flip; a flipped checksum digit plus the flipped value is the
    # same double fault.
    store = ResultStore(tmp_path / "cache")
    key = store.put(POINT, {"status": DONE, "seconds": 0.5, "error": None})
    row = stored(store, key)
    checksum = bytearray(row["checksum"])
    checksum[3] ^= 0x01
    plant(store, key, checksum=bytes(checksum),
          result=row["result"].replace(b'"seconds":0.5', b'"seconds":0.4'))
    assert b'"seconds":0.4' in stored(store, key)["result"]

    scan = store.scan()
    assert scan.corrupt == [(key, "checksum mismatch")] and scan.ok == 0
    assert store.result_for("tid", POINT) is None
    assert store.quarantined == 1


def test_put_many_writes_one_pack_of_todays_record_bytes(tmp_path, monkeypatch):
    appends = []
    real = ShardIndex.append
    monkeypatch.setattr(ShardIndex, "append", lambda self, *rows: (
        appends.append(len(rows)), real(self, *rows))[1])
    store = ResultStore(tmp_path / "cache")
    points = [POINT, OTHER, PointSpec(machine="C", backend="GCC-TBB",
                                      case="reduce", size_exp=12, threads=4)]
    keys = store.put_many(
        [(store.key_for(p), p, {"status": DONE, "seconds": float(i),
                                "error": None}, 0.5)
         for i, p in enumerate(points)])
    assert keys == [store.key_for(p) for p in points]
    assert appends == [3]  # one transaction for the whole batch
    for key, point in zip(keys, points):
        row = stored(store, key)
        record = store.load_key(key)
        # each text is the canonical JSON the record core joins, and the
        # checksum is today's: over the canonical record core
        assert row["point"] == point.canonical().encode()
        assert row["result"] == canonical_json(record["result"]).encode()
        assert record_line(key, row) == _encode(record)
        assert row["checksum"].decode() == record_checksum(record)
    assert {key: wall_ms for key, _p, _r, wall_ms in store.rows()} == \
        dict.fromkeys(keys, 0.5)
    assert store.writes == 3

    appends.clear()
    assert store.put_many([]) == []  # nothing to write touches nothing
    assert appends == [] and store.count_objects() == 3


def test_stale_row_pointing_at_another_keys_record_is_a_miss(tmp_path):
    store = ResultStore(tmp_path / "cache")
    key = store.put(POINT, {"status": DONE, "seconds": 1.0, "error": None})
    okey = store.put(OTHER, {"status": DONE, "seconds": 2.0, "error": None})
    plant(store, key, **stored(store, okey))  # OTHER's record under key

    # the checksum covers the key, so another key's record never verifies
    assert store.scan().corrupt == [(key, "checksum mismatch")]
    assert store.result_for("tid", POINT) is None  # never OTHER's 2.0
    assert store.quarantined == 1 and stored(store, key) is None
    assert store.result_for("tid", OTHER).seconds == 2.0  # owner unharmed


def test_quarantining_one_record_of_a_pack_keeps_its_neighbours(tmp_path):
    store = ResultStore(tmp_path / "cache")
    points = [POINT, OTHER, PointSpec(machine="C", backend="GCC-TBB",
                                      case="reduce", size_exp=12, threads=4)]
    keys = store.put_many(
        [(store.key_for(p), p, {"status": DONE, "seconds": float(i + 1),
                                "error": None}, None)
         for i, p in enumerate(points)])
    pristine = record_line(keys[1], stored(store, keys[1]))
    store.corrupt(keys[1], at=0.5)
    damaged = record_line(keys[1], stored(store, keys[1]))

    assert store.result_for("tid", points[1]) is None
    assert store.quarantined == 1
    for i in (0, 2):  # the neighbours of its batch are still served
        assert store.result_for("tid", points[i]).seconds == float(i + 1)
    # the row kept its size and every byte but the flipped one
    assert len(damaged) == len(pristine)
    assert sum(a != b for a, b in zip(damaged, pristine)) == 1
    qfile = tmp_path / "cache" / "quarantine" / f"{keys[1]}.json"
    assert qfile.read_bytes() == damaged
    scan = store.scan()
    assert (scan.objects, scan.ok, scan.errors) == (2, 2, 0)


def test_scan_flags_misfiled_and_mismatched_objects(tmp_path):
    store = ResultStore(tmp_path / "cache")
    key = store.put(POINT, {"status": DONE, "seconds": 1.0, "error": None})
    record = store.load_key(key)
    # store the record under a key that is not its content hash
    fake = "ab" + "0" * (len(key) - 2)
    record["key"] = fake
    record["checksum"] = record_checksum(record)
    plant(store, fake, record)

    scan = store.scan()
    reasons = dict(scan.corrupt)
    assert reasons == {fake: "content hash != index key"}

    scan = store.scan(quarantine=True)
    assert scan.quarantined == 1
    assert stored(store, fake) is None
    assert store.scan().errors == 0  # a second audit comes back clean


# -- the result table ---------------------------------------------------------


def test_fresh_disk_store_is_indexed(tmp_path):
    store = ResultStore(tmp_path / "cache")
    assert store.indexed is True
    assert (tmp_path / "cache" / "cache.db").is_file()
    key = store.put(POINT, {"status": DONE, "seconds": 1.0, "error": None})
    row = stored(store, key)
    assert row["checksum"].decode() == store.load_key(key)["checksum"]
    assert row["fingerprint"].decode() == store.fingerprint
    assert json.loads(row["result"]) == \
        {"status": DONE, "seconds": 1.0, "error": None}
    assert store.count_objects() == 1


def test_preexisting_flat_store_reads_as_v1_unindexed(tmp_path):
    # a v1 flat store: loose objects under objects/ab/ and no database --
    # reads go through the database, so opening it is an error
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
    assert not (root / "cache.db").exists()  # nothing was created


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
    assert store.load_key(store.key_for(POINT)) is None  # quarantining read
    assert stored(store, key) is None
    assert store.count_objects() == 0
    report = store.compact()
    assert report.quarantined_dropped == 1 and report.rows_kept == 0


def test_requarantine_does_not_overwrite_earlier_evidence(tmp_path):
    # Regression: heal-recompute-corrupt cycles used to clobber the first
    # quarantined object because the destination name was always <key>.json.
    store = ResultStore(tmp_path / "cache")
    key = store.put(POINT, {"status": DONE, "seconds": 1.0, "error": None})
    store.corrupt(key, at=0.25)
    first_bytes = record_line(key, stored(store, key))
    assert store.load_key(store.key_for(POINT)) is None  # first quarantine

    key2 = store.put(POINT, {"status": DONE, "seconds": 2.0, "error": None})
    assert key2 == key  # same point, same content address
    store.corrupt(key, at=0.75)
    second_bytes = record_line(key, stored(store, key))
    assert store.load_key(store.key_for(POINT)) is None  # second quarantine, same key

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

    def text():
        row = stored(store, key)
        return row["point"] + row["result"]

    pristine = text()
    store.corrupt(key, at=-5.0)  # used to raise / index before the file
    assert text() != pristine and text()[1:] == pristine[1:]
    store.corrupt(key, at=-5.0)  # XOR is an involution at the same spot
    assert text() == pristine
    store.corrupt(key, at=7.5)  # clamps to the text's final byte
    assert text()[:-1] == pristine[:-1] and text() != pristine

    # a missing record is a no-op, never an error
    store.corrupt("ff" + "0" * 62, at=2.0)
    assert store.count_objects() == 1


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
    # One pre-checksum (legacy) record and one current record in the one
    # table: the audit flags and quarantines the legacy one exactly once,
    # and a repeated audit counts neither twice.
    store = ResultStore(tmp_path / "cache")
    key = store.put(POINT, {"status": DONE, "seconds": 1.0, "error": None})
    sibling = OTHER
    key2 = store.put(sibling, {"status": DONE, "seconds": 2.0, "error": None})
    record = store.load_key(key2)
    del record["checksum"]  # written before checksums existed
    plant(store, key2, record)

    scan = store.scan(quarantine=True)
    assert (scan.objects, scan.ok, scan.quarantined) == (2, 1, 1)
    assert scan.corrupt == [(key2, "missing checksum")]
    again = store.scan(quarantine=True)  # stable: nothing counted twice
    assert (again.objects, again.ok, again.errors, again.quarantined) == \
        (1, 1, 0, 0)
    assert store.result_for("tid", sibling) is None
    assert store.result_for("tid", POINT).seconds == 1.0


def test_scan_cross_checks_index_against_tree(tmp_path):
    # The audit reads every row of the table, whatever model wrote it,
    # and nothing outside the table.
    store = ResultStore(tmp_path / "cache")
    store.put(POINT, {"status": DONE, "seconds": 1.0, "error": None})
    ResultStore(tmp_path / "cache", fingerprint="model-v2").put(
        OTHER, {"status": DONE, "seconds": 2.0, "error": None})

    # an object dropped in by hand has no row -> neither audited nor served
    okey = cache_key(OTHER, store.fingerprint)
    record = {"key": okey, "point": OTHER.to_dict(),
              "fingerprint": store.fingerprint,
              "result": {"status": DONE, "seconds": 3.0, "error": None}}
    record["checksum"] = record_checksum(record)
    opath = store.root / "objects" / okey[:2] / f"{okey}.json"
    opath.parent.mkdir(parents=True, exist_ok=True)
    opath.write_bytes(_encode(record))

    scan = store.scan()
    assert (scan.objects, scan.ok, scan.errors) == (2, 2, 0)
    assert scan.summary() == ("2 object(s): 2 ok, 0 schema-drifted, "
                              "0 corrupt, 0 quarantined")
    assert store.load_key(store.key_for(OTHER)) is None  # reads the table only


def test_a_row_without_offset_reads_a_loose_object_whole(tmp_path):
    # stores written before packs hold loose objects, read whole; the
    # migration imports them, and reads, audits and quarantine then work
    # on the imported row
    root = tmp_path / "cache"
    fingerprint = model_fingerprint()
    key = cache_key(POINT, fingerprint)
    record = {"key": key, "fingerprint": fingerprint,
              "point": POINT.to_dict(),
              "result": {"status": DONE, "seconds": 1.5, "error": None}}
    record["checksum"] = record_checksum(record)
    loose = root / "objects" / key[:2] / f"{key}.json"
    loose.parent.mkdir(parents=True)
    loose.write_bytes(json.dumps(record, sort_keys=True).encode())
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))
    try:
        import migrate_store
    finally:
        sys.path.pop(0)
    assert migrate_store.main([str(root)]) == 0

    store = ResultStore(root)
    assert store.result_for("tid", POINT).seconds == 1.5
    scan = store.scan()
    assert (scan.objects, scan.ok) == (1, 1)
    store.corrupt(key, at=0.5)
    damaged = record_line(key, stored(store, key))
    assert store.load_key(store.key_for(POINT)) is None and store.quarantined == 1
    assert (store.root / "quarantine" / f"{key}.json").read_bytes() == damaged
