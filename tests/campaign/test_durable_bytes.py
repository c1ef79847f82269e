"""Byte and fsync pins for every durable file the store writes.

Each file format is written from fixed inputs and compared with literal
bytes captured from the per-file writers these files had before they
shared one set of file disciplines (:mod:`repro.campaign.durable`). A
spy on ``os.fsync`` pins each writer's durability policy alongside: the
campaign journal syncs once per non-empty append, and the published
documents never. The result table is pinned by its schema, its
``user_version``, the pragmas of a store's connection and one stored
row for a fixed point, whose checksum is the one the pack line of the
same record carried. A remote executor's sealed segment manifest is
pinned here too, though it is built in memory and never written.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3

import pytest

from repro.campaign.shard import SCHEMA_VERSION, ShardIndex
from repro.campaign.spec import CampaignSpec, PointSpec
from repro.campaign.store import Journal, ResultStore, record_checksum, write_spec
from repro.remote.segment import result_row, seal

POINT = {"machine": "A", "backend": "GCC-TBB", "case": "reduce",
         "size_exp": 8, "threads": 2, "mode": "model",
         "allocator": None, "min_time": 0.0}

CHECKSUM = "d6eebf25e9fff4f50c34130435e5b74409522d21a955c127204da5b84f405755"
SEGMENT_POINT = (b'{"point":{"allocator":null,"backend":"GCC-TBB",'
                 b'"case":"reduce","machine":"A","min_time":0.0,'
                 b'"mode":"model","size_exp":8,"threads":2},')


@pytest.fixture
def fsyncs(monkeypatch):
    """The number of ``os.fsync`` calls so far (a one-item list)."""
    count = [0]
    real = os.fsync

    def spy(fd):
        count[0] += 1
        return real(fd)

    monkeypatch.setattr(os, "fsync", spy)
    return count


def _synced(fsyncs, action) -> int:
    """How many times ``action()`` called ``os.fsync``."""
    before = fsyncs[0]
    action()
    return fsyncs[0] - before


def test_journal_bytes_heal_and_one_fsync_per_append(tmp_path, fsyncs):
    journal = Journal(tmp_path / "journal.jsonl")
    assert _synced(fsyncs, lambda: journal.append(
        {"task_id": "t1", "status": "done", "seconds": 1.5})) == 1
    assert _synced(fsyncs, lambda: journal.append(
        {"task_id": "t2", "status": "na", "seconds": None},
        {"task_id": "t3", "status": "failed", "seconds": None,
         "error": "boom"})) == 1  # a group commit: one sync for both rows
    assert _synced(fsyncs, journal.append) == 0  # nothing to append
    journal.tear_tail(0.5)
    assert _synced(fsyncs, lambda: journal.append(
        {"task_id": "t4", "status": "done", "seconds": 0.25})) == 1
    assert journal.path.read_bytes() == (
        b'{"seconds":1.5,"status":"done","task_id":"t1"}\n'
        b'{"seconds":null,"status":"na","task_id":"t2"}\n'
        b'{"error":"boom","seconds":null,"\n'  # the healed torn tail
        b'{"seconds":0.25,"status":"done","task_id":"t4"}\n')
    assert journal.torn_lines() == 1
    assert [e["task_id"] for e in journal.entries()] == ["t1", "t2", "t4"]


def test_shard_log_and_snapshot_bytes_never_fsync(tmp_path, fsyncs):
    # One row for a fixed point, byte for byte; the record it holds has
    # the checksum its v2 pack line carried. The commit is SQLite's (WAL,
    # synced at checkpoints only), so Python syncs nothing.
    store = ResultStore(tmp_path / "cache", fingerprint="fp-pin")
    point = PointSpec.from_dict(POINT)
    assert _synced(fsyncs, lambda: store.put(
        point, {"status": "done", "seconds": 1.5, "error": None},
        wall_ms=2.5)) == 0
    key = "f1570b0ae50fbcd680702943599a053726f8fbe2a1a8724f0247478f28bf1f86"
    conn = sqlite3.connect(tmp_path / "cache" / "cache.db")
    try:
        assert conn.execute("SELECT * FROM results").fetchall() == [(
            key, "fp-pin",
            '{"allocator":null,"backend":"GCC-TBB","case":"reduce",'
            '"machine":"A","min_time":0.0,"mode":"model","size_exp":8,'
            '"threads":2}',
            '{"error":null,"seconds":1.5,"status":"done"}',
            "74187b9f56f1e56c", 2.5)]
        assert conn.execute("SELECT * FROM ledger").fetchall() == [(1, 0, 0)]
    finally:
        conn.close()
    assert record_checksum(store.load_key(key)) == "74187b9f56f1e56c"
    assert _synced(fsyncs, store.compact) == 0


def test_store_meta_and_spec_bytes(tmp_path, fsyncs):
    table = ShardIndex(tmp_path / "store" / "cache.db")
    try:
        conn = table._conn
        assert conn.execute("PRAGMA journal_mode").fetchone() == (b"wal",)
        assert conn.execute("PRAGMA synchronous").fetchone() == (1,)  # NORMAL
        assert conn.execute("PRAGMA busy_timeout").fetchone() == (30000,)
        assert conn.execute("PRAGMA user_version").fetchone() == \
            (SCHEMA_VERSION,) == (3,)
        assert conn.execute("SELECT type, name, sql FROM sqlite_master"
                            ).fetchall() == [
            (b"table", b"results",
             b"CREATE TABLE results (key TEXT PRIMARY KEY, fingerprint TEXT "
             b"NOT NULL, point TEXT NOT NULL, result TEXT NOT NULL, checksum "
             b"TEXT NOT NULL, wall_ms REAL) WITHOUT ROWID"),
            (b"table", b"ledger",
             b"CREATE TABLE ledger (puts INTEGER NOT NULL, quarantined "
             b"INTEGER NOT NULL, kept INTEGER NOT NULL)")]
    finally:
        table.close()
    spec = CampaignSpec(name="pin", machines=("A",), backends=("GCC-TBB",),
                        cases=("reduce",), size_exps=(12,), threads=(2, None))
    path = tmp_path / "campaign" / "spec.json"
    assert _synced(fsyncs, lambda: write_spec(path, spec.to_dict())) == 0
    assert path.read_bytes() == (
        b'{\n  "allocators": [\n    null\n  ],\n  "backends": [\n'
        b'    "GCC-TBB"\n  ],\n  "baseline_backend": "GCC-SEQ",\n'
        b'  "cases": [\n    "reduce"\n  ],\n  "exclude": [],\n'
        b'  "machines": [\n    "A"\n  ],\n  "min_time": 0.0,\n'
        b'  "modes": [\n    "model"\n  ],\n  "name": "pin",\n'
        b'  "size_exps": [\n    12\n  ],\n  "threads": [\n    2,\n'
        b'    null\n  ]\n}\n')
    assert sorted(p.name for p in path.parent.iterdir()) == ["spec.json"]


def test_sealed_manifest_bytes(tmp_path, fsyncs, monkeypatch):
    # An executor wave seals in memory: no fsync, no file. The manifest
    # and the rows' canonical lines are the wire format, so their bytes
    # stay pinned.
    monkeypatch.chdir(tmp_path)
    rows = [
        result_row("t1", POINT, {"status": "done", "seconds": 0.5,
                                 "error": None}, wall_ms=1.5),
        result_row("t2", POINT, {"status": "na", "seconds": None,
                                 "error": None}),
    ]
    manifests = []
    assert _synced(fsyncs, lambda: manifests.append(seal(
        rows, segment="w1-e1", executor="ex-1", epoch=1,
        wave="c/w1"))) == 0
    manifest = manifests[0]
    assert manifest.checksum == CHECKSUM
    assert manifest.size == 419
    assert (json.dumps(manifest.to_dict(), sort_keys=True, indent=2)
            + "\n").encode() == (
        b'{\n  "checksum": "' + CHECKSUM.encode() + b'",\n  "epoch": 1,\n'
        b'  "executor": "ex-1",\n  "rows": 2,\n  "segment": "w1-e1",\n'
        b'  "size": 419,\n  "wave": "c/w1"\n}\n')
    # The 419 bytes are the rows' canonical lines, and the rows ship
    # with their keys in that same order.
    lines = (SEGMENT_POINT + b'"result":{"error":null,"seconds":0.5,'
             b'"status":"done"},"task_id":"t1","wall_ms":1.5}\n'
             + SEGMENT_POINT + b'"result":{"error":null,"seconds":null,'
             b'"status":"na"},"task_id":"t2"}\n')
    assert len(lines) == 419
    assert hashlib.sha256(lines).hexdigest() == CHECKSUM
    assert json.dumps(rows) == json.dumps(rows, sort_keys=True)
    assert list(tmp_path.iterdir()) == []
