"""Byte and fsync pins for every durable file the store writes.

Each format is written from fixed inputs and compared with literal bytes
captured from the per-file writers these files had before they shared
one set of file disciplines (:mod:`repro.campaign.durable`). A spy on
``os.fsync`` pins each writer's durability policy alongside: the
campaign journal syncs once per non-empty append, and the index,
snapshots and published documents never. A remote executor's sealed
segment manifest is pinned here too, though it is built in memory and
never written.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.campaign.shard import ShardIndex, write_store_meta
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import Journal, write_spec
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
    shard = ShardIndex(tmp_path / "index", "ab")
    assert _synced(fsyncs, lambda: shard.append(
        {"op": "put", "key": "ab01", "path": "objects/packs/p.pack",
         "offset": 0, "length": 10, "checksum": "c1",
         "point": {"case": "reduce"}, "status": "done", "seconds": 1.0,
         "wall_ms": 2.5},
        {"op": "put", "key": "ab02", "path": "objects/packs/p.pack",
         "offset": 11, "length": 12, "checksum": "c2",
         "point": {"case": "sort"}, "status": "na", "seconds": None,
         "wall_ms": None})) == 0
    assert _synced(fsyncs, lambda: shard.append(
        {"op": "quarantine", "key": "ab01", "reason": "tampered"})) == 0
    assert shard.log_path.read_bytes() == (
        b'{"checksum":"c1","key":"ab01","length":10,"offset":0,"op":"put",'
        b'"path":"objects/packs/p.pack","point":{"case":"reduce"},'
        b'"seconds":1.0,"status":"done","wall_ms":2.5}\n'
        b'{"checksum":"c2","key":"ab02","length":12,"offset":11,"op":"put",'
        b'"path":"objects/packs/p.pack","point":{"case":"sort"},'
        b'"seconds":null,"status":"na","wall_ms":null}\n'
        b'{"key":"ab01","op":"quarantine","reason":"tampered"}\n')
    assert _synced(fsyncs, shard.compact) == 0
    assert shard.compact_path.read_bytes() == (
        b'{"count": 1, "layout": 2, "prefix": "ab", "rows": {"ab02": '
        b'{"checksum": "c2", "length": 12, "offset": 11, '
        b'"path": "objects/packs/p.pack", "point": {"case": "sort"}, '
        b'"seconds": null, "status": "na", "wall_ms": null}}}')
    assert shard.log_path.read_bytes() == b""
    assert shard.count() == 1  # read from the snapshot's head


def test_store_meta_and_spec_bytes(tmp_path, fsyncs):
    assert _synced(fsyncs, lambda: write_store_meta(tmp_path / "store")) == 0
    assert (tmp_path / "store" / "STORE_META.json").read_bytes() == \
        b'{"layout": 2, "shards": 256}'
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
