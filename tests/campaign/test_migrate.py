"""tools/migrate_store.py: in-place v1 -> v2 upgrade and index rebuilds,
proven bit-identical.

The migration is the only bridge old flat stores have into the sharded
index, and ``--force`` is how a packed store's index is rebuilt from its
records, so their failure modes get pinned alongside the happy path:
the commit point (``STORE_META.json`` lands last), corrupt/misfiled
records staying unindexed, ``--verify`` actually failing on tampering,
and idempotence (a second run is a no-op without ``--force``).
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

from repro.campaign.fingerprint import model_fingerprint
from repro.campaign.spec import PointSpec
from repro.campaign.store import DONE, ResultStore, cache_key, record_checksum
from repro.errors import CampaignError

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "migrate_store.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("migrate_store", _TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules["migrate_store"] = module
    spec.loader.exec_module(module)
    return module


ms = _load_tool()


def _point(i):
    return PointSpec(machine="A", backend="GCC-TBB", case="reduce",
                     size_exp=12, threads=1 + i)


def _loose(root: Path, key: str) -> Path:
    """Where a v1 store keeps ``key``'s object."""
    return root / "objects" / key[:2] / f"{key}.json"


def _v1_store(root: Path, count: int = 6) -> list[str]:
    """A flat (pre-index) store: loose objects, no marker, no index."""
    fingerprint = model_fingerprint()
    keys = []
    for i in range(count):
        point = _point(i)
        key = cache_key(point, fingerprint)
        record = {"key": key, "fingerprint": fingerprint,
                  "point": point.to_dict(),
                  "result": {"status": DONE, "seconds": float(i + 1),
                             "error": None}}
        record["checksum"] = record_checksum(record)
        _loose(root, key).parent.mkdir(parents=True, exist_ok=True)
        _loose(root, key).write_text(json.dumps(record, sort_keys=True),
                                     encoding="utf-8")
        keys.append(key)
    with pytest.raises(CampaignError, match="migrate_store"):
        ResultStore(root)  # unreadable until migrated
    return keys


def test_migrate_stamps_v2_and_indexes_every_object(tmp_path, capsys):
    root = tmp_path / "cache"
    _v1_store(root)
    before = {p: p.read_bytes()
              for p in sorted((root / "objects").rglob("*.json"))}

    assert ms.main([str(root)]) == 0
    out = capsys.readouterr().out
    assert "6 row(s) indexed" in out

    store = ResultStore(root)
    assert store.indexed is True
    assert store.count_objects() == 6
    for i in range(6):
        assert store.load_key(store.key_for(_point(i)))["result"]["seconds"] == float(i + 1)
    # migration is additive: not one object byte rewritten
    assert before == {p: p.read_bytes()
                      for p in sorted((root / "objects").rglob("*.json"))}


def test_migrate_verify_and_compact_pass_clean(tmp_path, capsys):
    root = tmp_path / "cache"
    _v1_store(root)
    assert ms.main([str(root), "--verify", "--compact"]) == 0
    out = capsys.readouterr().out
    assert "verify: OK" in out
    assert "compacted:" in out
    # compaction left every shard folded: logs empty, snapshots answer
    store = ResultStore(root)
    assert store.count_objects() == 6
    for log in (root / "index").glob("*.log.jsonl"):
        assert log.stat().st_size == 0


def test_second_run_is_a_noop_unless_forced(tmp_path, capsys):
    root = tmp_path / "cache"
    _v1_store(root)
    assert ms.main([str(root)]) == 0
    capsys.readouterr()
    assert ms.main([str(root)]) == 0
    assert "already v2" in capsys.readouterr().out
    assert ms.main([str(root), "--force", "--verify"]) == 0
    assert "row(s) indexed" in capsys.readouterr().out


def test_campaign_directory_resolves_to_its_cache(tmp_path):
    cdir = tmp_path / "campaign"
    _v1_store(cdir / "cache")
    (cdir / "spec.json").write_text("{}", encoding="utf-8")
    assert ms.main([str(cdir), "--verify"]) == 0
    assert ResultStore(cdir / "cache").indexed is True


def test_not_a_store_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        ms.resolve_store_root(tmp_path / "nowhere")
    assert err.value.code == 2
    assert "not a result store" in capsys.readouterr().err


def test_corrupt_and_misfiled_objects_stay_unindexed(tmp_path, capsys):
    root = tmp_path / "cache"
    keys = _v1_store(root)
    # one object torn mid-write, one misfiled under a foreign name
    _loose(root, keys[0]).write_text('{"key": "torn', encoding="utf-8")
    record = json.loads(_loose(root, keys[1]).read_text(encoding="utf-8"))
    fake = "ab" + "0" * (len(keys[1]) - 2)
    misfiled = root / "objects" / "ab" / f"{fake}.json"
    misfiled.parent.mkdir(parents=True, exist_ok=True)
    misfiled.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")
    # and one record whose checksum no longer verifies
    tampered = json.loads(_loose(root, keys[2]).read_text(encoding="utf-8"))
    tampered["result"]["seconds"] = 99.0
    _loose(root, keys[2]).write_text(
        json.dumps(tampered, sort_keys=True), encoding="utf-8")

    assert ms.main([str(root), "--verify"]) == 0
    out = capsys.readouterr().out
    assert "3 object(s) left unindexed" in out
    migrated = ResultStore(root)
    assert migrated.count_objects() == 4  # the intact ones, and only those
    assert migrated.index.lookup(keys[0]) is None
    assert migrated.index.lookup(keys[2]) is None
    # unindexed damage is never served; the scan reports it as orphaned
    scan = migrated.scan()
    assert scan.errors == 0 and scan.ok == 4 and scan.orphaned == 3


def test_records_without_checksum_stay_unindexed(tmp_path, capsys):
    root = tmp_path / "cache"
    keys = _v1_store(root, count=2)
    path = _loose(root, keys[0])
    record = json.loads(path.read_text(encoding="utf-8"))
    del record["checksum"]  # unauditable: a read would quarantine it
    path.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")

    assert ms.main([str(root), "--verify", "--compact"]) == 0
    assert "1 object(s) left unindexed" in capsys.readouterr().out
    migrated = ResultStore(root)
    assert migrated.count_objects() == 1
    assert migrated.index.lookup(keys[0]) is None
    assert migrated.load_key(keys[0]) is None  # a miss that recomputes
    scan = migrated.scan()
    assert (scan.ok, scan.errors, scan.orphaned) == (1, 0, 1)


def test_verify_catches_post_migration_tampering(tmp_path, capsys):
    root = tmp_path / "cache"
    _v1_store(root, count=3)
    inventory = ms.inventory_store(root)
    ms.build_index(root, inventory)
    # tamper with one object *after* the inventory was taken
    victim = sorted(inventory.files)[0]
    path = root / victim
    record = json.loads(path.read_text(encoding="utf-8"))
    record["result"]["seconds"] = 123.0
    record["checksum"] = record_checksum(record)
    path.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")

    problems = ms.verify_store(root, inventory)
    assert any("bytes changed" in p for p in problems)


def test_verify_catches_index_coverage_gaps(tmp_path):
    root = tmp_path / "cache"
    keys = _v1_store(root, count=3)
    inventory = ms.inventory_store(root)
    ms.build_index(root, inventory)
    # drop one shard's snapshot: its keys vanish from the index
    victim = sorted(keys)[0]
    (root / "index" / f"{victim[:2]}.idx.json").unlink()
    problems = ms.verify_store(root, inventory)
    assert any("missing from the index" in p for p in problems)


def _packed_store(root: Path) -> tuple[ResultStore, list[PointSpec]]:
    """A v2 store whose records sit in several packs (one batch + singles)."""
    store = ResultStore(root)
    points = [_point(i) for i in range(6)]
    store.put_many([(store.key_for(p), p, {"status": DONE,
                                           "seconds": float(i + 1),
                                           "error": None}, None)
                    for i, p in enumerate(points[:4])])
    for i, point in enumerate(points[4:], start=4):
        store.put(point, {"status": DONE, "seconds": float(i + 1),
                          "error": None})
    return store, points


def test_force_rebuilds_a_deleted_index_from_the_packs(tmp_path, capsys):
    root = tmp_path / "cache"
    store, points = _packed_store(root)
    keys = [store.key_for(p) for p in points]
    before = {key: store.locate(key).read() for key in keys}
    packs = {p: p.read_bytes() for p in (root / "objects" / "packs").iterdir()}
    assert len(packs) == 3

    del store  # the last handle: its locator caches go with it
    shutil.rmtree(root / "index")
    assert ResultStore(root).load_key(keys[0]) is None  # reads need the index
    assert ms.main([str(root), "--force", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "6 row(s) indexed" in out and "verify: OK" in out

    rebuilt = ResultStore(root)
    assert rebuilt.count_objects() == 6
    for i, (point, key) in enumerate(zip(points, keys)):
        assert rebuilt.locate(key).read() == before[key]  # bit-identical
        assert rebuilt.result_for("t", point).seconds == float(i + 1)
    assert packs == {p: p.read_bytes() for p in packs}  # nothing rewritten
    assert rebuilt.scan().orphaned == 0


def test_force_rebuild_prefers_the_last_intact_record(tmp_path):
    root = tmp_path / "cache"
    store, points = _packed_store(root)
    key = store.key_for(points[0])
    store.corrupt(key, at=0.5)
    assert store.load_key(store.key_for(points[0])) is None  # quarantined; the line stays dead
    store.put(points[0], {"status": DONE, "seconds": 1.0, "error": None})
    live = store.locate(key)

    assert ms.main([str(root), "--force", "--verify"]) == 0
    rebuilt = ResultStore(root)
    assert rebuilt.locate(key) == live  # the damaged line stays unindexed
    scan = rebuilt.scan()
    assert (scan.ok, scan.errors, scan.orphaned) == (6, 0, 1)


def test_verify_catches_changed_pack_bytes(tmp_path):
    root = tmp_path / "cache"
    store, points = _packed_store(root)
    inventory = ms.inventory_store(root)
    assert ms.verify_store(root, inventory) == []  # an intact v2 store
    span = store.locate(store.key_for(points[1]))
    with open(span.path, "r+b") as fh:  # flip one byte inside a pack
        fh.seek(span.offset + 1)
        byte = fh.read(1)
        fh.seek(span.offset + 1)
        fh.write(bytes([byte[0] ^ 0x01]))
    problems = ms.verify_store(root, inventory)
    rel = span.path.relative_to(root).as_posix()
    assert f"{rel}: bytes changed during migration" in problems
