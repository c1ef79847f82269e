"""tools/migrate_store.py: v1 and v2 file-layout stores into ``cache.db``,
proven bit-identical.

The import is the only bridge the file layouts have into the result
table, so its failure modes get pinned alongside the happy path:
corrupt and misfiled records left out, the last intact record winning,
``--verify`` actually failing on tampering, and idempotence (a second
run is a no-op without ``--force``). No code in ``src/`` writes the
file layouts any more, so the v2 fixture is written here
(:func:`write_v2_store`), in the bytes ``put_many`` used to write.
"""

from __future__ import annotations

import importlib.util
import json
import sqlite3
import sys
from pathlib import Path

import pytest

from repro.campaign.fingerprint import model_fingerprint
from repro.campaign.spec import PointSpec
from repro.campaign.store import DONE, ResultStore, cache_key, record_checksum
from repro.errors import CampaignError
from tests.campaign.test_store import stored

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


def done_record(point: PointSpec, seconds: float) -> dict:
    """The checksummed record of a done ``point`` under today's model."""
    fingerprint = model_fingerprint()
    record = {"key": cache_key(point, fingerprint), "fingerprint": fingerprint,
              "point": point.to_dict(),
              "result": {"status": DONE, "seconds": seconds, "error": None}}
    record["checksum"] = record_checksum(record)
    return record


def write_v2_store(root: Path, packs: list[list[dict]]) -> list[Path]:
    """A v2 store: its layout marker, one pack file per batch of records
    (one ``json.dumps(record, sort_keys=True)`` line each, as v2's
    ``put_many`` wrote them) and an index directory; returns the packs."""
    (root / "objects" / "packs").mkdir(parents=True, exist_ok=True)
    (root / "index").mkdir(exist_ok=True)
    (root / "STORE_META.json").write_text('{"layout": 2, "shards": 256}',
                                          encoding="utf-8")
    paths = []
    for i, records in enumerate(packs):
        path = root / "objects" / "packs" / f"{i:016x}-1-1.pack"
        path.write_bytes(b"".join(json.dumps(record, sort_keys=True).encode()
                                  + b"\n" for record in records))
        paths.append(path)
    return paths


def _v1_store(root: Path, count: int = 6) -> list[str]:
    """A flat (pre-index) store: loose objects, no marker, no index."""
    keys = []
    for i in range(count):
        record = done_record(_point(i), float(i + 1))
        key = record["key"]
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
    assert "6 record(s) into cache.db" in out

    assert (root / "cache.db").is_file()
    store = ResultStore(root)
    assert store.count_objects() == 6
    for i in range(6):
        assert store.load_key(store.key_for(_point(i)))["result"]["seconds"] == float(i + 1)
    # the import is additive: not one object byte rewritten
    assert before == {p: p.read_bytes()
                      for p in sorted((root / "objects").rglob("*.json"))}


def test_migrate_verify_and_compact_pass_clean(tmp_path, capsys):
    root = tmp_path / "cache"
    points = [_point(i) for i in range(6)]
    write_v2_store(root, [[done_record(p, float(i + 1)) for i, p in enumerate(points)]])
    with pytest.raises(CampaignError, match="migrate_store"):
        ResultStore(root)
    assert ms.main([str(root), "--verify"]) == 0
    assert "verify: OK" in capsys.readouterr().out
    # an imported store compacts clean, and a second compaction finds
    # nothing superseded or dropped
    store = ResultStore(root)
    first = store.compact()
    assert (first.rows_kept, first.superseded, first.quarantined_dropped) == \
        (6, 0, 0)
    second = store.compact()
    assert (second.superseded, second.quarantined_dropped) == (0, 0)
    assert store.count_objects() == 6


def test_second_run_is_a_noop_unless_forced(tmp_path, capsys):
    root = tmp_path / "cache"
    _v1_store(root)
    assert ms.main([str(root)]) == 0
    capsys.readouterr()
    assert ms.main([str(root)]) == 0
    assert "already imported" in capsys.readouterr().out
    assert ms.main([str(root), "--force", "--verify"]) == 0
    assert "6 record(s) into cache.db" in capsys.readouterr().out


def test_campaign_directory_resolves_to_its_cache(tmp_path):
    cdir = tmp_path / "campaign"
    _v1_store(cdir / "cache")
    (cdir / "spec.json").write_text("{}", encoding="utf-8")
    assert ms.main([str(cdir), "--verify"]) == 0
    assert (cdir / "cache" / "cache.db").is_file()
    assert ResultStore(cdir / "cache").count_objects() == 6


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
    assert "3 object(s) left out" in out
    migrated = ResultStore(root)
    assert migrated.count_objects() == 4  # the intact ones, and only those
    assert stored(migrated, keys[0]) is None
    assert stored(migrated, keys[2]) is None
    # left-out damage is never served
    scan = migrated.scan()
    assert scan.errors == 0 and scan.ok == 4


def test_records_without_checksum_stay_unindexed(tmp_path, capsys):
    root = tmp_path / "cache"
    keys = _v1_store(root, count=2)
    path = _loose(root, keys[0])
    record = json.loads(path.read_text(encoding="utf-8"))
    del record["checksum"]  # unauditable: a read would quarantine it
    path.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")

    assert ms.main([str(root), "--verify"]) == 0
    assert "1 object(s) left out" in capsys.readouterr().out
    migrated = ResultStore(root)
    assert migrated.count_objects() == 1
    assert stored(migrated, keys[0]) is None
    assert migrated.load_key(keys[0]) is None  # a miss that recomputes
    scan = migrated.scan()
    assert (scan.ok, scan.errors) == (1, 0)


def test_verify_catches_post_migration_tampering(tmp_path, capsys):
    root = tmp_path / "cache"
    _v1_store(root, count=3)
    inventory = ms.inventory_store(root)
    ms.import_records(root, inventory)
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
    ms.import_records(root, inventory)
    # drop one row behind the tool's back: its key vanishes
    victim = sorted(keys)[0]
    conn = sqlite3.connect(root / "cache.db")
    with conn:
        conn.execute("DELETE FROM results WHERE key = ?", (victim,))
    conn.close()
    problems = ms.verify_store(root, inventory)
    assert problems == [f"{victim}: intact record missing from the database"]


def _packed_store(root: Path) -> tuple[list[Path], list[PointSpec]]:
    """A v2 store whose records sit in several packs (one batch + singles)."""
    points = [_point(i) for i in range(6)]
    records = [done_record(p, float(i + 1)) for i, p in enumerate(points)]
    return write_v2_store(root, [records[:4], records[4:5], records[5:]]), points


def test_force_rebuilds_a_deleted_index_from_the_packs(tmp_path, capsys):
    # the index is not read: a v2 store whose index is gone imports whole
    root = tmp_path / "cache"
    paths, points = _packed_store(root)
    packs = {p: p.read_bytes() for p in paths}
    lines = {json.loads(line)["key"]: json.loads(line)
             for data in packs.values() for line in data.splitlines()}
    (root / "index").rmdir()
    assert ms.main([str(root), "--verify"]) == 0
    out = capsys.readouterr().out
    assert "6 record(s) into cache.db" in out and "verify: OK" in out

    rebuilt = ResultStore(root)
    assert rebuilt.count_objects() == 6
    for i, point in enumerate(points):
        key = rebuilt.key_for(point)
        assert rebuilt.load_key(key) == lines[key]  # bit-identical
        assert rebuilt.result_for("t", point).seconds == float(i + 1)
    assert packs == {p: p.read_bytes() for p in packs}  # nothing rewritten


def test_force_rebuild_prefers_the_last_intact_record(tmp_path):
    root = tmp_path / "cache"
    points = [_point(i) for i in range(6)]
    first = [done_record(p, float(i + 1)) for i, p in enumerate(points)]
    first[0] = done_record(points[0], 7.0)  # superseded below
    damaged = json.dumps(done_record(points[0], 8.0), sort_keys=True)
    damaged = damaged.replace('"seconds": 8.0', '"seconds": 9.0')
    paths = write_v2_store(root, [first, [], [done_record(points[0], 1.0)]])
    paths[1].write_text(damaged + "\n", encoding="utf-8")  # a dead line

    assert ms.main([str(root), "--verify"]) == 0
    assert ms.main([str(root), "--force", "--verify"]) == 0
    rebuilt = ResultStore(root)
    assert rebuilt.result_for("t", points[0]).seconds == 1.0
    scan = rebuilt.scan()
    assert (scan.ok, scan.errors) == (6, 0)
    report = rebuilt.compact()
    assert (report.rows_kept, report.superseded) == (6, 0)


def test_verify_catches_changed_pack_bytes(tmp_path):
    root = tmp_path / "cache"
    paths, points = _packed_store(root)
    inventory = ms.inventory_store(root)
    ms.import_records(root, inventory)
    assert ms.verify_store(root, inventory) == []  # an intact import
    with open(paths[1], "r+b") as fh:  # flip one byte inside a pack
        fh.seek(1)
        byte = fh.read(1)
        fh.seek(1)
        fh.write(bytes([byte[0] ^ 0x01]))
    problems = ms.verify_store(root, inventory)
    rel = paths[1].relative_to(root).as_posix()
    assert f"{rel}: bytes changed during migration" in problems
