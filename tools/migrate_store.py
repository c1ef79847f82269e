#!/usr/bin/env python
"""Build a result store's index from its records: migrate a v1 flat
store in place, or (``--force``) rebuild the index of a v2 one.

A v1 store is a flat tree of loose objects (``objects/ab/<key>.json``)
with no ``STORE_META.json`` and no index. Reads go through the index,
so ``ResultStore`` refuses to open such a store until it is migrated.
v2 stores write records as the lines of pack files
(``objects/packs/<name>.pack``) and may still hold loose objects from
before packs. The index is derived from those records: this tool reads
every loose object and every pack line once, drops the old index,
writes one compacted snapshot per populated shard, then stamps the
``STORE_META.json`` marker (the commit point for a v1 store; a crash
before it leaves the store as it was, and re-running finishes the
job). No object or pack is ever rewritten. When a key has several
intact records, the last one wins (loose objects first, then packs in
name order -- their names start with a creation time stamp -- and lines
in order). Damaged or misfiled records are left unindexed:
``scan``/``verify`` report them as orphaned lines. Run it while no
process writes to the store.

Usage::

    python tools/migrate_store.py STORE            # migrate in place
    python tools/migrate_store.py STORE --verify   # + bit-identity audit
    python tools/migrate_store.py STORE --compact  # + compaction pass
    python tools/migrate_store.py STORE --force    # rebuild the index
                                                   # even if already v2

``STORE`` is either a store root (a directory holding ``objects/``) or
a campaign directory (holding ``spec.json``; its ``cache/`` is used).

``--verify`` proves the diffcheck-style contract: a pre-migration
inventory of every loose object's and pack's bytes is re-hashed
afterwards (nothing touched), the index must cover exactly the keys
with an intact record in both directions, and for every key the indexed
(checksum, status, seconds) must equal what the record itself answers
-- i.e. a migrated (and, with ``--compact``, compacted) store answers
every query bit-identically to the records it was built from.

Exit codes: 0 = migrated/verified OK, 1 = verification failed,
2 = bad invocation (not a store, unreadable layout).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
if str(SRC) not in sys.path:  # runnable straight from a checkout
    sys.path.insert(0, str(SRC))

from repro.campaign.shard import (  # noqa: E402
    STORE_LAYOUT_VERSION,
    STORE_META,
    StoreIndex,
    read_store_meta,
    shard_prefix,
    write_store_meta,
)
from repro.campaign.store import (  # noqa: E402
    ResultStore,
    pack_lines,
    record_checksum,
    record_files,
)
from repro.errors import CampaignError  # noqa: E402


@dataclass
class Inventory:
    """Everything a store's records hold, read once.

    ``files`` maps each loose object's and pack's path (relative to the
    store root) to the sha256 of its bytes; ``records`` lists every
    loose object and pack line in precedence order as dicts with
    ``name`` (a loose object's filename key, None for a pack line),
    ``path``, ``offset``, ``length`` (None for a loose object, read
    whole) and ``record`` (None when the bytes do not parse to a JSON
    object).
    """

    files: dict[str, str] = field(default_factory=dict)
    records: list[dict] = field(default_factory=list)


def resolve_store_root(target: Path) -> Path:
    """``target`` as a store root (campaign dirs resolve to their cache)."""
    if (target / "spec.json").exists():
        target = target / "cache"
    if (target / "objects").is_dir() or (target / STORE_META).exists():
        return target
    print(f"error: {target} is not a result store (no objects/ tree) "
          "and not a campaign directory (no spec.json)", file=sys.stderr)
    raise SystemExit(2)


def _parse(raw: bytes) -> dict | None:
    """``raw`` as a JSON object, or None."""
    try:
        record = json.loads(raw.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    return record if isinstance(record, dict) else None


def inventory_store(root: Path) -> Inventory:
    """Read every loose object and pack line under ``root`` once."""
    inventory = Inventory()
    for rel in record_files(root):
        raw = (root / rel).read_bytes()
        inventory.files[rel] = hashlib.sha256(raw).hexdigest()
        if rel.endswith(".json"):
            inventory.records.append({"name": Path(rel).stem, "path": rel,
                                      "offset": None, "length": None,
                                      "record": _parse(raw)})
            continue
        for offset, line in pack_lines(raw):
            inventory.records.append({"name": None, "path": rel,
                                      "offset": offset, "length": len(line),
                                      "record": _parse(line)})
    return inventory


def _indexable(entry: dict) -> dict | None:
    """The index row for an inventoried record, or None to skip it.

    Skipped: unparseable bytes, loose objects whose embedded key
    disagrees with the filename (misfiled), records without a checksum
    or failing it (a read would quarantine them, so indexing them would
    only create an immediately-stale row), and keys that are not
    two-hex-prefix shardable.
    """
    record = entry["record"]
    if record is None:
        return None
    key = record.get("key")
    if not isinstance(key, str) or entry["name"] not in (None, key):
        return None
    checksum = record.get("checksum")
    if checksum is None or record_checksum(record) != checksum:
        return None
    try:
        shard_prefix(key)
    except CampaignError:
        return None
    result = record.get("result")
    result = result if isinstance(result, dict) else {}
    point = record.get("point")
    return {
        "key": key,
        "path": entry["path"],
        "offset": entry["offset"],
        "length": entry["length"],
        "checksum": checksum,
        "point": dict(point) if isinstance(point, dict) else {},
        "status": result.get("status"),
        "seconds": result.get("seconds"),
        "wall_ms": None,  # wall time is a run-side fact; unknowable here
    }


def expected_rows(inventory: Inventory) -> tuple[dict[str, dict], int]:
    """key -> the row of its last intact record; plus the skipped count."""
    rows: dict[str, dict] = {}
    skipped = 0
    for entry in inventory.records:
        row = _indexable(entry)
        if row is None:
            skipped += 1
        else:
            rows[row["key"]] = row
    return rows, skipped


def build_index(root: Path, inventory: Inventory) -> tuple[int, int]:
    """Replace the index with one built from ``inventory``; stamp v2.

    Returns (rows indexed, records skipped). The old index is dropped
    first, so the new one is derived from the records alone; each
    shard's snapshot publishes atomically via its locked compaction
    writer, and the ``STORE_META.json`` stamp lands last.
    """
    rows, skipped = expected_rows(inventory)
    shutil.rmtree(root / "index", ignore_errors=True)
    index = StoreIndex(root)
    index.record_puts(rows[key] for key in sorted(rows))
    index.compact()  # fold straight to the snapshots; logs end empty
    write_store_meta(root)
    return len(rows), skipped


def verify_store(root: Path, inventory: Inventory) -> list[str]:
    """Bit-identity audit of an indexed store against its inventory.

    Returns a list of problems (empty = verified):

    * every inventoried loose object and pack still hashes to its
      pre-migration sha256 (migration touched no record bytes);
    * index coverage is exact both ways over the keys with an intact
      record;
    * per key, the indexed checksum equals its record's, and (status,
      seconds) equal what a read of the record answers.
    """
    problems: list[str] = []
    for rel, digest in sorted(inventory.files.items()):
        try:
            now = hashlib.sha256((root / rel).read_bytes()).hexdigest()
        except FileNotFoundError:
            problems.append(f"{rel}: vanished during migration")
            continue
        if now != digest:
            problems.append(f"{rel}: bytes changed during migration")

    rows = dict(StoreIndex(root).rows())
    expected, _skipped = expected_rows(inventory)
    for key in sorted(set(expected) - set(rows)):
        problems.append(f"{key}: intact record missing from the index")
    for key in sorted(set(rows) - set(expected)):
        problems.append(f"{key}: index row with no intact record")
    for key in sorted(set(expected) & set(rows)):
        want, got = expected[key], rows[key]
        if got.get("checksum") != want["checksum"]:
            problems.append(f"{key}: index checksum disagrees with the record")
        if (got.get("status"), got.get("seconds")) != (
                want["status"], want["seconds"]):
            problems.append(f"{key}: index (status, seconds) disagree "
                            "with a read of the record")
    return problems


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="migrate_store", description=__doc__.splitlines()[0])
    parser.add_argument("store", help="store root (objects/) or campaign "
                        "directory (spec.json)")
    parser.add_argument("--verify", action="store_true",
                        help="audit bit-identity after migrating")
    parser.add_argument("--compact", action="store_true",
                        help="run a compaction pass after migrating")
    parser.add_argument("--force", action="store_true",
                        help="rebuild the index even on an already-v2 store")
    args = parser.parse_args(argv)

    root = resolve_store_root(Path(args.store))
    meta = read_store_meta(root)
    inventory = inventory_store(root)

    if meta is not None and not args.force:
        print(f"already v{meta.get('layout', STORE_LAYOUT_VERSION)}: "
              f"{root} ({len(inventory.records)} record(s)); "
              "use --force to rebuild")
    else:
        rows, skipped = build_index(root, inventory)
        print(f"migrated {root}: {rows} row(s) indexed across "
              f"{len(StoreIndex(root).prefixes())} shard(s), "
              f"{skipped} object(s) left unindexed (corrupt/misfiled)")

    if args.compact:
        report = ResultStore(root).compact()
        print(f"compacted: {report.summary()}")

    if args.verify:
        problems = verify_store(root, inventory)
        if problems:
            print(f"verify: {len(problems)} problem(s)", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        print(f"verify: OK ({len(inventory.files)} file(s) bit-identical, "
              "index coverage exact)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
