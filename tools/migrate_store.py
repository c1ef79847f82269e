#!/usr/bin/env python
"""Import a file-layout result store into its ``cache.db``.

Result stores written before the result table kept their records in
files: a v1 store as loose objects (``objects/ab/<key>.json``), a v2
store as the lines of pack files (``objects/packs/<name>.pack``, next
to loose objects left from v1) with a sharded index beside them.
``ResultStore`` refuses to open such a root until it holds a
``cache.db``. This tool reads every loose object and pack line once and
imports each key's last intact record -- loose objects first, then
packs in name order (their names start with a creation time stamp) and
lines in order. Records that do not parse, carry no checksum or fail
it, or sit in a loose object named after another key are left out. The
index is not read: every record it could point to is in the files.

The database is written beside the old files and renamed to
``cache.db`` last, so a crash before the rename leaves the root as it
was and re-running finishes the job. The old files are not touched;
delete ``objects/``, ``index/`` and the layout marker once the import
is verified. Run it while no process writes to the store.

Usage::

    python tools/migrate_store.py STORE            # import
    python tools/migrate_store.py STORE --verify   # + read-back audit
    python tools/migrate_store.py STORE --force    # import again over
                                                   # an existing cache.db

``STORE`` is either a store root (a directory holding ``objects/``) or
a campaign directory (holding ``spec.json``; its ``cache/`` is used).
``--force`` replaces the database with a fresh import; rows written
since the last import are dropped and recompute.

``--verify`` proves the import bit-identical: every loose object and
pack still hashes as it did before the import, the database holds
exactly the keys with an intact record, and every key reads back
through ``ResultStore.load_key`` as the canonical JSON of the record it
was imported from.

Exit codes: 0 = imported/verified OK, 1 = verification failed,
2 = bad invocation (not a store).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
if str(SRC) not in sys.path:  # runnable straight from a checkout
    sys.path.insert(0, str(SRC))

from repro.campaign.shard import DB_NAME, ShardIndex  # noqa: E402
from repro.campaign.spec import canonical_json  # noqa: E402
from repro.campaign.store import ResultStore, record_checksum  # noqa: E402

#: The members of a stored record, and only those.
_MEMBERS = {"checksum", "fingerprint", "key", "point", "result"}


@dataclass
class Inventory:
    """Everything a file-layout store's records hold, read once.

    ``files`` maps each loose object's and pack's path (relative to the
    store root) to the sha256 of its bytes; ``records`` lists every
    loose object and pack line in precedence order as ``(name,
    record)``: a loose object's filename key (None for a pack line) and
    the parsed record (None when the bytes are not a JSON object).
    """

    files: dict[str, str] = field(default_factory=dict)
    records: list[tuple[str | None, dict | None]] = field(default_factory=list)


def resolve_store_root(target: Path) -> Path:
    """``target`` as a store root (campaign dirs resolve to their cache)."""
    if (target / "spec.json").exists():
        target = target / "cache"
    if (target / "objects").is_dir() or (target / DB_NAME).exists():
        return target
    print(f"error: {target} is not a result store (no objects/ tree) "
          "and not a campaign directory (no spec.json)", file=sys.stderr)
    raise SystemExit(2)


def _parse(raw: bytes) -> dict | None:
    """``raw`` as a JSON object, or None."""
    try:
        record = json.loads(raw.decode("utf-8"))
    except ValueError:  # bad JSON or UTF-8, or a huge integer
        return None
    return record if isinstance(record, dict) else None


def inventory_store(root: Path) -> Inventory:
    """Read every loose object, then every pack line, under ``root``."""
    inventory = Inventory()
    for pattern in ("objects/??/*.json", "objects/packs/*.pack"):
        for path in sorted(root.glob(pattern)):
            raw = path.read_bytes()
            inventory.files[path.relative_to(root).as_posix()] = \
                hashlib.sha256(raw).hexdigest()
            if path.suffix == ".json":
                inventory.records.append((path.stem, _parse(raw)))
            else:
                inventory.records.extend(
                    (None, _parse(line)) for line in raw.split(b"\n") if line)
    return inventory


def expected_records(inventory: Inventory) -> tuple[dict[str, dict], int]:
    """key -> its last intact record; plus the number left out."""
    records: dict[str, dict] = {}
    skipped = 0
    for name, record in inventory.records:
        if (record is None or set(record) != _MEMBERS
                or not isinstance(record["key"], str)
                or not isinstance(record["fingerprint"], str)
                or name not in (None, record["key"])
                or record_checksum(record) != record["checksum"]):
            skipped += 1
        else:
            records[record["key"]] = record
    return records, skipped


def import_records(root: Path, inventory: Inventory) -> tuple[int, int]:
    """Write the inventory's records into a new ``root/cache.db``.

    Returns (records imported, records left out). The database is
    built as ``cache.db.import`` and renamed over ``cache.db`` once its
    connection has closed, so its WAL is folded in first.
    """
    records, skipped = expected_records(inventory)
    db = root / DB_NAME
    building = root / f"{DB_NAME}.import"
    for stale in (building, *(db.with_name(db.name + s) for s in ("-wal", "-shm"))):
        stale.unlink(missing_ok=True)
    table = ShardIndex(building)
    try:
        table.append(*(
            (key, record["fingerprint"], canonical_json(record["point"]),
             canonical_json(record["result"]), record["checksum"], None)
            for key, record in sorted(records.items())))
    finally:
        table.close()
    os.replace(building, db)
    return len(records), skipped


def verify_store(root: Path, inventory: Inventory) -> list[str]:
    """Read-back audit of an imported store against its inventory.

    Returns a list of problems (empty = verified).
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

    expected, _skipped = expected_records(inventory)
    store = ResultStore(root)
    stored = {key for key, *_rest in store.rows()}
    for key in sorted(set(expected) - stored):
        problems.append(f"{key}: intact record missing from the database")
    for key in sorted(stored - set(expected)):
        problems.append(f"{key}: row with no intact record")
    for key in sorted(set(expected) & stored):
        record = store.load_key(key)
        if record is None or canonical_json(record) != canonical_json(expected[key]):
            problems.append(f"{key}: reads back differently from its record")
    return problems


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="migrate_store", description=__doc__.splitlines()[0])
    parser.add_argument("store", help="store root (objects/) or campaign "
                        "directory (spec.json)")
    parser.add_argument("--verify", action="store_true",
                        help="audit bit-identity after importing")
    parser.add_argument("--force", action="store_true",
                        help="import again over an existing cache.db")
    args = parser.parse_args(argv)

    root = resolve_store_root(Path(args.store))
    inventory = inventory_store(root)

    if (root / DB_NAME).exists() and not args.force:
        print(f"already imported: {root} holds {DB_NAME} "
              f"({len(inventory.records)} old record(s)); "
              "use --force to import again")
    else:
        imported, skipped = import_records(root, inventory)
        print(f"imported {root}: {imported} record(s) into {DB_NAME}, "
              f"{skipped} object(s) left out (corrupt/misfiled)")

    if args.verify:
        problems = verify_store(root, inventory)
        if problems:
            print(f"verify: {len(problems)} problem(s)", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        print(f"verify: OK ({len(inventory.files)} file(s) bit-identical, "
              "every key reads back)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
