"""Sharded persistent index for the content-addressed result store.

Records live in pack files (``objects/packs/<name>.pack``, one record
per line, one pack per committed wave or shipped segment), so the store
needs an index to find them: this module keeps one per key-prefix
shard, and it is what makes lookups, counts and queries O(result)
instead of O(walk every pack). The two-hex-digit key prefix gives the
natural 256-way shard structure.

Layout, per store root::

    STORE_META.json            # {"layout": 2, "shards": 256} -- v2 marker
    objects/packs/<name>.pack  # the records, ground truth
    objects/ab/<key>.json      # loose records from stores written before packs
    index/ab.log.jsonl         # append-only index journal for shard "ab"
    index/ab.idx.json          # compacted snapshot of shard "ab"

Every committed batch of records appends its rows (``key -> path,
offset, length, checksum, status, seconds, wall_ms, point``) to each
shard it touches -- one :meth:`ShardIndex.append` per shard, through
the same locked ``O_APPEND`` append as the campaign journal
(:func:`repro.campaign.durable.append_lines`), so concurrent writers
never interleave partial rows. A row without ``offset`` names a loose
object, read whole. Every ``quarantine`` appends a tombstone. Reading
a shard merges the compacted snapshot with a torn-tolerant replay of
its log (last-wins; tombstones delete).

The read path keeps only a *locator* per live key -- ``(path, offset,
length)`` -- cached once per process for all the handles open on a
store (:meth:`StoreIndex.shared`) and refreshed from the log's new
bytes only, so a read costs O(1) stat calls plus whatever was appended
since; full rows (with the point and result fields) are parsed only
when a query or an audit asks for them. A batch read
(:meth:`StoreIndex.locate_many`) polls each shard it needs at most once.

**The locator fold.** Most log lines are put rows exactly as
``ResultStore.put_many`` writes them: canonical JSON with its ten
fields in sorted order (``checksum``, ``key``, ``length``, ``offset``,
``op`` = ``"put"``, ``path``, ``point``, ``seconds``, ``status``,
``wall_ms``). The fold reads such a row's key, path, offset and length
from one match of that shape (:data:`_PUT_ROW`) instead of parsing the
row. The pattern spells out the whole grammar of the row -- strings of
printable ASCII without escapes, JSON numbers, ``null``, and a flat
``point`` object of such members -- so a line it matches is one
``json.loads`` accepts and whose locator is the one read from it; a
row torn anywhere, even right after a ``}``, does not match. Every
other line (tombstones, loose-object rows, rows with other fields, torn
or healed fragments, non-object JSON, blank lines) is parsed whole and
folded in log order, exactly as :meth:`ShardIndex.rows` reads it.

**Compaction** (:meth:`StoreIndex.compact`, fronted by ``pstl-campaign
compact``) folds each shard's log into its snapshot: superseded rows
and quarantined tombstones are dropped, the snapshot is published
atomically (temp file + rename, :func:`repro.campaign.durable.publish`),
and the log is truncated to zero -- all while holding the shard log's
exclusive advisory lock (:func:`repro.campaign.durable.locked`), so
appenders serialize against the rewrite instead of losing rows. A
shard whose log is empty has nothing to fold and keeps its snapshot
file untouched, so no reader rebuilds its locators. Packs are never
rewritten.

The index is a *derived* structure: the records remain the ground
truth, ``ResultStore.scan`` cross-checks the two, and
``tools/migrate_store.py --force`` rebuilds the index from the packs
and loose objects at any time. Index appends therefore skip ``fsync``
-- losing a tail row to a crash costs an orphaned pack line and a
recompute, not data.
"""

from __future__ import annotations

import json
import os
import re
import sys
import threading
import weakref
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.campaign.durable import (
    Lines,
    append_lines,
    locked,
    publish,
    read_json,
    read_lines,
    read_tail,
)
from repro.campaign.spec import canonical_json
from repro.errors import CampaignError

__all__ = [
    "SHARD_COUNT",
    "STORE_META",
    "STORE_LAYOUT_VERSION",
    "CompactionReport",
    "Locator",
    "ShardIndex",
    "StoreIndex",
    "shard_prefix",
    "read_store_meta",
    "write_store_meta",
]

#: Number of key-prefix shards (two hex digits -> 256).
SHARD_COUNT = 256

#: Marker file naming the store layout version at the store root.
STORE_META = "STORE_META.json"

#: Current on-disk layout version (v1 = flat unindexed, v2 = sharded index).
STORE_LAYOUT_VERSION = 2

_HEX = set("0123456789abcdef")

#: Where one live record's bytes are: ``(path relative to the store
#: root, offset, length)``; offset and length are None for a loose
#: object, which is read whole.
Locator = tuple[str, int | None, int | None]


def _locator(row: Mapping[str, Any]) -> Locator:
    """The locator of one put row (path strings shared across rows)."""
    return (sys.intern(str(row.get("path"))), row.get("offset"),
            row.get("length"))


#: The text of a JSON string without escapes (printable ASCII but
#: ``"`` and ``\``), one such string, one JSON number, one scalar value.
_CHARS = rb'[\x20\x21\x23-\x5b\x5d-\x7e]*'
_STRING = rb'"' + _CHARS + rb'"'
_NUMBER = rb'-?(?:0|[1-9][0-9]{0,99})(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?'
_SCALAR = rb'(?:' + _STRING + rb'|' + _NUMBER + rb'|null)'
_MEMBER = _STRING + rb':' + _SCALAR

#: A put row exactly as ``put_many`` writes it (see the module doc);
#: groups: key, length, offset, path. Integer parts stop at 100 digits
#: (offsets and lengths at 18), so every match converts as json would.
_PUT_ROW = re.compile(
    rb'\{"checksum":' + _SCALAR + rb',"key":"(' + _CHARS + rb')"'
    + rb',"length":(0|[1-9][0-9]{0,17}),"offset":(0|[1-9][0-9]{0,17})'
    + rb',"op":"put","path":"(' + _CHARS + rb')"'
    + rb',"point":\{(?:' + _MEMBER + rb'(?:,' + _MEMBER + rb')*)?\}'
    + rb',"seconds":' + _SCALAR + rb',"status":' + _SCALAR
    + rb',"wall_ms":' + _SCALAR + rb'\}')


def _row(entry: Mapping[str, Any]) -> dict:
    """The index row a put entry carries (its ``op`` and ``key`` dropped)."""
    return {k: v for k, v in entry.items() if k not in ("op", "key")}


def shard_prefix(key: str) -> str:
    """The two-hex-digit shard a cache key belongs to."""
    prefix = key[:2].lower()
    if len(prefix) != 2 or not set(prefix) <= _HEX:
        raise CampaignError(f"not a shardable cache key: {key!r}")
    return prefix


def write_store_meta(root: str | os.PathLike) -> None:
    """Stamp ``root`` as a v2 (sharded-index) store, atomically."""
    publish(Path(root) / STORE_META, json.dumps(
        {"layout": STORE_LAYOUT_VERSION, "shards": SHARD_COUNT},
        sort_keys=True))


def read_store_meta(root: str | os.PathLike) -> dict | None:
    """The store-layout marker at ``root``, or None for a v1/fresh store
    (a torn marker reads as unmigrated, never crashing a read)."""
    payload = read_json(Path(root) / STORE_META)
    return payload if isinstance(payload, dict) else None


@dataclass
class CompactionReport:
    """What one compaction pass did (see :meth:`StoreIndex.compact`)."""

    shards: int = 0
    rows_kept: int = 0
    superseded: int = 0
    quarantined_dropped: int = 0
    log_bytes_merged: int = 0

    def merge(self, other: "CompactionReport") -> None:
        """Fold another shard's report into this aggregate."""
        self.shards += other.shards
        self.rows_kept += other.rows_kept
        self.superseded += other.superseded
        self.quarantined_dropped += other.quarantined_dropped
        self.log_bytes_merged += other.log_bytes_merged

    def summary(self) -> str:
        """One-line human report."""
        return (
            f"{self.shards} shard(s) compacted: {self.rows_kept} row(s) kept, "
            f"{self.superseded} superseded, {self.quarantined_dropped} "
            f"quarantined row(s) dropped, {self.log_bytes_merged} "
            f"log byte(s) merged"
        )


class ShardIndex:
    """One key-prefix shard: an append-only log plus a compacted snapshot.

    Appends go to ``<prefix>.log.jsonl`` (one locked ``O_APPEND``
    write that heals a torn tail, like the campaign journal); reads
    merge ``<prefix>.idx.json`` with a log replay, last row per key
    winning and ``quarantine`` tombstones deleting.

    The cache holds only locators (:meth:`locators`). It is keyed by
    the snapshot's stat signature and the number of log bytes already
    folded in: a grown log replays just its new complete lines, while a
    rewritten snapshot or a shrunk log (a compaction, by any process)
    rebuilds it. :meth:`locate` answers a cached key without polling at
    all (see there); appends through this instance drop their keys from
    the cache, so its users always see their own writes.
    """

    def __init__(self, index_root: str | os.PathLike, prefix: str) -> None:
        """Bind to shard ``prefix`` under ``index_root`` (lazily created)."""
        self.prefix = prefix
        root = Path(index_root)
        self.log_path = root / f"{prefix}.log.jsonl"
        self.compact_path = root / f"{prefix}.idx.json"
        self._cache: dict[str, Locator] | None = None
        self._cache_base: tuple | None = None  # snapshot signature
        self._cache_offset = 0  # log bytes folded into the cache
        self._lock = threading.Lock()

    def _snapshot_sig(self) -> tuple | None:
        """Stat signature of the snapshot (None when absent)."""
        try:
            stat = self.compact_path.stat()
        except FileNotFoundError:
            return None
        return (stat.st_ino, stat.st_mtime_ns, stat.st_size)

    def _log_size(self) -> int:
        """Current log length in bytes (0 when absent)."""
        try:
            return self.log_path.stat().st_size
        except FileNotFoundError:
            return 0

    def append(self, *rows: Mapping[str, Any]) -> None:
        """Append ``rows`` to the shard log as one batch of whole lines.

        The same locked append as :meth:`Journal.append`
        (:func:`repro.campaign.durable.append_lines`) minus the
        ``fsync``: the index is derived from the records and
        rebuildable, so a lost tail row costs a flagged rebuild, not
        data. A call with no rows touches no file.
        """
        with self._lock:  # re-read these keys from the log next time
            if self._cache is not None:
                for row in rows:
                    self._cache.pop(row.get("key"), None)
        append_lines(self.log_path, "".join(
            canonical_json(dict(row)) + "\n" for row in rows
        ).encode("utf-8"))

    def _read_compact(self) -> dict[str, dict]:
        """Rows of the compacted snapshot ({} when absent or unreadable --
        the records stay ground truth; scan flags the gap)."""
        payload = read_json(self.compact_path)
        rows = payload.get("rows") if isinstance(payload, Mapping) else None
        if not isinstance(rows, Mapping):
            return {}
        return {k: dict(v) for k, v in rows.items() if isinstance(v, Mapping)}

    @staticmethod
    def _replay(merged: dict, entries: Iterable[dict],
                value: Callable[[Mapping[str, Any]], Any] = _row,
                report: CompactionReport | None = None) -> dict:
        """Fold log ``entries`` into ``merged`` in place (last-wins,
        tombstones delete); each put stores ``value(entry)``."""
        for entry in entries:
            key = entry.get("key")
            if not isinstance(key, str):
                continue
            op = entry.get("op")
            if op == "quarantine":
                if merged.pop(key, None) is not None and report is not None:
                    report.quarantined_dropped += 1
            elif op == "put":
                if key in merged and report is not None:
                    report.superseded += 1
                merged[key] = value(entry)
        return merged

    @classmethod
    def _fold(cls, cache: dict[str, Locator], data: bytes) -> None:
        """Fold the log lines ``data`` into the locator ``cache``, in log
        order: a put row in ``put_many``'s shape (:data:`_PUT_ROW`) by
        its match, every other line parsed whole as :meth:`_replay`
        reads it."""
        for line in data.split(b"\n"):
            match = _PUT_ROW.fullmatch(line)
            if match is None:
                cls._replay(cache, Lines(line), _locator)
            else:
                key, length, offset, path = match.groups()
                cache[key.decode()] = (sys.intern(path.decode()),
                                       int(offset), int(length))

    def rows(self) -> dict[str, dict]:
        """key -> full index row for every live key in this shard.

        Parsed afresh on every call (queries and audits only); the read
        path goes through :meth:`locators` instead.
        """
        return self._replay(self._read_compact(), read_lines(self.log_path))

    def lookup(self, key: str) -> dict | None:
        """The full index row for ``key``, or None (parses the shard)."""
        return self.rows().get(key)

    def locators(self) -> dict[str, Locator]:
        """key -> ``(path, offset, length)`` for every live key (cached).

        Returns the internal cached mapping -- treat it as read-only.
        A fresh poll costs two ``stat`` calls, plus folding whatever
        complete lines were appended since the last one (:meth:`_fold`).
        """
        with self._lock:
            base, log_size = self._snapshot_sig(), self._log_size()
            if (self._cache is None or base != self._cache_base
                    or log_size < self._cache_offset):
                self._cache = {key: _locator(row)
                               for key, row in self._read_compact().items()}
                self._cache_base, self._cache_offset = base, 0
            if log_size > self._cache_offset:
                # Only complete lines fold; an unterminated fragment waits
                # for its newline. A log that shrank since the stat reads
                # nothing here and is rebuilt on the next poll.
                lines, offset, _read = read_tail(self.log_path,
                                                 self._cache_offset)
                self._fold(self._cache, lines.raw)
                self._cache_offset = max(offset, self._cache_offset)
            return self._cache

    def locate(self, key: str) -> Locator | None:
        """Where ``key``'s record is, or None.

        A key already in the cache is answered without touching the
        disk: records are never moved or rewritten, so its span stays
        readable. Another process may since have superseded the row (an
        identical record, same key) or tombstoned it (its record failed
        verification); a reader that finds the record bad polls
        :meth:`locators` for the live row before quarantining anything
        (:meth:`~repro.campaign.store.ResultStore.load_key`). An unknown
        key polls for rows appended since.
        """
        loc = self.cached(key)
        return loc if loc is not None else self.locators().get(key)

    def cached(self, key: str) -> Locator | None:
        """``key``'s locator if the cache holds it; never polls."""
        cache = self._cache
        return None if cache is None else cache.get(key)

    #: Snapshot head shape: ``sort_keys`` puts ``"count"`` first, so a
    #: 64-byte read answers counts without parsing the whole snapshot.
    _COUNT_HEAD = re.compile(rb'^\{"count": (\d+)[,}]')

    def count(self) -> int:
        """Number of live keys in this shard.

        On a compacted shard (empty log) this is O(1): the snapshot
        embeds its row count as its first JSON key, read from the file
        head without parsing the rows. With pending log entries -- whose
        tombstones and supersedes need the merge -- it counts the
        locator cache.
        """
        if not self._log_size():
            count = self._snapshot_count()
            if count is not None:
                return count
        return len(self.locators())

    def _snapshot_count(self) -> int | None:
        """The row count in the snapshot's head (None when the snapshot
        is missing or its head does not give one)."""
        try:
            with open(self.compact_path, "rb") as fh:
                head = fh.read(64)
        except FileNotFoundError:
            return None
        match = self._COUNT_HEAD.match(head)
        return int(match.group(1)) if match else None

    def compact(self) -> CompactionReport:
        """Fold the log into the snapshot; truncate the log; atomically.

        Runs under the shard log's exclusive advisory lock, so appends
        racing the compaction serialize: a row appended before the lock
        is merged, one appended after lands in the (now empty) log.
        The snapshot publishes via temp file + rename, so readers only
        ever see a whole snapshot. A shard whose log is empty has
        nothing to fold: its snapshot file is left untouched (its stat
        signature, which every reader's cache is keyed by, stays) and
        only its rows are counted as kept.
        """
        report = CompactionReport()
        if not self.log_path.exists() and not self.compact_path.exists():
            return report
        with locked(self.log_path) as fd:
            report.log_bytes_merged = os.fstat(fd).st_size
            if not report.log_bytes_merged:
                count = self._snapshot_count()
                report.rows_kept = len(self._read_compact()) \
                    if count is None else count
                return report
            merged = self._replay(self._read_compact(),
                                  read_lines(self.log_path), report=report)
            publish(self.compact_path, json.dumps({
                "count": len(merged),  # first key: O(1) count reads
                "layout": STORE_LAYOUT_VERSION,
                "prefix": self.prefix,
                "rows": merged,
            }, sort_keys=True))
            os.ftruncate(fd, 0)
            with self._lock:
                self._cache = {key: _locator(row)
                               for key, row in merged.items()}
                self._cache_base, self._cache_offset = \
                    self._snapshot_sig(), 0
        report.shards = 1
        report.rows_kept = len(merged)
        return report


class StoreIndex:
    """The store-wide view over all 256 key-prefix shards.

    Shards are lazily instantiated and lazily created on disk -- a
    store that only ever saw keys under ``ab/`` has exactly one shard's
    files. Every on-disk :class:`~repro.campaign.store.ResultStore`
    holds one, obtained through :meth:`shared`.
    """

    #: The indexes open in this process, by store root; an entry lives
    #: as long as some handle holds it.
    _open: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
    _open_lock = threading.Lock()

    def __init__(self, root: str | os.PathLike) -> None:
        """Bind to the store ``root`` (index files under ``root/index``)."""
        self.root = Path(root)
        self.index_root = self.root / "index"
        self._shards: dict[str, ShardIndex] = {}

    @classmethod
    def shared(cls, root: str | os.PathLike) -> "StoreIndex":
        """The index of the store at ``root`` that this process shares.

        Every handle open on one store at the same time gets the same
        instance, so its locator caches are built once, not once per
        handle: the service opens a store handle per campaign run,
        per remote coordinator and per results request, and each would
        otherwise parse every shard it touches afresh. Sharing is safe
        because the caches are validated against the files on every
        poll and records never move; the instance is dropped with the
        last handle that holds it.
        """
        path = os.path.abspath(root)
        with cls._open_lock:
            index = cls._open.get(path)
            if index is None:
                index = cls._open[path] = cls(root)
        return index

    def shard(self, prefix: str) -> ShardIndex:
        """The :class:`ShardIndex` for ``prefix`` (memoized)."""
        shard = self._shards.get(prefix)
        if shard is None:  # setdefault: racing threads share one instance
            shard = self._shards.setdefault(
                prefix, ShardIndex(self.index_root, prefix))
        return shard

    def shard_for(self, key: str) -> ShardIndex:
        """The shard that owns cache key ``key``."""
        shard = self._shards.get(key[:2])  # the per-lookup fast path
        return shard if shard is not None else self.shard(shard_prefix(key))

    def prefixes(self) -> list[str]:
        """Sorted shard prefixes that exist on disk."""
        if not self.index_root.is_dir():
            return []
        found = set()
        for path in self.index_root.iterdir():
            prefix = path.name[:2].lower()
            if len(path.name) > 2 and set(prefix) <= _HEX:
                found.add(prefix)
        return sorted(found)

    def record_puts(self, rows: Iterable[Mapping[str, Any]]) -> None:
        """Index a batch of freshly written records.

        Each row carries ``key`` plus its locator (``path``, ``offset``,
        ``length``) and the query fields. Rows are grouped by shard and
        land with one :meth:`ShardIndex.append` per shard touched, in
        their given order within each shard.
        """
        by_shard: dict[str, list[dict]] = {}
        for row in rows:
            by_shard.setdefault(shard_prefix(row["key"]), []).append(
                {"op": "put", **row})
        for prefix, batch in by_shard.items():
            self.shard(prefix).append(*batch)

    def record_quarantine(self, key: str, reason: str) -> None:
        """Tombstone ``key`` (its row drops at the next merge/compaction)."""
        self.shard_for(key).append({
            "op": "quarantine", "key": key, "reason": reason,
        })

    def locate(self, key: str) -> Locator | None:
        """Where ``key``'s live record is (cached), or None."""
        return self.shard_for(key).locate(key)

    def locate_many(self, keys: Sequence[str]) -> list[Locator | None]:
        """:meth:`locate` for each of ``keys``, polling each shard at
        most once.

        A key its shard's cache holds is answered from it, as
        :meth:`ShardIndex.locate` answers it. Each shard that owns any
        other key is then polled once (:meth:`ShardIndex.locators`) for
        all of them, so an all-miss batch costs two ``stat`` calls per
        shard touched, not per key.
        """
        found: list[Locator | None] = []
        unknown: dict[ShardIndex, list[int]] = {}
        for i, key in enumerate(keys):
            shard = self.shard_for(key)
            loc = shard.cached(key)
            if loc is None:
                unknown.setdefault(shard, []).append(i)
            found.append(loc)
        for shard, indices in unknown.items():
            locators = shard.locators()
            for i in indices:
                found[i] = locators.get(keys[i])
        return found

    def lookup(self, key: str) -> dict | None:
        """The full index row for ``key``, or None."""
        return self.shard_for(key).lookup(key)

    def has(self, key: str) -> bool:
        """True when ``key`` has a live index row (tombstones excluded)."""
        return self.locate(key) is not None

    def count(self) -> int:
        """Total live keys across every shard on disk."""
        return sum(self.shard(p).count() for p in self.prefixes())

    def rows(self) -> Iterator[tuple[str, dict]]:
        """Yield every (key, full row) across shards, shard then key order."""
        for prefix in self.prefixes():
            rows = self.shard(prefix).rows()
            for key in sorted(rows):
                yield key, rows[key]

    def compact(self) -> CompactionReport:
        """Compact every shard on disk; aggregate report."""
        total = CompactionReport()
        for prefix in self.prefixes():
            total.merge(self.shard(prefix).compact())
        return total
