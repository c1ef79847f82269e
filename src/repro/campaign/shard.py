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
shard it touches -- one :meth:`ShardIndex.append` per shard, under the
same flock + single ``O_APPEND`` ``write()`` discipline as the campaign
journal, so concurrent writers never interleave partial rows. A row
without ``offset`` names a loose object, read whole. Every
``quarantine`` appends a tombstone. Reading a shard merges the
compacted snapshot with a replay of its log (last-wins; tombstones
delete).

The read path keeps only a *locator* per live key -- ``(path, offset,
length)`` -- cached once per process for all the handles open on a
store (:meth:`StoreIndex.shared`) and refreshed from the log's new
bytes only, so a read costs O(1) stat calls plus whatever was appended
since; full rows (with the point and result fields) are parsed only
when a query or an audit asks for them.

**Compaction** (:meth:`StoreIndex.compact`, fronted by ``pstl-campaign
compact``) folds each shard's log into its snapshot: superseded rows
and quarantined tombstones are dropped, the snapshot is rewritten
atomically (temp file + rename), and the log is truncated to zero --
all while holding the shard log's exclusive advisory lock, so appenders
serialize against the rewrite instead of losing rows. Packs are never
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
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

try:  # pragma: no cover - platform probe
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback (single-writer)
    fcntl = None

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


def _row(entry: Mapping[str, Any]) -> dict:
    """The index row a put entry carries (its ``op`` and ``key`` dropped)."""
    return {k: v for k, v in entry.items() if k not in ("op", "key")}


def _parse_lines(raw: bytes) -> Iterator[dict]:
    """Parsed JSON-object lines of ``raw`` (torn/garbage lines skipped)."""
    for line in raw.split(b"\n"):
        if not line.strip():
            continue
        try:
            entry = json.loads(line.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            continue  # torn tail from a crash mid-append
        if isinstance(entry, dict):
            yield entry


def shard_prefix(key: str) -> str:
    """The two-hex-digit shard a cache key belongs to."""
    prefix = key[:2].lower()
    if len(prefix) != 2 or not set(prefix) <= _HEX:
        raise CampaignError(f"not a shardable cache key: {key!r}")
    return prefix


def _atomic_write_json(path: Path, payload: Mapping[str, Any]) -> None:
    """Publish ``payload`` at ``path`` via per-process/thread temp + rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    tmp.write_text(json.dumps(dict(payload), sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)


def write_store_meta(root: str | os.PathLike) -> None:
    """Stamp ``root`` as a v2 (sharded-index) store, atomically."""
    _atomic_write_json(
        Path(root) / STORE_META,
        {"layout": STORE_LAYOUT_VERSION, "shards": SHARD_COUNT},
    )


def read_store_meta(root: str | os.PathLike) -> dict | None:
    """The store-layout marker at ``root``, or None for a v1/fresh store."""
    try:
        payload = json.loads((Path(root) / STORE_META).read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None  # torn marker: treat as unmigrated, never crash a read
    return payload if isinstance(payload, dict) else None


def _flock(fd: int) -> None:
    """Exclusive cross-process advisory lock (no-op without fcntl)."""
    if fcntl is not None:
        fcntl.flock(fd, fcntl.LOCK_EX)


def _funlock(fd: int) -> None:
    """Release the lock taken by :func:`_flock`."""
    if fcntl is not None:
        fcntl.flock(fd, fcntl.LOCK_UN)


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

    Appends go to ``<prefix>.log.jsonl`` (flock + single ``O_APPEND``
    write, torn-tail healed exactly like the campaign journal); reads
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

        Same discipline as :meth:`Journal.append` -- heal a torn tail,
        then one ``write()`` on an ``O_APPEND`` descriptor under an
        exclusive advisory lock -- minus the ``fsync``: the index is
        derived from the records and rebuildable, so a lost tail row
        costs a flagged rebuild, not data. A call with no rows touches
        nothing.
        """
        if not rows:
            return
        data = "".join(canonical_json(dict(row)) + "\n"
                       for row in rows).encode("utf-8")
        with self._lock:  # re-read these keys from the log next time
            if self._cache is not None:
                for row in rows:
                    self._cache.pop(row.get("key"), None)
        self.log_path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.log_path, os.O_CREAT | os.O_RDWR | os.O_APPEND, 0o644)
        try:
            _flock(fd)
            try:
                size = os.fstat(fd).st_size
                if size and os.pread(fd, 1, size - 1) != b"\n":
                    os.write(fd, b"\n")
                view = memoryview(data)
                while view:  # a short write (rare on files) must not drop rows
                    view = view[os.write(fd, view):]
            finally:
                _funlock(fd)
        finally:
            os.close(fd)

    def _read_compact(self) -> dict[str, dict]:
        """Rows of the compacted snapshot ({} when absent or unreadable --
        the records stay ground truth; scan flags the gap)."""
        try:
            payload = json.loads(self.compact_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return {}
        except (json.JSONDecodeError, UnicodeDecodeError):
            return {}
        rows = payload.get("rows") if isinstance(payload, Mapping) else None
        if not isinstance(rows, Mapping):
            return {}
        return {k: dict(v) for k, v in rows.items() if isinstance(v, Mapping)}

    def _read_log(self) -> list[dict]:
        """Parsed log entries in append order (torn/garbage lines skipped)."""
        try:
            raw = self.log_path.read_bytes()
        except FileNotFoundError:
            return []
        return list(_parse_lines(raw))

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

    def rows(self) -> dict[str, dict]:
        """key -> full index row for every live key in this shard.

        Parsed afresh on every call (queries and audits only); the read
        path goes through :meth:`locators` instead.
        """
        return self._replay(self._read_compact(), self._read_log())

    def lookup(self, key: str) -> dict | None:
        """The full index row for ``key``, or None (parses the shard)."""
        return self.rows().get(key)

    def locators(self) -> dict[str, Locator]:
        """key -> ``(path, offset, length)`` for every live key (cached).

        Returns the internal cached mapping -- treat it as read-only.
        A fresh poll costs two ``stat`` calls, plus parsing whatever
        complete lines were appended since the last one.
        """
        with self._lock:
            base, log_size = self._snapshot_sig(), self._log_size()
            if (self._cache is None or base != self._cache_base
                    or log_size < self._cache_offset):
                self._cache = {key: _locator(row)
                               for key, row in self._read_compact().items()}
                self._cache_base, self._cache_offset = base, 0
            if log_size > self._cache_offset:
                self._fold_log_tail()
            return self._cache

    def _fold_log_tail(self) -> None:
        """Replay the log's complete lines past the cached offset.

        An unterminated final fragment is left for a later poll: it is
        either still being written, or torn and healed into an isolated
        (skipped) line by the next append.
        """
        try:
            with open(self.log_path, "rb") as fh:
                fh.seek(self._cache_offset)
                chunk = fh.read()
        except FileNotFoundError:
            return
        end = chunk.rfind(b"\n")
        if end < 0:
            return
        self._cache_offset += end + 1
        self._replay(self._cache, _parse_lines(chunk[:end]), _locator)

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
        cache = self._cache
        if cache is not None:
            loc = cache.get(key)
            if loc is not None:
                return loc
        return self.locators().get(key)

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
        if not self._log_size() and self._snapshot_sig() is not None:
            try:
                with open(self.compact_path, "rb") as fh:
                    head = fh.read(64)
            except FileNotFoundError:
                head = b""
            match = self._COUNT_HEAD.match(head)
            if match:
                return int(match.group(1))
        return len(self.locators())

    def compact(self) -> CompactionReport:
        """Fold the log into the snapshot; truncate the log; atomically.

        Runs under the shard log's exclusive advisory lock, so appends
        racing the compaction serialize: a row appended before the lock
        is merged, one appended after lands in the (now empty) log.
        The snapshot rewrite publishes via temp file + rename, so
        readers only ever see a whole snapshot.
        """
        report = CompactionReport()
        if not self.log_path.exists() and not self.compact_path.exists():
            return report
        self.log_path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.log_path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            _flock(fd)
            try:
                report.log_bytes_merged = os.fstat(fd).st_size
                merged = self._replay(self._read_compact(), self._read_log(),
                                      report=report)
                _atomic_write_json(self.compact_path, {
                    "count": len(merged),  # first key: O(1) count reads
                    "layout": STORE_LAYOUT_VERSION,
                    "prefix": self.prefix,
                    "rows": merged,
                })
                os.ftruncate(fd, 0)
                with self._lock:
                    self._cache = {key: _locator(row)
                                   for key, row in merged.items()}
                    self._cache_base, self._cache_offset = \
                        self._snapshot_sig(), 0
            finally:
                _funlock(fd)
        finally:
            os.close(fd)
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
