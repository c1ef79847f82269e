"""Result persistence: content-addressed cache + append-only journal.

**Cache.** Every finished point is stored under a key derived from the
point's canonical JSON *and* the model-version fingerprint
(`repro.campaign.fingerprint`). Identical (point, model) pairs therefore
always collide onto the same key -- a re-run is a pure cache hit --
while any model change shifts every key and transparently invalidates
the whole cache. Records are JSON objects; on disk they are written a
batch at a time (:meth:`ResultStore.put_many`: a whole campaign wave
or shipped segment) as the lines of one new pack file
(``objects/packs/<name>.pack``), so a batch costs one file create
instead of one per point. A store constructed without a root keeps
them in a plain dict (tests, throwaway runs).

**Index.** Every disk store carries ``STORE_META.json`` and a
persistent per-shard index (``index/ab.log.jsonl`` +
``index/ab.idx.json``, see :mod:`repro.campaign.shard`): each written
batch appends one row per record -- ``key -> pack path, offset,
length, checksum, status, seconds, wall_ms, point`` -- with one append
per shard touched, and every quarantine appends a tombstone. Reads
follow the key's row and read only its span; counts and queries never
open a pack. A root that holds an ``objects/`` tree but no marker is a
v1 flat store: opening it raises, naming ``tools/migrate_store.py``,
which indexes it in place.

**Integrity.** Each record carries a checksum over its canonical form
and its own key. A read that finds unparseable bytes, no checksum, a
checksum mismatch, or another key's record behind the index row
*quarantines* the key (its span's bytes are copied to
``quarantine/``, a tombstone drops the row, the pack is left as it is)
and the point recomputes; a damaged record is neither served nor
silently dropped. Records whose ``result`` payload has drifted schema
(missing ``status`` / ``seconds`` from an older version) are treated as
misses, not errors. :meth:`ResultStore.scan` audits the record behind
every live index row; the ``pstl-campaign verify`` subcommand fronts
it.

**Journal.** Each campaign run records one JSON line per finished task
in ``journal.jsonl``, committed once per wave: :meth:`Journal.append`
takes any number of entries and lands them with one fsynced write. The
journal is the resume log: an interrupted campaign re-plans
(deterministically), drops every task whose terminal entry is already
journaled, and executes only the remainder. The executor commits a
wave's records (pack, then index rows) before its journal rows, so
every journaled result is already stored; a crash inside a wave loses
the whole wave, which a resume recomputes. Torn final lines from a
killed process are tolerated and skipped.

**Concurrency.** Several processes may share one store and one journal
(the ``repro.service`` daemon multiplexes client campaigns over a
shared cache; the 8-writer property tests pin the contract). Each
batch goes to a pack file created with ``O_EXCL`` under a name of its
own writer's (time stamp, pid, thread), so writers never share a pack,
and a record becomes visible only once its index row lands. Journal
and index appends take a cross-process advisory lock around a single
``O_APPEND`` ``write()``, so concurrent appenders can never interleave
partial lines or split each other's batches. :class:`JournalReader`
adds the offset-resumable read side: repeated polls cost O(new bytes),
not O(journal).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Mapping

try:  # pragma: no cover - platform probe
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback (single-writer)
    fcntl = None

from repro.campaign.fingerprint import model_fingerprint
from repro.campaign.shard import (
    CompactionReport,
    StoreIndex,
    read_store_meta,
    write_store_meta,
)
from repro.campaign.spec import PointSpec, canonical_json
from repro.errors import CampaignError

__all__ = [
    "PointResult",
    "RecordSpan",
    "ResultStore",
    "StoreScan",
    "Journal",
    "JournalReader",
    "cache_key",
    "pack_lines",
    "record_checksum",
    "record_files",
    "write_spec",
    "read_spec",
]

#: Terminal point statuses.
DONE = "done"
NA = "na"
FAILED = "failed"
_STATUSES = (DONE, NA, FAILED)


def cache_key(point: PointSpec, fingerprint: str) -> str:
    """Content hash of (point identity, model fingerprint)."""
    payload = canonical_json({"point": point.to_dict(), "model": fingerprint})
    return hashlib.sha256(payload.encode()).hexdigest()


def record_checksum(record: Mapping[str, Any]) -> str:
    """Integrity checksum of a stored record (its ``checksum`` field excluded).

    Computed over the *canonical* JSON of the record core, so semantically
    identical re-encodings (key order, float spelling) verify equal while
    any value change -- one corrupted byte that still parses -- does not.
    """
    core = {k: v for k, v in record.items() if k != "checksum"}
    return hashlib.sha256(canonical_json(core).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class PointResult:
    """Terminal outcome of one point-task.

    ``seconds`` is the mean simulated seconds of one invocation (the
    figures' y-axis) for ``done`` points, ``None`` otherwise. ``cached``,
    ``attempts`` and ``wall_ms`` (real wall-clock spent executing the
    point, ``None`` when served from cache) describe *this run* and are
    excluded from the cached payload, so cache-served results compare
    bit-identical to computed ones.
    """

    task_id: str
    point: PointSpec
    status: str
    seconds: float | None = None
    error: str | None = None
    cached: bool = False
    attempts: int = 1
    wall_ms: float | None = None

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise CampaignError(f"invalid point status {self.status!r}")
        if self.status == DONE and self.seconds is None:
            raise CampaignError("done points must carry seconds")

    @property
    def ok(self) -> bool:
        """Whether the point produced a value (N/A counts as resolved)."""
        return self.status in (DONE, NA)

    def payload(self) -> dict[str, Any]:
        """The cacheable slice: status/seconds/error only."""
        return {"status": self.status, "seconds": self.seconds, "error": self.error}


@dataclass
class StoreScan:
    """Integrity report over a store's records (see :meth:`ResultStore.scan`).

    ``objects`` counts the records audited -- one per live index row
    (per stored record on a memory store). ``corrupt`` lists ``(key,
    reason)`` pairs for records that fail to parse, carry no checksum,
    fail it, or are not the record of the key that indexes them;
    ``drifted`` counts records that verify but whose ``result`` payload
    is schema-drifted (served as misses, never as hits).

    Two advisory counters cross-check the index against the records,
    *not* errors: ``orphaned`` counts pack lines (and loose objects) no
    live index row points to -- superseded or quarantined records, or a
    batch whose index rows a crash lost -- and ``index_stale`` counts
    rows whose checksum disagrees with their intact record, or that
    point at a missing file. The records are ground truth and
    ``tools/migrate_store.py --force`` rebuilds the index from them.
    """

    objects: int = 0
    ok: int = 0
    drifted: int = 0
    quarantined: int = 0
    orphaned: int = 0
    index_stale: int = 0
    corrupt: list[tuple[str, str]] = field(default_factory=list)

    @property
    def errors(self) -> int:
        """Number of integrity errors (corrupt records) found."""
        return len(self.corrupt)

    def summary(self) -> str:
        """One-line human report."""
        base = (
            f"{self.objects} object(s): {self.ok} ok, "
            f"{self.drifted} schema-drifted, {self.errors} corrupt, "
            f"{self.quarantined} quarantined"
        )
        if self.orphaned or self.index_stale:
            base += (f", {self.orphaned} orphaned, "
                     f"{self.index_stale} index-stale")
        return base

    def audit(self, key: str, record: Any, reason: str = "",
              row: Mapping[str, Any] | None = None) -> None:
        """Count one record read for ``key`` (None: it did not parse)."""
        self.objects += 1
        problem = reason or _record_problem(key, record)
        if problem is None:
            derived = _derive_key(record)
            if derived is not None and derived != key:
                problem = "content hash != index key"
        if problem is not None:
            self.corrupt.append((key, problem))
        elif _result_slice(record) is None:
            self.drifted += 1
        else:
            self.ok += 1
        if problem is None and row is not None \
                and row.get("checksum") != record["checksum"]:
            self.index_stale += 1


def _record_problem(key: str, record: Any) -> str | None:
    """Why ``record`` must not be served for ``key`` (None: it may be).

    The record must be a JSON object carrying a checksum that verifies,
    and must name ``key`` itself -- so neither a record written before
    checksums (or one whose ``checksum`` field a flipped bit renamed)
    nor a stale index row pointing at another key's record is served.
    """
    if not isinstance(record, Mapping):
        return "not a JSON object"
    checksum = record.get("checksum")
    if checksum is None:
        return "missing checksum"
    if record_checksum(record) != checksum:
        return "checksum mismatch"
    if record.get("key") != key:
        return "record key != index key"
    return None


def _result_slice(record: Mapping[str, Any]) -> dict | None:
    """The usable ``result`` payload of a record, or None on schema drift.

    Older (or newer) store versions may journal records whose ``result``
    lacks ``status``/``seconds``; those must read as cache *misses*, not
    ``KeyError`` crashes -- the point simply recomputes under the
    current schema.
    """
    result = record.get("result")
    if not isinstance(result, Mapping):
        return None
    status = result.get("status")
    if status not in _STATUSES:
        return None
    if status == DONE and not isinstance(result.get("seconds"), (int, float)):
        return None
    return dict(result)


@dataclass(frozen=True)
class RecordSpan:
    """Where one record's bytes are: a pack line, or a whole loose object.

    ``length=None`` marks a loose object (written before packs), read to
    the end of its file.
    """

    path: Path
    offset: int = 0
    length: int | None = None

    def read(self) -> bytes:
        """The span's bytes (fewer when the file was cut short)."""
        return _read_span(self.path, self.offset, self.length)


def _read_span(path: str | os.PathLike, offset: int | None,
               length: int | None) -> bytes:
    """``length`` bytes of ``path`` at ``offset`` (the whole file when
    ``length`` is None); raises FileNotFoundError for a missing file."""
    fd = os.open(path, os.O_RDONLY)
    try:
        if length is None:
            size = os.fstat(fd).st_size
            return os.pread(fd, size, 0)
        return os.pread(fd, length, offset or 0)
    finally:
        os.close(fd)


#: Where packs live, relative to the store root.
PACKS = "objects/packs"


def record_files(root: str | os.PathLike) -> list[str]:
    """Every loose object, then every pack, under store ``root``.

    Paths are relative to ``root``, each group in name order; pack names
    start with their creation time stamp, so packs come in write order.
    """
    root = Path(root)
    return [path.relative_to(root).as_posix()
            for pattern in ("objects/??/*.json", f"{PACKS}/*.pack")
            for path in sorted(root.glob(pattern))]


def pack_lines(data: bytes) -> Iterator[tuple[int, bytes]]:
    """``(offset, line)`` for every record line in a pack's bytes."""
    offset = 0
    for line in data.split(b"\n"):
        if line:
            yield offset, line
        offset += len(line) + 1


class ResultStore:
    """Content-addressed point-result cache (on disk or in memory)."""

    def __init__(self, root: str | os.PathLike | None = None,
                 fingerprint: str | None = None) -> None:
        """``root=None`` keeps records in a dict; else packs under ``root``.

        A fresh or empty root is stamped with ``STORE_META.json``; a
        root that holds an ``objects/`` tree but no marker is a v1 flat
        store and raises :class:`CampaignError` naming
        ``tools/migrate_store.py`` -- reads go through the index, so
        serving it unmigrated would read as all misses.
        """
        self.root = Path(root) if root is not None else None
        self.fingerprint = fingerprint if fingerprint is not None else model_fingerprint()
        self._memory: dict[str, dict] = {}
        self._memory_quarantine: dict[str, dict] = {}
        self._key_memo: dict[PointSpec, str] = {}
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.quarantined = 0
        self.index: StoreIndex | None = None
        if self.root is not None:
            objects = self.root / "objects"
            # Look at objects/ before the marker: a concurrent writer
            # stamps the marker before it creates any pack.
            populated = objects.is_dir() and any(objects.iterdir())
            if read_store_meta(self.root) is None:
                if populated:
                    raise CampaignError(
                        f"{self.root} is a v1 flat result store (objects/ "
                        "but no STORE_META.json); upgrade it in place with "
                        "tools/migrate_store.py")
                objects.mkdir(parents=True, exist_ok=True)
                write_store_meta(self.root)
            self.index = StoreIndex.shared(self.root)

    @property
    def indexed(self) -> bool:
        """Whether this store carries a persistent shard index (on disk)."""
        return self.index is not None

    def key_for(self, point: PointSpec) -> str:
        """This store's cache key for ``point`` (memoized; the executor
        derives the same key several times per task on the warm path)."""
        key = self._key_memo.get(point)
        if key is None:
            key = self._key_memo[point] = cache_key(point, self.fingerprint)
        return key

    def locate(self, key: str) -> RecordSpan | None:
        """Where ``key``'s live record is stored (disk stores only)."""
        if self.root is None:
            raise CampaignError("in-memory store has no record spans")
        loc = self.index.locate(key)
        if loc is None:
            return None
        path, offset, length = loc
        return RecordSpan(self.root / path, offset or 0, length)

    def quarantine(self, key: str, reason: str) -> None:
        """Pull ``key``'s record out of service (counted, never deleted).

        Disk stores copy the span's bytes to ``quarantine/`` (the
        evidence for post-mortems) and tombstone the key's index row;
        the pack itself is never rewritten, its line just goes dead.
        Memory stores park the record in a side dict. Either way the
        next :meth:`get` is a miss and the point recomputes.

        Re-quarantining the same key (heal, recompute, corrupt again)
        must not overwrite the earlier evidence: the destination gains a
        monotonic ``.N`` suffix whenever the unsuffixed name is taken.
        """
        self.quarantined += 1
        if self.root is None:
            record = self._memory.pop(key, None)
            if record is not None:
                slot, serial = key, 0
                while slot in self._memory_quarantine:
                    serial += 1
                    slot = f"{key}.{serial}"
                self._memory_quarantine[slot] = record
            return
        span = self.locate(key)
        try:
            evidence = None if span is None else span.read()
        except FileNotFoundError:
            evidence = None  # already gone; nothing to preserve
        if evidence is not None:
            qdir = self.root / "quarantine"
            qdir.mkdir(parents=True, exist_ok=True)
            serial = 0
            while True:
                name = f"{key}.json" if not serial else f"{key}.{serial}.json"
                try:
                    with open(qdir / name, "xb") as fh:
                        fh.write(evidence)
                    break
                except FileExistsError:
                    serial += 1
        self.index.record_quarantine(key, reason)

    def contains(self, key: str) -> bool:
        """Cheap presence probe for ``key`` -- no record load, no quarantine.

        The remote-ingest dedup path asks "is this key already landed?"
        for every shipped row; answering via :meth:`load_key` would
        read and checksum the record. Disk stores answer from the
        shard index. A corrupt record therefore *does* read as present
        here -- ingest skips it and the normal verify/quarantine
        machinery reclaims it later, which is the same trade the
        executor's resume path makes.
        """
        if self.root is None:
            return key in self._memory
        return self.index.has(key)

    def load_key(self, key: str) -> dict | None:
        """Fetch a verified cached record by key (None if absent/corrupt).

        Disk stores follow the key's index row and read only its span
        (a loose object whole). A record that fails to parse, carries
        no checksum, fails it, or is another key's record is
        quarantined on the spot and reads as a miss -- a damaged or
        misdirected record is never served as a hit. Before that, a
        failed read re-polls the shard: when another process has since
        replaced the row, the live one is read instead, and only a bad
        live record is quarantined.
        """
        if self.root is None:
            record = self._memory.get(key)
            if record is None:
                return None
            problem = _record_problem(key, record)
            if problem is None:
                return dict(record)
            self.quarantine(key, problem)
            return None
        shard = self.index.shard_for(key)
        loc = shard.locate(key)
        for _attempt in range(2):
            if loc is None:
                return None
            path, offset, length = loc
            record = problem = None
            try:
                raw = _read_span(os.path.join(self.root, path), offset, length)
                record = json.loads(raw.decode("utf-8"))
                problem = _record_problem(key, record)
            except FileNotFoundError:
                pass  # gone: a plain miss
            except (json.JSONDecodeError, UnicodeDecodeError):
                # torn or rotten bytes -- possibly not even valid UTF-8
                problem = "unparseable JSON"
            if record is not None and problem is None:
                return record
            live = shard.locators().get(key)  # poll: was our locator stale?
            if live == loc:
                if problem is not None:
                    self.quarantine(key, problem)
                return None
            loc = live
        return None

    def get(self, point: PointSpec) -> dict | None:
        """Cached record for ``point`` under the current model, or None."""
        record = self.load_key(self.key_for(point))
        if record is None:
            self.misses += 1
        else:
            self.hits += 1
        return record

    def put(self, point: PointSpec, payload: Mapping[str, Any],
            wall_ms: float | None = None) -> str:
        """Store one ``payload`` for ``point``; returns the cache key.

        A one-item :meth:`put_many` (so on disk, a pack of one record).
        """
        return self.put_many([(point, payload, wall_ms)])[0]

    def put_many(self, items: Iterable[tuple[PointSpec, Mapping[str, Any],
                                             float | None]]) -> list[str]:
        """Store a batch of ``(point, payload, wall_ms)``; returns the keys.

        Each record is checksummed exactly as a single put's. On disk
        the records stream, one line each, into one new pack file --
        created with ``O_EXCL`` under a name of this writer's, written
        without ``fsync`` -- and then their index rows land with one
        append per shard touched, so a record is served only once its
        pack line is complete. A crash between the two leaves orphaned
        pack lines (advisory in :meth:`scan`) and misses that
        recompute. An empty batch touches nothing.

        ``wall_ms`` (real wall-clock the executor spent on the point, if
        known) is *not* part of the cached record -- cache-served results
        stay bit-identical to computed ones -- but is carried on the
        index row so latency queries never open a pack.
        """
        keys: list[str] = []
        if self.root is None:
            for point, payload, _wall_ms in items:
                key, record = self._record(point, payload)
                self._memory[key] = record
                keys.append(key)
            self.writes += len(keys)
            return keys
        # Until the pack is complete each record's row waits as a
        # compact tuple, grouped by shard; the row dicts are built one
        # shard at a time, so a wave's rows never sit in memory whole.
        pending: dict[str, list[tuple]] = {}
        pack = None
        try:
            for point, payload, wall_ms in items:
                key, record = self._record(point, payload)
                data = json.dumps(record, sort_keys=True).encode("utf-8")
                if pack is None:
                    pack, path = self._create_pack()
                    offset = 0
                pack.write(data + b"\n")
                result = record["result"]
                pending.setdefault(key[:2], []).append((
                    key, offset, len(data), record["checksum"], point,
                    result.get("status"), result.get("seconds"), wall_ms))
                offset += len(data) + 1
                keys.append(key)
        finally:
            if pack is not None:
                pack.close()
        for prefix, entries in pending.items():
            self.index.shard(prefix).append(*(
                {"op": "put", "key": key, "path": path, "offset": offset,
                 "length": length, "checksum": checksum,
                 "point": point.to_dict(), "status": status,
                 "seconds": seconds, "wall_ms": wall_ms}
                for key, offset, length, checksum, point, status, seconds,
                wall_ms in entries))
        self.writes += len(keys)
        return keys

    def _record(self, point: PointSpec,
                payload: Mapping[str, Any]) -> tuple[str, dict]:
        """``point``'s key and checksummed record for ``payload``."""
        key = self.key_for(point)
        record = {
            "key": key,
            "fingerprint": self.fingerprint,
            "point": point.to_dict(),
            "result": dict(payload),
        }
        record["checksum"] = record_checksum(record)
        return key, record

    def _create_pack(self) -> tuple[BinaryIO, str]:
        """Open a new pack file exclusively: (binary writer, relative path).

        The name carries a nanosecond stamp, the pid and the thread id,
        so concurrent writers -- sibling processes or the service
        daemon's runner threads -- never collide; ``O_EXCL`` turns the
        rare repeat stamp into a retry instead of a shared file.
        """
        packs = self.root / PACKS
        packs.mkdir(parents=True, exist_ok=True)
        writer = f"{os.getpid()}-{threading.get_ident():x}"
        while True:
            name = f"{time.time_ns():016x}-{writer}.pack"
            try:
                fd = os.open(packs / name,
                             os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
            except FileExistsError:
                continue
            return os.fdopen(fd, "wb"), f"{PACKS}/{name}"

    def corrupt(self, key: str, at: float = 0.0) -> None:
        """Damage ``key``'s stored record in place (fault-injection hook).

        ``at`` in [0, 1] picks *where*: disk stores XOR one byte at that
        fraction of the record's span (its pack line, never the line's
        newline), memory stores tamper the record without refreshing
        its checksum. Out-of-range ``at`` values are clamped (fault
        schedules derive ``at`` from seeded hashes and may hand in
        anything); empty or missing records are a no-op, never an
        error. Only :mod:`repro.faults` and tests call this; it exists
        so chaos schedules can corrupt through the same API surface the
        store itself owns.
        """
        at = min(max(float(at), 0.0), 1.0)
        if self.root is None:
            record = self._memory.get(key)
            if record is not None:
                record["fingerprint"] = f"corrupt|{record.get('fingerprint')}"
            return
        span = self.locate(key)
        if span is None:
            return
        try:
            fd = os.open(span.path, os.O_RDWR)
        except FileNotFoundError:
            return
        try:
            size = os.fstat(fd).st_size - span.offset
            length = size if span.length is None else min(span.length, size)
            if length <= 0:
                return
            pos = span.offset + min(int(at * length), length - 1)
            byte = os.pread(fd, 1, pos)
            os.pwrite(fd, bytes([byte[0] ^ 0x01]), pos)
        finally:
            os.close(fd)

    def result_for(self, task_id: str, point: PointSpec) -> PointResult | None:
        """Reconstruct a :class:`PointResult` from cache (marked cached).

        Corrupt records (quarantined by :meth:`load_key`) and
        schema-drifted records both come back as None -- a miss the
        executor answers by recomputing -- never as an exception.
        """
        record = self.load_key(self.key_for(point))
        result = None if record is None else _result_slice(record)
        if result is None:
            self.misses += 1
            return None
        self.hits += 1
        return PointResult(
            task_id=task_id, point=point, status=result["status"],
            seconds=result["seconds"], error=result.get("error"),
            cached=True, attempts=0,
        )

    def scan(self, quarantine: bool = False) -> StoreScan:
        """Audit the record behind every live index row; optionally
        quarantine what fails.

        Checks, per record: its bytes parse to a JSON object, it carries
        a checksum that verifies, it names the key that indexes it, and
        its point/fingerprint re-derive that same key. Schema-drifted
        ``result`` payloads are counted but are not errors.
        ``quarantine=True`` additionally pulls every corrupt record out
        of service, exactly as a read would.

        Each pack (and loose object) is read once; its lines that no
        live row points to count as ``orphaned``, rows that contradict
        their record (or point at a missing file) as ``index_stale``.
        Both are advisory, not errors.
        """
        report = StoreScan()
        if self.root is None:
            for key, record in self._memory.items():
                report.audit(key, record)
        else:
            self._scan_files(report)
        report.corrupt.sort()
        if quarantine:
            for key, reason in report.corrupt:
                self.quarantine(key, reason)
                report.quarantined += 1
        return report

    def _scan_files(self, report: StoreScan) -> None:
        """Disk half of :meth:`scan`: one read per pack or loose object."""
        live: dict[str, list[tuple[str, dict]]] = {}
        for key, row in self.index.rows():
            live.setdefault(str(row.get("path")), []).append((key, row))
        for rel in sorted(set(record_files(self.root)) | set(live)):
            rows = live.get(rel, [])
            try:
                data = (self.root / rel).read_bytes()
            except FileNotFoundError:
                report.index_stale += len(rows)  # rows with no file
                continue
            pointed = set()
            for key, row in rows:
                offset, length = row.get("offset"), row.get("length")
                pointed.add(offset or 0)
                raw = data if length is None else \
                    data[offset or 0:(offset or 0) + length]
                try:
                    record = json.loads(raw.decode("utf-8"))
                except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                    report.audit(key, None, f"unparseable: {exc}")
                    continue
                report.audit(key, record, row=row)
            if rel.endswith(".pack"):
                report.orphaned += sum(1 for offset, _line in pack_lines(data)
                                       if offset not in pointed)
            elif not rows:
                report.orphaned += 1

    def count_objects(self) -> int:
        """Number of live records: O(index) on disk, never a pack read.

        The index-backed count is what the service's ``/metrics`` and
        ``/store`` endpoints poll.
        """
        if self.root is None:
            return len(self._memory)
        return self.index.count()

    def compact(self) -> CompactionReport:
        """Fold every shard's index log into its snapshot (see
        :meth:`repro.campaign.shard.StoreIndex.compact`); raises
        :class:`CampaignError` on an in-memory store."""
        if self.index is None:
            raise CampaignError("in-memory store has no persistent index")
        return self.index.compact()


def _derive_key(record: Mapping[str, Any]) -> str | None:
    """Re-derive a record's content hash from its point + fingerprint.

    Returns None when the embedded point does not round-trip (schema
    drift from another version) -- that is a drift condition, not
    evidence of corruption, so the scan skips the comparison.
    """
    point_payload = record.get("point")
    fingerprint = record.get("fingerprint")
    if not isinstance(point_payload, Mapping) or not isinstance(fingerprint, str):
        return None
    try:
        point = PointSpec.from_dict(point_payload, ignore_unknown=True)
    except CampaignError:
        return None
    return cache_key(point, fingerprint)


def _lock_file(fd: int) -> None:
    """Take an exclusive cross-process advisory lock on ``fd`` (blocking)."""
    if fcntl is not None:
        fcntl.flock(fd, fcntl.LOCK_EX)


def _unlock_file(fd: int) -> None:
    """Release the advisory lock taken by :func:`_lock_file`."""
    if fcntl is not None:
        fcntl.flock(fd, fcntl.LOCK_UN)


class Journal:
    """Append-only run log; one JSON object per line.

    Safe for concurrent appenders across processes: each append is one
    ``write()`` of whole lines on an ``O_APPEND`` descriptor, guarded
    by an exclusive advisory lock, so two processes sharing one journal
    can never interleave partial lines, and each append's batch lands
    as one contiguous run (the 8-appender property test in
    ``tests/campaign/test_store_properties.py`` pins this).

    A journal may additionally be *fenced*: ``fence`` is a zero-argument
    callable re-validated under the append lock before any byte is
    written. Remote executors fence their private segment journals with
    the lease check (:meth:`repro.remote.lease.LeaseFile.guard`), so a
    writer whose lease expired or was taken over gets a typed error
    (``LeaseExpiredError`` / ``StaleWriterError``) instead of silently
    appending rows the coordinator will never own.
    """

    def __init__(self, path: str | os.PathLike,
                 fence: Callable[[], None] | None = None) -> None:
        """Bind to ``path`` (created lazily on first append).

        ``fence``, when given, runs under the append lock before each
        write; raising from it aborts the append with nothing written.
        """
        self.path = Path(path)
        self.fence = fence

    def append(self, *entries: Mapping[str, Any]) -> None:
        """Append ``entries`` as one group commit: one write, one fsync.

        Any number of entries cost one lock, one tail heal, one fence
        check, one ``write()`` of the joined lines and one ``fsync`` --
        the campaign executor commits a whole wave's rows this way. A
        call with no entries touches nothing.

        A crash mid-append can leave the final line without its trailing
        newline; blindly appending to that would concatenate the new
        entries onto the torn line and lose the first of them. The
        append therefore heals such a tail first by terminating it, so
        the torn fragment stays an isolated (skipped) line and the new
        entries parse.

        The heal-check plus the write happen under an exclusive advisory
        lock on the journal file, and the lines land as a single
        ``write()`` on an ``O_APPEND`` descriptor -- concurrent
        appenders' batches serialize whole instead of interleaving.

        When the journal carries a ``fence``, it is re-checked *inside*
        the lock: an expired or superseded lease holder is rejected with
        the fence's typed error before the heal or the write touch the
        file, so a stale writer cannot race a takeover, and a rejected
        batch leaves none of its lines behind.
        """
        if not entries:
            return
        data = "".join(canonical_json(dict(entry)) + "\n"
                       for entry in entries).encode("utf-8")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_CREAT | os.O_RDWR | os.O_APPEND, 0o644)
        try:
            _lock_file(fd)
            try:
                if self.fence is not None:
                    self.fence()
                size = os.fstat(fd).st_size
                if size and os.pread(fd, 1, size - 1) != b"\n":
                    os.write(fd, b"\n")
                view = memoryview(data)
                while view:  # a short write (rare on files) must not drop rows
                    view = view[os.write(fd, view):]
                os.fsync(fd)
            finally:
                _unlock_file(fd)
        finally:
            os.close(fd)

    def tear_tail(self, at: float = 0.0) -> int:
        """Truncate the final line mid-write (fault-injection hook).

        Cuts between 1 byte and the whole last line, ``at`` in [0, 1]
        picking how deep -- the shapes a crash between ``write`` and a
        durable ``fsync`` leaves behind. Out-of-range ``at`` values are
        clamped (fault schedules derive them from seeded hashes; a
        negative ``at`` used to *grow* the file with zero padding), and
        an empty or missing journal is a no-op. Returns the number of
        bytes removed (0 when the journal is empty).
        """
        at = min(max(float(at), 0.0), 1.0)
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return 0
        if not data:
            return 0
        body = data[:-1] if data.endswith(b"\n") else data
        start = body.rfind(b"\n") + 1
        last_len = len(data) - start
        cut = min(1 + int(at * last_len), last_len)
        with open(self.path, "rb+") as fh:
            fh.truncate(len(data) - cut)
        return cut

    def torn_lines(self) -> int:
        """Number of journal lines that do not parse (normally 0 or 1)."""
        if not self.path.exists():
            return 0
        torn = 0
        with open(self.path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    json.loads(line)
                except json.JSONDecodeError:
                    torn += 1
        return torn

    def entries(self) -> list[dict]:
        """All intact entries, in append order (torn tail lines skipped)."""
        if not self.path.exists():
            return []
        out: list[dict] = []
        with open(self.path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    out.append(json.loads(line))
                except json.JSONDecodeError:
                    continue  # interrupted mid-write; the task will re-run
        return out

    def completed_ids(self) -> dict[str, dict]:
        """task_id -> latest terminal entry (failed tasks are *not* terminal).

        Failed entries are excluded on purpose: resuming a campaign
        retries its failures, matching the executor's bounded-retry
        policy rather than freezing a transient fault forever.
        """
        done: dict[str, dict] = {}
        for entry in self.entries():
            tid = entry.get("task_id")
            status = entry.get("status")
            if not tid or status not in _STATUSES:
                continue
            if status == FAILED:
                done.pop(tid, None)
            else:
                done[tid] = entry
        return done


class JournalReader:
    """Offset-resumable journal reader: repeated polls cost O(new bytes).

    ``Journal.entries`` re-reads and re-parses the whole file on every
    call, which is fine for a one-shot CLI but quadratic for anything
    that polls -- the service's status endpoint and event stream hit
    the journal once per client request. A reader remembers the byte
    offset it has consumed up to and only reads what appended since.

    Torn-tail semantics: a final line *without* a trailing newline is
    left unconsumed (it may still be mid-write; the next append heals
    it), while a newline-terminated line that fails to parse is counted
    in ``torn`` and skipped permanently. ``bytes_read`` accumulates the
    real read cost, which the O(new rows) regression test pins.
    """

    def __init__(self, path: str | os.PathLike, offset: int = 0) -> None:
        """Bind to ``path``, resuming from byte ``offset`` (default 0)."""
        self.path = Path(path)
        self.offset = int(offset)
        self.bytes_read = 0
        self.torn = 0
        self.resyncs = 0

    def poll(self) -> list[dict]:
        """Entries appended since the last poll (empty when none).

        Advances ``offset`` past every fully-written line it returns or
        skips; a trailing fragment with no newline is re-examined on the
        next poll.

        If the journal shrank below ``offset`` -- a torn tail cut into
        bytes this reader had already consumed -- the offset re-syncs to
        the new end of file (counted in ``resyncs``) instead of staying
        past it. Without the re-sync, a later completed write that
        re-delivers the torn entry would be read from mid-line and lost
        as garbage; with it, the entry arrives whole. Entries consumed
        just before the tear may be delivered again after the rewrite,
        which is safe: journal folding (``completed_ids``) is last-wins.
        """
        try:
            with open(self.path, "rb") as fh:
                fh.seek(0, os.SEEK_END)
                if fh.tell() < self.offset:
                    self.offset = fh.tell()
                    self.resyncs += 1
                fh.seek(self.offset)
                chunk = fh.read()
        except FileNotFoundError:
            return []
        if not chunk:
            return []
        self.bytes_read += len(chunk)
        end = chunk.rfind(b"\n")
        if end < 0:
            return []  # only an unterminated fragment so far
        consumed = chunk[: end + 1]
        self.offset += len(consumed)
        out: list[dict] = []
        for line in consumed.split(b"\n"):
            if not line.strip():
                continue
            try:
                entry = json.loads(line.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                self.torn += 1  # healed torn fragment; permanently skipped
                continue
            if isinstance(entry, dict):
                out.append(entry)
        return out


def write_spec(path: Path, spec_payload: Mapping[str, Any]) -> None:
    """Persist a campaign's spec.json (pretty, stable key order).

    Published atomically (per-process temp file + rename) so concurrent
    runners racing to create the same campaign directory -- the service
    deduplicates upstream, but the CLI has no such guard -- never leave
    a half-written spec for the loser to read.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(
        f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    tmp.write_text(json.dumps(dict(spec_payload), sort_keys=True, indent=2) + "\n",
                   encoding="utf-8")
    os.replace(tmp, path)


def read_spec(path: Path) -> dict:
    """Load a campaign's spec.json."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CampaignError(f"no campaign spec at {path}") from None
    except json.JSONDecodeError as exc:
        raise CampaignError(f"corrupt campaign spec at {path}: {exc}") from None
