"""Result persistence: content-addressed cache + append-only journal.

**Cache.** Every finished point is stored under a key derived from the
point's canonical JSON *and* the model-version fingerprint
(`repro.campaign.fingerprint`). Identical (point, model) pairs therefore
always collide onto the same object -- a re-run is a pure cache hit --
while any model change shifts every key and transparently invalidates
the whole cache. Objects live as small JSON files fanned out over a
two-hex-digit directory level (``objects/ab/abcdef....json``), or in a
plain dict when the store is constructed without a root (tests,
throwaway runs).

**Integrity.** Each record carries a checksum over its canonical form.
A record that parses but fails its checksum -- bit rot, a torn write
that still decodes, deliberate fault injection -- is *quarantined*
(moved to ``quarantine/``, counted, never served) and the point
recomputes; it is neither silently served nor silently dropped. Records
whose ``result`` payload has drifted schema (missing ``status`` /
``seconds`` from an older version) are treated as misses, not errors.
:meth:`ResultStore.scan` audits the whole object tree; the
``pstl-campaign verify`` subcommand fronts it.

**Journal.** Each campaign run records one JSON line per finished task
in ``journal.jsonl``, committed once per wave: :meth:`Journal.append`
takes any number of entries and lands them with one fsynced write. The
journal is the resume log: an interrupted campaign re-plans
(deterministically), drops every task whose terminal entry is already
journaled, and executes only the remainder -- a task whose row was
lost with an uncommitted wave is served from its already-stored cache
object instead. Torn final lines from a killed process are tolerated
and skipped.

**Index.** v2 stores (marker: ``STORE_META.json``) additionally keep a
persistent per-shard index (``index/ab.log.jsonl`` + ``index/ab.idx.json``,
see :mod:`repro.campaign.shard`): every ``put`` appends a row mapping
``key -> object path, checksum, status, seconds, wall_ms, point`` and
every quarantine appends a tombstone, so counts, lookups and queries
are O(result) instead of O(walk the tree). A store root that already
holds objects but no marker is a v1 flat store: it keeps working,
unindexed, until ``tools/migrate_store.py`` upgrades it in place.

**Concurrency.** Several processes may share one store and one journal
(the ``repro.service`` daemon multiplexes client campaigns over a
shared cache; the 8-appender property test pins the contract). Cache
objects publish atomically -- a per-process temp file renamed into
place -- so readers only ever see whole records, and journal appends
take a cross-process advisory lock around a single ``O_APPEND``
``write()`` so concurrent appenders can never interleave partial
lines or split each other's batches. :class:`JournalReader` adds the
offset-resumable read side: repeated polls cost O(new bytes), not
O(journal).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

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
    "ResultStore",
    "StoreScan",
    "Journal",
    "JournalReader",
    "cache_key",
    "record_checksum",
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
    """Integrity report over a store's object tree (see :meth:`ResultStore.scan`).

    ``corrupt`` lists ``(key, reason)`` pairs for objects that fail to
    parse, fail their checksum, or disagree with their filename;
    ``drifted`` counts records that verify but whose ``result`` payload
    is schema-drifted (served as misses, never as hits); ``legacy``
    counts pre-checksum records (accepted, but unauditable).

    On indexed (v2) stores the scan also cross-checks the persistent
    index against the tree: ``unindexed`` counts intact objects with no
    index row (e.g. files dropped in by hand, or a tail row lost to a
    crash), ``index_stale`` counts rows whose checksum disagrees with
    the object -- or that point at a missing object. Both are advisory
    flags, *not* errors: the object tree is ground truth and a
    compaction/migration pass rebuilds the index.
    """

    objects: int = 0
    ok: int = 0
    legacy: int = 0
    drifted: int = 0
    quarantined: int = 0
    unindexed: int = 0
    index_stale: int = 0
    corrupt: list[tuple[str, str]] = field(default_factory=list)

    @property
    def errors(self) -> int:
        """Number of integrity errors (corrupt objects) found."""
        return len(self.corrupt)

    def summary(self) -> str:
        """One-line human report."""
        base = (
            f"{self.objects} object(s): {self.ok} ok, {self.legacy} legacy, "
            f"{self.drifted} schema-drifted, {self.errors} corrupt, "
            f"{self.quarantined} quarantined"
        )
        if self.unindexed or self.index_stale:
            base += (f", {self.unindexed} unindexed, "
                     f"{self.index_stale} index-stale")
        return base


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


class ResultStore:
    """Content-addressed point-result cache (on disk or in memory)."""

    def __init__(self, root: str | os.PathLike | None = None,
                 fingerprint: str | None = None) -> None:
        """``root=None`` keeps objects in a dict; else under ``root/objects``.

        Disk stores detect their layout: a root carrying the
        ``STORE_META.json`` marker (or a fresh/empty root, which gets
        one) is v2 and owns a :class:`~repro.campaign.shard.StoreIndex`;
        a root that already holds objects but no marker is a v1 flat
        store, served unindexed until ``tools/migrate_store.py``
        upgrades it in place.
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
            if read_store_meta(self.root) is not None:
                objects.mkdir(parents=True, exist_ok=True)
                self.index = StoreIndex(self.root)
            elif objects.is_dir() and any(objects.iterdir()):
                pass  # v1 flat store: keep serving it, unindexed
            else:
                objects.mkdir(parents=True, exist_ok=True)
                write_store_meta(self.root)
                self.index = StoreIndex(self.root)

    @property
    def indexed(self) -> bool:
        """Whether this store carries a persistent shard index (v2)."""
        return self.index is not None

    def key_for(self, point: PointSpec) -> str:
        """This store's cache key for ``point`` (memoized; the executor
        derives the same key several times per task on the warm path)."""
        key = self._key_memo.get(point)
        if key is None:
            key = self._key_memo[point] = cache_key(point, self.fingerprint)
        return key

    def object_path(self, key: str) -> Path:
        """On-disk location of ``key``'s object (disk stores only)."""
        if self.root is None:
            raise CampaignError("in-memory store has no object paths")
        return self.root / "objects" / key[:2] / f"{key}.json"

    def quarantine(self, key: str, reason: str) -> None:
        """Pull ``key``'s object out of service (counted, never deleted).

        Disk stores move the object file to ``quarantine/`` (preserving
        the evidence for post-mortems); memory stores park the record in
        a side dict. Either way the next :meth:`get` is a miss and the
        point recomputes.

        Re-quarantining the same key (heal, recompute, corrupt again)
        must not overwrite the earlier evidence: the destination gains a
        monotonic ``.N`` suffix whenever the unsuffixed name is taken.
        On indexed stores a tombstone row is appended so the key drops
        from the index at the next merge/compaction.
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
        path = self.object_path(key)
        qdir = self.root / "quarantine"
        qdir.mkdir(parents=True, exist_ok=True)
        target, serial = qdir / f"{key}.json", 0
        while target.exists():
            serial += 1
            target = qdir / f"{key}.{serial}.json"
        try:
            os.replace(path, target)
        except FileNotFoundError:
            pass  # already gone; nothing to preserve
        if self.index is not None:
            self.index.record_quarantine(key, reason)

    def _verified(self, key: str, record: Any) -> dict | None:
        """``record`` if it is a checksummed, untampered dict; else quarantine."""
        if not isinstance(record, Mapping):
            self.quarantine(key, "not a JSON object")
            return None
        record = dict(record)
        checksum = record.get("checksum")
        if checksum is None:
            return record  # pre-checksum record: accepted, flagged by scan()
        if record_checksum(record) != checksum:
            self.quarantine(key, "checksum mismatch")
            return None
        return record

    def contains(self, key: str) -> bool:
        """Cheap presence probe for ``key`` -- no record load, no quarantine.

        The remote-ingest dedup path asks "is this key already landed?"
        for every shipped row; answering via :meth:`load_key` would
        parse and checksum the object. Indexed stores answer from the
        shard index; unindexed ones from the object path. A corrupt
        object therefore *does* read as present here -- ingest skips it
        and the normal verify/quarantine machinery reclaims it later,
        which is the same trade the executor's resume path makes.
        """
        if self.root is None:
            return key in self._memory
        if self.index is not None and self.index.has(key):
            return True
        return self.object_path(key).exists()

    def load_key(self, key: str) -> dict | None:
        """Fetch a verified cached record by key (None if absent/corrupt).

        A record that fails to parse or fails its checksum is
        quarantined on the spot and reads as a miss -- a
        corrupt-but-parseable object is never served as a hit.
        """
        if self.root is None:
            record = self._memory.get(key)
            return None if record is None else self._verified(key, record)
        path = self.object_path(key)
        try:
            with open(path, encoding="utf-8") as fh:
                record = json.load(fh)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, UnicodeDecodeError):
            # torn or rotten write -- possibly not even valid UTF-8
            self.quarantine(key, "unparseable JSON")
            return None
        return self._verified(key, record)

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
        """Store ``payload`` for ``point`` (checksummed); returns the cache key.

        ``wall_ms`` (real wall-clock the executor spent on the point, if
        known) is *not* part of the cached record -- cache-served results
        stay bit-identical to computed ones -- but is carried on the
        index row so latency queries never open object files.
        """
        key = self.key_for(point)
        record = {
            "key": key,
            "fingerprint": self.fingerprint,
            "point": point.to_dict(),
            "result": dict(payload),
        }
        record["checksum"] = record_checksum(record)
        if self.root is None:
            self._memory[key] = record
        else:
            path = self.object_path(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            # Atomic publish: readers never see a torn object. The temp
            # name embeds the pid *and* thread id so concurrent writers
            # racing on the same key -- sibling processes or the service
            # daemon's runner threads -- each stage their own file; last
            # rename wins with a whole record either way.
            tmp = path.with_name(
                f".{key}.{os.getpid()}.{threading.get_ident()}.tmp")
            tmp.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")
            os.replace(tmp, path)
            if self.index is not None:
                result = record["result"]
                self.index.record_put(
                    key, checksum=record["checksum"], point=record["point"],
                    status=result.get("status"), seconds=result.get("seconds"),
                    wall_ms=wall_ms,
                )
        self.writes += 1
        return key

    def corrupt(self, key: str, at: float = 0.0) -> None:
        """Damage ``key``'s stored object in place (fault-injection hook).

        ``at`` in [0, 1] picks *where*: disk stores XOR one byte at that
        fraction of the file, memory stores tamper the record without
        refreshing its checksum. Out-of-range ``at`` values are clamped
        (fault schedules derive ``at`` from seeded hashes and may hand
        in anything); empty or missing objects are a no-op, never an
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
        path = self.object_path(key)
        try:
            data = bytearray(path.read_bytes())
        except FileNotFoundError:
            return
        if not data:
            return
        pos = min(int(at * len(data)), len(data) - 1)
        data[pos] ^= 0x01
        path.write_bytes(bytes(data))

    def result_for(self, task_id: str, point: PointSpec) -> PointResult | None:
        """Reconstruct a :class:`PointResult` from cache (marked cached).

        Corrupt objects (quarantined by :meth:`load_key`) and
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

    def _iter_records(self):
        """Yield (key, raw record | None, reason) for every stored object."""
        if self.root is None:
            for key, record in self._memory.items():
                yield key, record, ""
            return
        objects = self.root / "objects"
        if not objects.is_dir():
            return
        for path in sorted(objects.rglob("*.json")):
            key = path.stem
            try:
                record = json.loads(path.read_text(encoding="utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
                yield key, None, f"unparseable: {exc}"
                continue
            yield key, record, ""

    def scan(self, quarantine: bool = False) -> StoreScan:
        """Audit every stored object; optionally quarantine what fails.

        Checks, per object: JSON parses to a dict, the checksum verifies
        (pre-checksum records count as ``legacy``), the record's ``key``
        field matches its filename, and its point/fingerprint re-derive
        that same key. Schema-drifted ``result`` payloads are counted
        but are not errors. ``quarantine=True`` additionally pulls every
        corrupt object out of service, exactly as a read would.

        Indexed (v2) stores get an extra cross-check of the persistent
        index against the tree -- intact objects without a row count as
        ``unindexed``, rows that contradict their object (or point at a
        missing one) as ``index_stale``. Both are advisory, not errors:
        the tree is ground truth and the index is rebuildable.
        """
        report = StoreScan()
        index_rows = None
        if self.root is not None and self.index is not None:
            index_rows = {key: row for key, row in self.index.rows()}
        for key, record, reason in self._iter_records():
            report.objects += 1
            row = index_rows.pop(key, None) if index_rows is not None else None
            if record is None or not isinstance(record, Mapping):
                report.corrupt.append((key, reason or "not a JSON object"))
                continue
            checksum = record.get("checksum")
            if checksum is not None and record_checksum(record) != checksum:
                report.corrupt.append((key, "checksum mismatch"))
                continue
            if record.get("key") != key:
                report.corrupt.append((key, "record key != object name"))
                continue
            derived = _derive_key(record)
            if derived is not None and derived != key:
                report.corrupt.append((key, "content hash != object name"))
                continue
            if checksum is None:
                report.legacy += 1
            elif _result_slice(record) is None:
                report.drifted += 1
            else:
                report.ok += 1
            if index_rows is not None:
                if row is None:
                    report.unindexed += 1
                elif row.get("checksum") != checksum:
                    report.index_stale += 1
        if index_rows:
            report.index_stale += len(index_rows)  # rows with no object
        if quarantine:
            for key, _reason in report.corrupt:
                self.quarantine(key, _reason)
                report.quarantined += 1
        return report

    def count_objects(self) -> int:
        """Number of stored objects: O(index) when indexed, O(tree) else.

        The index-backed count is what the service's ``/metrics`` and
        ``/store`` endpoints poll; on a v1 (unindexed) store it falls
        back to walking the object tree.
        """
        if self.root is None:
            return len(self._memory)
        if self.index is not None:
            return self.index.count()
        objects = self.root / "objects"
        if not objects.is_dir():
            return 0
        return sum(1 for _ in objects.rglob("*.json"))

    def compact(self) -> CompactionReport:
        """Fold every shard's index log into its snapshot (see
        :meth:`repro.campaign.shard.StoreIndex.compact`); raises
        :class:`CampaignError` on unindexed (memory or v1) stores."""
        if self.index is None:
            raise CampaignError(
                "store has no persistent index (in-memory, or v1 layout; "
                "run tools/migrate_store.py to upgrade a flat store)")
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
