"""Result persistence: content-addressed cache + append-only journal.

**Cache.** Every finished point is stored under a key derived from the
point's canonical JSON *and* the model-version fingerprint
(`repro.campaign.fingerprint`). Identical (point, model) pairs therefore
always collide onto the same key -- a re-run is a pure cache hit --
while any model change shifts every key and transparently invalidates
the whole cache. On disk the records are the rows of one SQLite table
in ``cache.db`` under the store root (:mod:`repro.campaign.shard`),
written a batch at a time (:meth:`ResultStore.put_many`: a whole
campaign wave or shipped segment) as one transaction. A store
constructed without a root opens the same table in an in-memory
database of its own (tests, throwaway runs), so every store runs one
code path. A root that holds the older file layouts' trees but no
database raises, naming ``tools/migrate_store.py``, which imports its
records.

**Integrity.** Each record carries a checksum: the first 16 hex digits
of sha256 over the canonical JSON of its core (fingerprint, key, point
and result). A row stores the point's and the result's canonical text,
so the core is the string join
``{"fingerprint":...,"key":"...","point":<point>,"result":<result>}``
and verifying a hit costs one join and one hash; serving it parses only
the result text. A row that fails that check goes to
:meth:`ResultStore.load_key`, which parses the whole record and checks
it again (an equivalent respelling is served). A record that does not
parse, fails its checksum or names another key is *quarantined*: its
bytes are copied to ``quarantine/`` (a memory store has no root and
keeps no copy), its row is deleted and counted, and the point
recomputes; a damaged record is never served.
Records whose ``result`` payload has drifted schema (missing ``status``
/ ``seconds`` from an older version) are treated as misses, not errors.
:meth:`ResultStore.scan` audits every row; the ``pstl-campaign verify``
subcommand fronts it.

**Journal.** Each campaign run records one JSON line per finished task
in ``journal.jsonl``, committed once per wave: :meth:`Journal.append`
takes any number of entries and lands them with one fsynced write. The
journal is the resume log: an interrupted campaign re-plans
(deterministically), drops every task whose terminal entry is already
journaled, and executes only the remainder. The executor commits a
wave's records before its journal rows, so every journaled result is
already stored; a crash inside a wave loses the whole wave, which a
resume recomputes. Torn final lines from a killed process are tolerated
and skipped.

**Concurrency.** Several processes may share one store and one journal
(the ``repro.service`` daemon multiplexes client campaigns over a
shared cache; the 8-writer property tests pin the contract). The
database serializes writers with its busy timeout, and each process
shares one connection among its handles and threads. Journal appends go
through :mod:`repro.campaign.durable`: one locked ``O_APPEND`` write
that heals a torn tail first, so concurrent appenders can never
interleave partial lines or split each other's batches; replays skip
torn lines; and ``spec.json`` publishes by temp file plus rename.
:class:`JournalReader` adds the offset-resumable read side: repeated
polls cost O(new bytes), not O(journal).
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.campaign.durable import append_lines, publish, read_lines, read_tail
from repro.campaign.fingerprint import model_fingerprint
from repro.campaign.shard import DB_NAME, CompactionReport, Row, ShardIndex
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
    """Content hash of (point identity, model fingerprint).

    :meth:`ResultStore.key_of` derives the same key from the point's
    canonical JSON without encoding the point again.
    """
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

    ``objects`` counts the records audited. ``corrupt`` lists ``(key,
    reason)`` pairs for records that fail to parse, carry no checksum,
    fail it, or do not re-derive the key they are stored under;
    ``drifted`` counts records that verify but whose ``result`` payload
    is schema-drifted (served as misses, never as hits).
    """

    objects: int = 0
    ok: int = 0
    drifted: int = 0
    quarantined: int = 0
    corrupt: list[tuple[str, str]] = field(default_factory=list)

    @property
    def errors(self) -> int:
        """Number of integrity errors (corrupt records) found."""
        return len(self.corrupt)

    def summary(self) -> str:
        """One-line human report."""
        return (
            f"{self.objects} object(s): {self.ok} ok, "
            f"{self.drifted} schema-drifted, {self.errors} corrupt, "
            f"{self.quarantined} quarantined"
        )

    def audit(self, key: str, record: Any, reason: str = "") -> None:
        """Count one record read for ``key`` (None: it did not parse)."""
        self.objects += 1
        problem = reason or _record_problem(key, record)
        if problem is None:
            derived = _derive_key(record)
            if derived is not None and derived != key:
                problem = "content hash != index key"
        if problem is not None:
            self.corrupt.append((key, problem))
        elif _result_slice(record.get("result")) is None:
            self.drifted += 1
        else:
            self.ok += 1


def _record_problem(key: str, record: Any) -> str | None:
    """Why ``record`` must not be served for ``key`` (None: it may be).

    The record must be a JSON object carrying a checksum that verifies,
    and must name ``key`` itself -- so neither a record written before
    checksums (or one whose ``checksum`` field a flipped bit renamed)
    nor a row holding another key's record is served.
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


def _result_slice(result: Any) -> dict | None:
    """The usable ``result`` payload of a record, or None on schema drift.

    Older (or newer) store versions may journal records whose ``result``
    lacks ``status``/``seconds``; those must read as cache *misses*, not
    ``KeyError`` crashes -- the point simply recomputes under the
    current schema.
    """
    if not isinstance(result, Mapping):
        return None
    status = result.get("status")
    if status not in _STATUSES:
        return None
    if status == DONE and not isinstance(result.get("seconds"), (int, float)):
        return None
    return dict(result)


def _cached_result(task_id: str, point: PointSpec,
                   result: Any) -> PointResult | None:
    """The cache-served :class:`PointResult` of a verified record's
    ``result`` payload (None when its schema has drifted)."""
    result = _result_slice(result)
    if result is None:
        return None
    return PointResult(
        task_id=task_id, point=point, status=result["status"],
        seconds=result["seconds"], error=result.get("error"),
        cached=True, attempts=0,
    )


def _row_record(key: str, row: Row) -> dict:
    """The record a stored row holds, parsed whole (ValueError when a
    text does not parse; an empty checksum reads as none)."""
    fingerprint, point, result, checksum = row
    return {"checksum": checksum.decode() or None,
            "fingerprint": fingerprint.decode(), "key": key,
            "point": json.loads(point), "result": json.loads(result)}


def _core(key: str, row: Row) -> bytes:
    """The record core joined from a stored row's texts: for a row as
    ``put_many`` wrote it, the canonical JSON its checksum hashes."""
    fingerprint, point, result, _checksum = row
    return b"".join((b'{"fingerprint":"', fingerprint, b'","key":"',
                     key.encode(), b'","point":', point, b',"result":',
                     result, b"}"))


class ResultStore:
    """Content-addressed point-result cache: one result table, on disk or
    in memory."""

    def __init__(self, root: str | os.PathLike | None = None,
                 fingerprint: str | None = None) -> None:
        """Open ``root/cache.db``; ``root=None`` opens a private in-memory
        table of the same schema (tests, throwaway runs), dropped with
        the handle.

        A root that holds the file layouts' ``objects/`` or ``index/``
        tree but no database was written before the table: it raises
        :class:`CampaignError` naming ``tools/migrate_store.py``, since
        serving it unmigrated would read as all misses.
        """
        self.root = Path(root) if root is not None else None
        self.fingerprint = fingerprint if fingerprint is not None else model_fingerprint()
        # sort_keys puts "model" before "point", so a key's payload is
        # this head, the point's canonical JSON and a closing brace.
        self._key_head = '{"model":' + canonical_json(self.fingerprint) + ',"point":'
        # ... and "fingerprint" before "key", "point" and "result", so a
        # record core is this head, the key, and the two texts.
        self._core_head = ('{"fingerprint":' + canonical_json(self.fingerprint)
                           + ',"key":"')
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.quarantined = 0
        if self.root is None:
            self.index = ShardIndex(":memory:")
            return
        db = self.root / DB_NAME
        if not db.exists() and any(
                (self.root / tree).is_dir() for tree in ("objects", "index")):
            raise CampaignError(
                f"{self.root} is a result store of the file layout "
                f"(objects/ or index/ but no {DB_NAME}); import it with "
                "tools/migrate_store.py")
        self.index = ShardIndex.shared(db)

    def key_for(self, point: PointSpec) -> str:
        """This store's cache key for ``point`` (see :meth:`key_of`)."""
        return self.key_of(point.canonical())

    def key_of(self, canonical: str) -> str:
        """This store's cache key for the point whose canonical JSON is
        ``canonical`` (:meth:`PointSpec.canonical`).

        Byte-for-byte the payload :func:`cache_key` hashes, built around
        text the caller already holds: the planner encodes each point
        once (``PointTask.canonical``), and the executor derives every
        task's key from that text.
        """
        return hashlib.sha256(
            (self._key_head + canonical + "}").encode()).hexdigest()

    def quarantine(self, key: str, reason: str) -> None:
        """Pull ``key``'s record out of service and count it.

        The row is deleted (and counted in the table's ledger), so the
        next read of the key (:meth:`load_key`, :meth:`results_for`) is
        a miss and the point recomputes. A disk store first copies the
        row's bytes to ``quarantine/`` (the evidence for post-mortems,
        as one record line); an in-memory store has no root and keeps
        no evidence. ``reason`` names the failed check for the caller's
        report.

        Re-quarantining the same key (heal, recompute, corrupt again)
        must not overwrite the earlier evidence: the destination gains a
        monotonic ``.N`` suffix whenever the unsuffixed name is taken.
        """
        self.quarantined += 1
        row = self.index.get(key) if self.root is not None else None
        if row is not None:
            qdir = self.root / "quarantine"
            qdir.mkdir(parents=True, exist_ok=True)
            serial = 0
            while True:
                name = f"{key}.json" if not serial else f"{key}.{serial}.json"
                try:
                    with open(qdir / name, "xb") as fh:  # the row, verbatim
                        fh.write(b'{"checksum":"' + row[3] + b'",'
                                 + _core(key, row)[1:])
                    break
                except FileExistsError:
                    serial += 1
        self.index.delete(key)

    def contains(self, key: str) -> bool:
        """Cheap presence probe for ``key`` -- no verification, no quarantine.

        The remote-ingest dedup path asks "is this key already landed?"
        for every shipped row; answering via :meth:`load_key` would
        verify the record. A corrupt record therefore *does* read as
        present here -- ingest skips it and the normal verify/quarantine
        machinery reclaims it later, which is the same trade the
        executor's resume path makes.
        """
        return self.index.get(key) is not None

    def load_key(self, key: str) -> dict | None:
        """Fetch a verified cached record by key (None if absent/corrupt).

        The full check: the row's texts are parsed into the record and
        :func:`_record_problem` verifies it, so a respelled but
        equivalent text (one a migration or an older writer left) is
        served. A record that fails to parse, fails its checksum or is
        another key's record is quarantined on the spot and reads as a
        miss -- a damaged record is never served as a hit.
        """
        row = self.index.get(key)
        if row is None:
            return None
        try:
            record = _row_record(key, row)
        except ValueError:
            # rotten bytes -- possibly not even valid UTF-8, or an
            # integer past json's digit limit
            self.quarantine(key, "unparseable JSON")
            return None
        problem = _record_problem(key, record)
        if problem is None:
            return record
        self.quarantine(key, problem)
        return None

    def put(self, point: PointSpec, payload: Mapping[str, Any],
            wall_ms: float | None = None) -> str:
        """Store one ``payload`` for ``point``; returns the cache key.

        A one-item :meth:`put_many`.
        """
        return self.put_many([(self.key_for(point), point, payload, wall_ms)])[0]

    def put_many(self, items: Iterable[tuple[str, PointSpec, Mapping[str, Any],
                                             float | None]]) -> list[str]:
        """Store a batch of ``(key, point, payload, wall_ms)``; returns the keys.

        Each ``key`` is the point's key as this store derives it
        (:meth:`key_for` / :meth:`key_of`); callers that already hold it
        pass it rather than have the point encoded again. The batch is
        one transaction (:meth:`ShardIndex.append`): each row
        holds the point's and the payload's canonical text and the
        checksum over the record core they make, and a crash before the
        commit leaves none of the batch. A put replaces the key's live
        row. An empty batch touches nothing.

        ``wall_ms`` (real wall-clock the executor spent on the point, if
        known) is *not* part of the cached record -- cache-served results
        stay bit-identical to computed ones -- but is carried on the row
        for latency queries.
        """
        keys: list[str] = []
        rows = []
        for key, point, payload, wall_ms in items:
            point_text = canonical_json(point.to_dict())
            result_text = canonical_json(dict(payload))
            core = (self._core_head + key + '","point":' + point_text
                    + ',"result":' + result_text + "}")
            rows.append((key, self.fingerprint, point_text, result_text,
                         hashlib.sha256(core.encode()).hexdigest()[:16],
                         wall_ms))
            keys.append(key)
        if rows:
            self.index.append(*rows)
        self.writes += len(keys)
        return keys

    def corrupt(self, key: str, at: float = 0.0) -> None:
        """Damage ``key``'s stored record in place (fault-injection hook).

        ``at`` in [0, 1] picks *where*: one byte at that fraction of the
        row's point and result text is XORed. Out-of-range ``at`` values
        are clamped (fault schedules derive ``at`` from seeded hashes
        and may hand in anything); a missing record is a no-op, never an
        error. Only :mod:`repro.faults` and tests call this; it exists
        so chaos schedules can corrupt through the same API surface the
        store itself owns.
        """
        self.index.corrupt(key, min(max(float(at), 0.0), 1.0))

    def result_for(self, task_id: str, point: PointSpec) -> PointResult | None:
        """Reconstruct a :class:`PointResult` from cache (marked cached).

        The one-item form of :meth:`results_for`. Corrupt records
        (quarantined) and schema-drifted records both come back as None
        -- a miss the executor answers by recomputing -- never as an
        exception.
        """
        return self.results_for([(task_id, point, self.key_for(point))])[0]

    def results_for(self, items: Iterable[tuple[str, PointSpec, str]]
                    ) -> list[PointResult | None]:
        """Batch :meth:`result_for`: one result (or None) per
        ``(task_id, point, key)`` item, in order.

        Every key's row is fetched in a few ``IN (...)`` queries
        (:meth:`ShardIndex.fetch`). A row is served when the record core
        joined from its stored texts hashes to its checksum; serving it
        then parses only its result text. Any other row is read again
        through :meth:`load_key`, whose full check serves an equivalent
        respelling and quarantines a bad record: the quarantine decision
        stays in one place. ``hits`` and ``misses`` count one per item,
        as :meth:`result_for` does.
        """
        items = list(items)
        out: list[PointResult | None] = [None] * len(items)
        again = []
        rows = self.index.fetch([key for _tid, _point, key in items])
        for i, (task_id, point, key) in enumerate(items):
            row = rows.get(key)
            if row is None:
                continue
            if hashlib.sha256(_core(key, row)).hexdigest()[:16].encode() \
                    != row[3]:
                again.append(i)
                continue
            out[i] = _cached_result(task_id, point, json.loads(row[2]))
        for i in again:
            task_id, point, key = items[i]
            record = self.load_key(key)
            if record is not None:
                out[i] = _cached_result(task_id, point, record.get("result"))
        hits = sum(result is not None for result in out)
        self.hits += hits
        self.misses += len(out) - hits
        return out

    def scan(self, quarantine: bool = False) -> StoreScan:
        """Audit every stored record; optionally quarantine what fails.

        Checks, per record: its texts parse, it carries a checksum that
        verifies, it names its own key, and its point and fingerprint
        re-derive that same key. Records of every fingerprint are
        checked. Schema-drifted ``result`` payloads are counted but are
        not errors. ``quarantine=True`` additionally pulls every corrupt
        record out of service, exactly as a read would.
        """
        report = StoreScan()
        for key, *row in self.index.rows():
            try:
                record = _row_record(key, row[:4])
            except ValueError as exc:
                report.audit(key, None, f"unparseable: {exc}")
                continue
            report.audit(key, record)
        report.corrupt.sort()
        if quarantine:
            for key, reason in report.corrupt:
                self.quarantine(key, reason)
                report.quarantined += 1
        return report

    def rows(self) -> Iterator[tuple[str, dict, dict, float | None]]:
        """``(key, point, result, wall_ms)`` of every stored row, in key
        order, unverified (queries only; a text that does not parse
        reads as ``{}``)."""
        for key, _fingerprint, point, result, _checksum, wall_ms \
                in self.index.rows():
            yield key, _parsed(point), _parsed(result), wall_ms

    def count_objects(self) -> int:
        """Number of live records (one ``count(*)``)."""
        return self.index.count()

    def compact(self) -> CompactionReport:
        """Report what changed since the last compaction and vacuum the
        database (see :meth:`ShardIndex.compact`)."""
        return self.index.compact()


def _parsed(text: bytes) -> dict:
    """``text`` as a JSON object; ``{}`` when it is not one."""
    try:
        value = json.loads(text)
    except ValueError:
        return {}
    return value if isinstance(value, dict) else {}


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


class Journal:
    """Append-only run log; one JSON object per line.

    Safe for concurrent appenders across processes: each append is one
    locked ``write()`` of whole lines on an ``O_APPEND`` descriptor
    (:func:`repro.campaign.durable.append_lines`), so two processes
    sharing one journal can never interleave partial lines, and each
    append's batch lands as one contiguous run (the 8-appender property
    test in ``tests/campaign/test_store_properties.py`` pins this).
    """

    def __init__(self, path: str | os.PathLike) -> None:
        """Bind to ``path`` (created lazily on first append)."""
        self.path = Path(path)

    def append(self, *entries: Mapping[str, Any]) -> None:
        """Append ``entries`` as one group commit: one write, one fsync.

        Any number of entries cost one lock, one tail heal, one
        ``write()`` of the joined lines and one ``fsync``
        (:func:`repro.campaign.durable.append_lines`) -- the campaign
        executor commits a whole wave's rows this way, and a remote
        executor a whole wave's segment. A call with no entries touches
        nothing.
        """
        append_lines(self.path, "".join(
            canonical_json(dict(entry)) + "\n" for entry in entries
        ).encode("utf-8"))

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
        lines = read_lines(self.path)
        for _entry in lines:
            pass
        return lines.torn

    def entries(self) -> list[dict]:
        """All intact entries, in append order: a torn line (its task
        re-runs) and a line that is not a JSON object are skipped."""
        return list(read_lines(self.path))

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

    Torn-tail semantics (:func:`repro.campaign.durable.read_tail`): a
    final line *without* a trailing newline is left unconsumed (it may
    still be mid-write; the next append heals it), while a
    newline-terminated line that fails to parse is counted in ``torn``
    and skipped permanently. ``bytes_read`` accumulates the real read
    cost, which the O(new rows) regression test pins.
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
        lines, offset, read = read_tail(self.path, self.offset)
        entries = list(lines)
        if offset < self.offset:
            self.resyncs += 1
        self.offset = offset
        self.torn += lines.torn  # healed torn fragments; permanently skipped
        self.bytes_read += read
        return entries


def write_spec(path: Path, spec_payload: Mapping[str, Any]) -> None:
    """Persist a campaign's spec.json (pretty, stable key order).

    Published atomically (:func:`repro.campaign.durable.publish`) so concurrent
    runners racing to create the same campaign directory -- the service
    deduplicates upstream, but the CLI has no such guard -- never leave
    a half-written spec for the loser to read.
    """
    publish(path, json.dumps(dict(spec_payload), sort_keys=True, indent=2) + "\n")


def read_spec(path: Path) -> dict:
    """Load a campaign's spec.json."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CampaignError(f"no campaign spec at {path}") from None
    except ValueError as exc:
        raise CampaignError(f"corrupt campaign spec at {path}: {exc}") from None
