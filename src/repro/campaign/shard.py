"""The result table: one SQLite database per result store.

Every record of a :class:`~repro.campaign.store.ResultStore` is one row
of one ``WITHOUT ROWID`` table, keyed by cache key (:data:`SCHEMA`), in
``<store root>/cache.db`` or, for a store without a root, in an
in-memory database of its own:

* ``key`` -- the cache key;
* ``fingerprint`` -- the model fingerprint the point was computed under;
* ``point`` and ``result`` -- the canonical JSON text of the point and
  of the result payload;
* ``checksum`` -- 16 hex digits of sha256 over the record core (see
  :mod:`repro.campaign.store`);
* ``wall_ms`` -- executor wall time, carried for latency queries and
  never part of the record.

The database runs in WAL mode with ``synchronous=NORMAL``, so commits
are synced only at checkpoints (the records were never fsynced; the
journal is): a committed transaction survives a process crash,
and a power loss keeps only what the last checkpoint synced. Each batch
of puts (:meth:`ShardIndex.append`) is one transaction, so a batch is
visible whole or not at all, and a crash inside one leaves none of it.

Each process keeps one connection per database file, shared by every
handle and thread under a lock (:meth:`ShardIndex.shared`), and closes
it with the last handle. Connections are keyed by process id, so a
forked child opens its own instead of reusing its parent's, and never
closes its parent's. Other processes wait on SQLite's busy timeout
(:data:`BUSY_TIMEOUT_S`).

The ``ledger`` table holds what :meth:`ShardIndex.compact` reports
without a log to fold: the puts and the quarantines since the last
compaction, and the rows that compaction kept. A put either inserts a
row or supersedes a live one, so the superseded puts are the puts minus
the rows inserted, and those are the rows gained plus the rows
quarantined.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import time
import weakref
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from repro.errors import CampaignError

__all__ = [
    "BUSY_TIMEOUT_S",
    "DB_NAME",
    "SCHEMA",
    "SCHEMA_VERSION",
    "CompactionReport",
    "ShardIndex",
]

#: The database's file name under the store root.
DB_NAME = "cache.db"

#: ``PRAGMA user_version`` of the schema below (layouts 1 and 2 were
#: files: loose objects, then packs and shard logs).
SCHEMA_VERSION = 3

#: Seconds a writer waits for another process's transaction.
BUSY_TIMEOUT_S = 30.0

#: The statements that create a fresh database, in order.
SCHEMA = (
    "CREATE TABLE results (key TEXT PRIMARY KEY, fingerprint TEXT NOT NULL, "
    "point TEXT NOT NULL, result TEXT NOT NULL, checksum TEXT NOT NULL, "
    "wall_ms REAL) WITHOUT ROWID",
    "CREATE TABLE ledger (puts INTEGER NOT NULL, "
    "quarantined INTEGER NOT NULL, kept INTEGER NOT NULL)",
    "INSERT INTO ledger VALUES (0, 0, 0)",
)

#: Keys per ``IN (...)`` query of a batch read.
_CHUNK = 500

#: One stored row as :meth:`ShardIndex.fetch` returns it: the
#: fingerprint, point, result and checksum columns, as bytes.
Row = tuple[bytes, bytes, bytes, bytes]


def _close(conn: sqlite3.Connection, pid: int) -> None:
    """Close ``conn`` in the process that opened it; a forked child
    leaves its parent's connection alone."""
    if os.getpid() == pid:
        conn.close()


#: Each process's empty in-memory result database, by pid.
_EMPTY: dict[int, sqlite3.Connection] = {}
_EMPTY_LOCK = threading.Lock()


def _copy_empty(conn: sqlite3.Connection) -> None:
    """Make ``conn``'s in-memory database a copy of an empty result
    database, built once per process (a forked child builds its own).

    Copying costs a third of running :data:`SCHEMA`, which a throwaway
    store's cold campaign would otherwise pay on every handle.
    """
    with _EMPTY_LOCK:
        empty = _EMPTY.get(os.getpid())
        if empty is None:
            empty = _EMPTY[os.getpid()] = sqlite3.connect(
                ":memory:", isolation_level=None, check_same_thread=False)
            for statement in SCHEMA:
                empty.execute(statement)
            empty.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
        empty.backup(conn)


@dataclass
class CompactionReport:
    """What one compaction found (see :meth:`ShardIndex.compact`)."""

    rows_kept: int = 0
    superseded: int = 0
    quarantined_dropped: int = 0

    def summary(self) -> str:
        """One-line human report."""
        return (
            f"{self.rows_kept} row(s) kept, {self.superseded} superseded, "
            f"{self.quarantined_dropped} quarantined row(s) dropped"
        )


class ShardIndex:
    """The result table of one store: its rows, through one connection.

    The name predates the table: the pipeline benchmark times
    :meth:`append` as its ``store.index`` layer, one call per batch.
    Text columns read back as bytes, so a reader hashes what is stored
    without decoding it. ``close()`` closes the connection at once
    (otherwise it closes with the instance).
    """

    #: The tables open in this process, by (pid, path); an entry lives
    #: as long as some handle holds it.
    _open: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
    _open_lock = threading.Lock()

    def __init__(self, path: str | os.PathLike) -> None:
        """Open (creating when absent) the database at ``path``.

        ``":memory:"`` opens a private in-memory database instead (an
        in-memory :class:`~repro.campaign.store.ResultStore`), a copy of
        an empty one (:func:`_copy_empty`): no file, ``journal_mode``
        reads ``memory``, and it is dropped with the instance. Only
        files are shared (:meth:`shared`).
        """
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(self.path, timeout=BUSY_TIMEOUT_S,
                                     isolation_level=None,
                                     check_same_thread=False)
        self._conn.text_factory = bytes
        # A connection is only freed by the cyclic collector, which would
        # keep a dropped store's file open; close it with this instance.
        self.close = weakref.finalize(self, _close, self._conn, os.getpid())
        if str(path) == ":memory:":
            _copy_empty(self._conn)
            return
        try:
            self._wal()
            self._conn.execute("PRAGMA synchronous=NORMAL")
            if self._version() != SCHEMA_VERSION:
                with self._transaction() as conn:
                    version = self._version()
                    if version == 0:
                        for statement in SCHEMA:
                            conn.execute(statement)
                        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
                    elif version != SCHEMA_VERSION:
                        raise CampaignError(
                            f"{self.path} has schema version {version}, "
                            f"not {SCHEMA_VERSION}")
        except sqlite3.DatabaseError as exc:
            self.close()
            raise CampaignError(f"{self.path} is not a result database: "
                                f"{exc}") from None
        except CampaignError:
            self.close()
            raise

    @classmethod
    def shared(cls, path: str | os.PathLike) -> "ShardIndex":
        """The table at ``path`` as this process shares it.

        Every handle open on one store at the same time gets the same
        instance, so the daemon's per-campaign handles add no
        descriptors; the instance and its connection close with the
        last handle that holds it.
        """
        key = (os.getpid(), os.path.abspath(path))
        with cls._open_lock:
            table = cls._open.get(key)
            if table is None:
                table = cls._open[key] = cls(path)
        return table

    def _wal(self) -> None:
        """Put the file in WAL mode. On a fresh file that takes a lock
        SQLite does not wait for, so creators racing on one fresh store
        retry it within the busy timeout."""
        deadline = time.monotonic() + BUSY_TIMEOUT_S
        while True:
            try:
                self._conn.execute("PRAGMA journal_mode=WAL")
                return
            except sqlite3.OperationalError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.01)

    def _version(self) -> int:
        return self._conn.execute("PRAGMA user_version").fetchone()[0]

    @contextmanager
    def _transaction(self) -> Iterator[sqlite3.Connection]:
        """One write transaction, holding the write lock from its start."""
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                yield self._conn
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._conn.execute("COMMIT")

    def append(self, *rows: tuple) -> None:
        """Write ``rows`` as one transaction; none is visible before all are.

        Each row is ``(key, fingerprint, point, result, checksum,
        wall_ms)`` and replaces the key's live row, if any.
        """
        with self._transaction() as conn:
            conn.executemany(
                "INSERT OR REPLACE INTO results VALUES (?, ?, ?, ?, ?, ?)", rows)
            conn.execute("UPDATE ledger SET puts = puts + ?", (len(rows),))

    def fetch(self, keys: Sequence[str]) -> dict[str, Row]:
        """The live row of each of ``keys`` that has one."""
        found: dict[str, Row] = {}
        for start in range(0, len(keys), _CHUNK):
            chunk = keys[start:start + _CHUNK]
            query = ("SELECT key, fingerprint, point, result, checksum "
                     f"FROM results WHERE key IN ({','.join('?' * len(chunk))})")
            with self._lock:
                rows = self._conn.execute(query, chunk).fetchall()
            for key, *row in rows:
                found[key.decode()] = tuple(row)
        return found

    def get(self, key: str) -> Row | None:
        """``key``'s live row, or None."""
        return self.fetch([key]).get(key)

    def count(self) -> int:
        """Number of live rows."""
        with self._lock:
            return self._conn.execute(
                "SELECT count(*) FROM results").fetchone()[0]

    def rows(self) -> list[tuple]:
        """Every live row in key order: ``(key, fingerprint, point,
        result, checksum, wall_ms)``, the key decoded."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM results ORDER BY key").fetchall()
        return [(key.decode(), *row) for key, *row in rows]

    def delete(self, key: str) -> None:
        """Drop ``key``'s row, counting it as quarantined."""
        with self._transaction() as conn:
            if conn.execute("DELETE FROM results WHERE key = ?",
                            (key,)).rowcount:
                conn.execute("UPDATE ledger SET quarantined = quarantined + 1")

    def corrupt(self, key: str, at: float) -> None:
        """XOR one byte of ``key``'s point and result text, at fraction
        ``at`` of their joined length (fault injection); no row, no-op."""
        with self._transaction() as conn:
            row = conn.execute("SELECT point, result FROM results "
                               "WHERE key = ?", (key,)).fetchone()
            if row is None:
                return
            point, result = row
            text = bytearray(point + result)
            pos = min(int(at * len(text)), len(text) - 1)
            text[pos] ^= 0x01
            conn.execute("UPDATE results SET point = ?, result = ? WHERE key = ?",
                         (bytes(text[:len(point)]), bytes(text[len(point):]), key))

    def compact(self) -> CompactionReport:
        """Report and reset the ledger, then ``VACUUM`` the file.

        ``superseded`` counts the puts that replaced a live row since
        the last compaction, ``quarantined_dropped`` the rows quarantined
        since then; a second compaction with no writes between reports
        0 of both.
        """
        with self._transaction() as conn:
            puts, quarantined, kept = conn.execute(
                "SELECT puts, quarantined, kept FROM ledger").fetchone()
            rows = conn.execute("SELECT count(*) FROM results").fetchone()[0]
            conn.execute("UPDATE ledger SET puts = 0, quarantined = 0, kept = ?",
                         (rows,))
        with self._lock:
            self._conn.execute("VACUUM")
        inserted = rows - kept + quarantined
        return CompactionReport(rows_kept=rows, superseded=puts - inserted,
                                quarantined_dropped=quarantined)
