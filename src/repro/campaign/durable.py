"""The file disciplines every durable store file shares, each written once.

The store, the remote shipping protocol and the service keep their
state in plain files that several processes share and that a crash may
cut mid-write: :func:`locked` (an advisory ``flock``), the healing
:func:`append_lines`, the whole-log :func:`read_lines`, the resumable
:func:`read_tail` and the temp-file-plus-rename :func:`publish`.
Callers encode their own bytes and keep their own policies: which
appends are synced, and what a shrunk log means.

A log is one JSON object per line. Both reads hand back :class:`Lines`,
which parses as it is iterated (a replay folds a shard's rows one at a
time instead of holding them all), skips blank lines and JSON values
that are not objects, and counts the lines that do not parse -- a tail
torn by a crash, which the next append heals -- as ``torn``.
"""

from __future__ import annotations

import json
import os
import threading
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

try:  # pragma: no cover - platform probe
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback (single-writer)
    fcntl = None

__all__ = ["Lines", "append_lines", "locked", "publish", "read_json",
           "read_lines", "read_tail"]


@contextmanager
def locked(path: Path, flags: int = os.O_RDWR) -> Iterator[int]:
    """Hold an exclusive advisory lock on ``path`` for a ``with`` block.

    Yields the descriptor, opened ``O_CREAT | flags`` (the directory is
    created too); the lock is released and the descriptor closed on the
    way out, also when the block raises.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_CREAT | flags, 0o644)
    try:
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_EX)
        try:
            yield fd
        finally:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)
    finally:
        os.close(fd)


def append_lines(path: Path, data: bytes, *, fsync: bool = False) -> None:
    """Append ``data`` (whole encoded lines) to the log at ``path``.

    Under the lock, a final line a crash left without its newline is
    first terminated, so the torn fragment stays a line of its own, and
    ``data`` lands through one ``O_APPEND`` descriptor, rewritten until
    every byte is down, so concurrent batches never interleave.
    ``fsync=True`` syncs before the lock is released. Empty ``data``
    touches nothing.
    """
    if not data:
        return
    with locked(path, os.O_RDWR | os.O_APPEND) as fd:
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            os.write(fd, b"\n")
        view = memoryview(data)
        while view:  # a short write (rare on files) must not drop lines
            view = view[os.write(fd, view):]
        if fsync:
            os.fsync(fd)


class Lines:
    """A log's JSON-object lines, parsed as they are iterated; ``torn``
    counts the lines that did not parse in the last full iteration."""

    __slots__ = ("raw", "torn")

    def __init__(self, raw: bytes = b"") -> None:
        """Wrap the log bytes ``raw`` (nothing is parsed yet)."""
        self.raw = raw
        self.torn = 0

    def __iter__(self) -> Iterator[dict]:
        self.torn = 0
        for line in self.raw.split(b"\n"):
            if not line.strip():
                continue
            try:
                entry = json.loads(line.decode("utf-8"))
            except ValueError:  # bad JSON or UTF-8, or a huge integer
                self.torn += 1
                continue
            if isinstance(entry, dict):
                yield entry


def read_lines(path: Path) -> Lines:
    """Every line of the log at ``path`` (none when it is missing),
    including an unterminated final one: kept when it parses, torn when
    not."""
    try:
        return Lines(path.read_bytes())
    except FileNotFoundError:
        return Lines()


def read_tail(path: Path, offset: int) -> tuple[Lines, int, int]:
    """``(lines, new offset, bytes read)``: the complete lines of the log
    at ``path`` past byte ``offset``.

    An unterminated final fragment is left for a later read (its writer
    may not be done). A missing log keeps ``offset``; a log shorter than
    ``offset`` shrank under the reader, and reads as no lines with its
    length as the new offset.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except FileNotFoundError:
        return Lines(), offset, 0
    try:
        size = os.fstat(fd).st_size
        if size < offset:
            return Lines(), size, 0
        chunk = os.pread(fd, size - offset, offset)
    finally:
        os.close(fd)
    end = chunk.rfind(b"\n") + 1
    return Lines(chunk[:end]), offset + end, len(chunk)


def publish(path: Path, text: str) -> None:
    """Publish ``text`` at ``path`` atomically: a temp file named after
    this process and thread, then ``os.replace``, so a reader opens the
    old document or the new one, never a partial one."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(
        f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def read_json(path: Path) -> Any:
    """The JSON document published at ``path``; None when it is missing
    or does not parse."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (FileNotFoundError, ValueError):
        return None
