"""Chunk partitioners: how a range [0, n) is split over threads.

The backends differ visibly here: OpenMP static scheduling produces one
contiguous chunk per thread; TBB's auto_partitioner produces a few chunks
per thread balanced by work stealing; HPX creates many small tasks, which
is where its instruction overhead (Table 3: up to 2.5x more instructions)
comes from.

A :class:`Partition` holds its chunks as read-only arrays (starts, sizes,
chunk->thread ids), which is all a work profile needs; :class:`Chunk`
objects are materialised only when run mode walks the chunks to execute
its kernels. A partitioner's output is a pure function of (partitioner,
n, threads), so small partitions are memoised and every phase and
profile cut from one shares its arrays.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "Chunk",
    "Partition",
    "Partitioner",
    "StaticPartitioner",
    "BlockCyclicPartitioner",
    "WorkStealingPartitioner",
    "FixedGrainPartitioner",
]


@dataclass(frozen=True)
class Chunk:
    """A contiguous slice of the iteration space assigned to one thread."""

    index: int
    start: int
    stop: int
    thread: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop < self.start:
            raise ConfigurationError(f"bad chunk bounds [{self.start}, {self.stop})")
        if self.thread < 0:
            raise ConfigurationError("thread id must be non-negative")

    def __len__(self) -> int:
        return self.stop - self.start


def _frozen(values, dtype) -> np.ndarray:
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


class Partition:
    """A full partition of [0, n) into chunks, held as arrays.

    ``starts``, ``sizes`` and ``thread`` (int64) and ``elems`` (the sizes
    as float64) are parallel, read-only arrays in chunk (scheduling)
    order. Constructing a partition from :class:`Chunk` objects validates
    that they tile [0, n); :meth:`Partitioner.partition` builds the
    arrays directly.
    """

    __slots__ = ("n", "threads", "strategy", "starts", "sizes", "thread",
                 "elems", "_chunks")

    def __init__(
        self, n: int, threads: int, chunks: Sequence[Chunk], strategy: str
    ) -> None:
        if n < 0:
            raise ConfigurationError("n must be non-negative")
        if threads <= 0:
            raise ConfigurationError("threads must be positive")
        for chunk in chunks:
            if chunk.thread >= threads:
                raise ConfigurationError("chunk assigned to out-of-range thread")
            if chunk.stop > n:
                raise ConfigurationError(
                    f"chunk [{chunk.start}, {chunk.stop}) exceeds n={n}"
                )
        # The chunks must tile [0, n) exactly, but their *sequence* order is
        # a scheduling detail (block-cyclic partitions listed per-thread are
        # just as valid as the same chunks in ascending-start order), so
        # validate against the sorted view: no gaps, no overlaps, full
        # coverage. Empty chunks carry no elements and may sit anywhere.
        cursor = 0
        for chunk in sorted((c for c in chunks if len(c) > 0),
                            key=lambda c: c.start):
            if chunk.start < cursor:
                raise ConfigurationError(
                    f"chunks overlap at [{chunk.start}, {cursor})"
                )
            if chunk.start > cursor:
                raise ConfigurationError(
                    f"chunks leave [{cursor}, {chunk.start}) uncovered"
                )
            cursor = chunk.stop
        if cursor != n:
            raise ConfigurationError(
                f"chunks cover [0, {cursor}), expected [0, {n})"
            )
        self._set(n, threads, strategy,
                  _frozen([c.start for c in chunks], np.int64),
                  _frozen([len(c) for c in chunks], np.int64),
                  _frozen([c.thread for c in chunks], np.int64))
        self._chunks = tuple(chunks)

    def _set(self, n, threads, strategy, starts, sizes, thread) -> None:
        self.n, self.threads, self.strategy = n, threads, strategy
        self.starts, self.sizes, self.thread = starts, sizes, thread
        self.elems = _frozen(sizes, np.float64)

    @classmethod
    def _of_arrays(cls, n: int, threads: int, strategy: str,
                   starts: np.ndarray, sizes: np.ndarray,
                   thread: np.ndarray) -> "Partition":
        """A partitioner's output (tiles [0, n) by construction)."""
        self = cls.__new__(cls)
        for array in (starts, sizes, thread):
            array.flags.writeable = False
        self._set(n, threads, strategy, starts, sizes, thread)
        self._chunks = None
        return self

    @property
    def num_chunks(self) -> int:
        """Total number of chunks (the fork/join scheduling unit count)."""
        return len(self.sizes)

    @property
    def chunks(self) -> tuple[Chunk, ...]:
        """The chunks as objects, built on first use (run-mode kernels)."""
        if self._chunks is None:
            self._chunks = tuple(
                Chunk(index=i, start=start, stop=start + size, thread=thread)
                for i, (start, size, thread) in enumerate(zip(
                    self.starts.tolist(), self.sizes.tolist(),
                    self.thread.tolist()))
            )
        return self._chunks

    def chunks_of_thread(self, thread: int) -> list[Chunk]:
        """Chunks executed by ``thread``, in execution order."""
        return [c for c in self.chunks if c.thread == thread]

    def elements_per_thread(self) -> list[int]:
        """Total elements each thread processes."""
        counts = [0] * self.threads
        for thread, size in zip(self.thread.tolist(), self.sizes.tolist()):
            counts[thread] += size
        return counts


class Partitioner(ABC):
    """Strategy turning (n, threads) into a :class:`Partition`.

    Subclasses are frozen value objects that decide only the chunk count
    (:meth:`_parts`) and the chunk->thread assignment (:meth:`_threads`);
    the chunks are always near-equal contiguous ranges in chunk order.
    """

    name: str = "abstract"

    def partition(self, n: int, threads: int) -> Partition:
        """Split [0, n) for ``threads`` workers."""
        if n < 0:
            raise ConfigurationError("n must be non-negative")
        if threads <= 0:
            raise ConfigurationError("threads must be positive")
        parts = self._parts(n, threads)
        build = _shared if parts <= SHARED_PARTITION_CHUNKS else _build
        return build(self, n, threads, parts)

    @abstractmethod
    def _parts(self, n: int, threads: int) -> int:
        """Chunk count for [0, n) over ``threads`` workers."""

    @abstractmethod
    def _threads(self, parts: int, threads: int) -> np.ndarray:
        """The chunk->thread ids of ``parts`` chunks, in chunk order."""


#: Partitions of at most this many chunks are memoised (256 of them,
#: so under 3 MiB), and every profile cut from one shares its arrays:
#: a campaign grid repeats each (backend, n, threads) cell across all of
#: its cases. Larger partitions -- fine-grained HPX tasks at paper scale
#: -- are rebuilt per call rather than pinned.
SHARED_PARTITION_CHUNKS = 256


def _build(partitioner: Partitioner, n: int, threads: int,
           parts: int) -> Partition:
    """Near-equal contiguous chunks dealt to threads by ``partitioner``."""
    base, extra = divmod(n, parts)
    sizes = np.full(parts, base, dtype=np.int64)
    sizes[:extra] += 1
    starts = np.zeros(parts, dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    thread = partitioner._threads(parts, threads).astype(np.int64, copy=False)
    return Partition._of_arrays(n, threads, partitioner.name, starts, sizes,
                                thread)


_shared = lru_cache(maxsize=256)(_build)


@dataclass(frozen=True)
class StaticPartitioner(Partitioner):
    """One contiguous chunk per thread (OpenMP ``schedule(static)``)."""

    name = "static"

    def _parts(self, n, threads):
        return threads

    def _threads(self, parts, threads):
        return np.arange(parts)


@dataclass(frozen=True)
class BlockCyclicPartitioner(Partitioner):
    """Fixed-size blocks dealt round-robin (OpenMP ``schedule(static, c)``).

    Also models OpenMP dynamic scheduling in the deterministic simulator:
    the steady-state assignment of a dynamic schedule on symmetric chunks
    is round-robin.
    """

    name = "block-cyclic"
    chunks_per_thread: int = 4

    def __post_init__(self) -> None:
        if self.chunks_per_thread <= 0:
            raise ConfigurationError("chunks_per_thread must be positive")

    def _parts(self, n, threads):
        return min(max(1, n), threads * self.chunks_per_thread)

    def _threads(self, parts, threads):
        return np.arange(parts) % threads


@dataclass(frozen=True)
class WorkStealingPartitioner(Partitioner):
    """TBB-style recursive range splitting with a balanced steady state.

    ``auto_partitioner`` splits ranges until there are a few chunks per
    worker; stealing balances them. Deterministically we assign the
    resulting chunks so every thread gets an equal contiguous run, which is
    the steady state for uniform work.
    """

    name = "work-stealing"
    split_factor: int = 8

    def __post_init__(self) -> None:
        if self.split_factor <= 0:
            raise ConfigurationError("split_factor must be positive")

    def _parts(self, n, threads):
        return min(max(1, n), threads * self.split_factor)

    def _threads(self, parts, threads):
        return np.minimum(np.arange(parts) * threads // parts, threads - 1)


@dataclass(frozen=True)
class FixedGrainPartitioner(Partitioner):
    """Fixed-size grains dealt round-robin (HPX task granularity)."""

    name = "fixed-grain"
    grain: int = 1
    max_chunks: int = 1 << 20

    def __post_init__(self) -> None:
        if self.grain <= 0:
            raise ConfigurationError("grain must be positive")

    def _parts(self, n, threads):
        return min(self.max_chunks, max(1, -(-n // self.grain))) if n else 1

    def _threads(self, parts, threads):
        return np.arange(parts) % threads
