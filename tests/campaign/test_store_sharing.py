"""One store, many users: processes, threads, a forked child, compaction.

Each process keeps one connection per store database, shared by every
handle and thread; other processes see each commit on their next read.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading

from repro.campaign.spec import PointSpec
from repro.campaign.store import DONE, ResultStore


def _point(threads: int) -> PointSpec:
    return PointSpec(machine="A", backend="GCC-TBB", case="reduce",
                     size_exp=12, threads=threads)


def _payload(seconds: float) -> dict:
    return {"status": DONE, "seconds": seconds, "error": None}


def _put_in_child(root: str) -> None:
    ResultStore(root).put(_point(2), _payload(2.0))


def test_a_put_by_another_process_is_visible_through_an_open_handle(tmp_path):
    store = ResultStore(tmp_path / "cache")
    store.put(_point(1), _payload(1.0))
    assert store.result_for("t", _point(2)) is None
    child = multiprocessing.get_context("spawn").Process(
        target=_put_in_child, args=(str(tmp_path / "cache"),))
    child.start()
    child.join(timeout=60)
    assert not child.is_alive() and child.exitcode == 0
    assert store.result_for("t", _point(2)).seconds == 2.0
    assert store.count_objects() == 2


def test_eight_threads_with_their_own_handles_share_one_connection(tmp_path):
    handles = [ResultStore(tmp_path / "cache") for _ in range(8)]
    assert len({id(handle.index) for handle in handles}) == 1
    errors: list[str] = []

    def work(i: int) -> None:
        store = handles[i]
        for batch in range(10):
            points = [_point(1000 * i + 10 * batch + j + 1) for j in range(5)]
            store.put_many([(store.key_for(p), p, _payload(float(p.threads)),
                             None) for p in points])
            for p, result in zip(points, store.results_for(
                    (f"t{p.threads}", p, store.key_for(p)) for p in points)):
                if result is None or result.seconds != float(p.threads):
                    errors.append(f"thread {i}: {p.threads} read {result}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert handles[0].count_objects() == 8 * 10 * 5
    assert handles[0].compact().superseded == 0


def test_a_forked_child_opens_its_own_connection(tmp_path):
    store = ResultStore(tmp_path / "cache")
    store.put(_point(1), _payload(1.0))
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: a handle of its own, on a connection of its own
        try:
            os.close(read)
            child = ResultStore(tmp_path / "cache")
            fresh = child.index is not store.index
            child.put(_point(2), _payload(2.0))
            served = child.result_for("t", _point(1)).seconds == 1.0
            os.write(write, b"ok" if fresh and served else b"no")
        finally:
            os._exit(0)
    os.close(write)
    try:
        assert os.read(read, 2) == b"ok"
    finally:
        os.close(read)
        os.waitpid(pid, 0)
    # the parent's connection still works, and sees the child's put
    assert store.result_for("t", _point(2)).seconds == 2.0
    assert store.count_objects() == 2


def test_superseded_counts_a_double_put_until_the_next_compaction(tmp_path):
    store = ResultStore(tmp_path / "cache")
    store.put(_point(1), _payload(1.0))
    store.put(_point(1), _payload(1.0))  # replaces the live row
    store.put(_point(2), _payload(2.0))
    first = store.compact()
    assert (first.rows_kept, first.superseded, first.quarantined_dropped) == \
        (2, 1, 0)
    second = store.compact()
    assert (second.rows_kept, second.superseded,
            second.quarantined_dropped) == (2, 0, 0)
    # the ledger is the database's, not the handle's
    store.put(_point(2), _payload(2.0))
    assert ResultStore(tmp_path / "cache").compact().superseded == 1
