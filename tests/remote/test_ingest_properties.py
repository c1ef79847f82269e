"""Property test: concurrent fenced appenders + chaos, exactly-once ingest.

Hypothesis drives randomized scenarios of the full shipping pipeline:

- N appender threads concurrently write their shard of result rows into
  lease-fenced private segments (real threads, real flocked files);
- random chaos per shard: a mid-write lease *expiry* (the appender's
  next fenced append raises ``LeaseExpiredError``, it re-acquires and
  rewrites) or a *takeover* (another holder claims the lapsed lease,
  the original appender's append raises ``StaleWriterError`` and the
  new holder recomputes the shard -- reassignment in miniature);
- random shard overlap (two appenders own some of the same points) and
  random re-shipping of every sealed segment.

Whatever the interleaving, ingest must be exactly-once: every expected
point present, no point landed twice (no superseded index rows), and
the ingested-row count equal to the number of unique points. Three
fixed derandomization seeds keep CI deterministic while varying the
explored scenarios (satellite of docs/DISTRIBUTION.md).
"""

from __future__ import annotations

import tempfile
import threading
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st  # noqa: E402

from repro.campaign.spec import PointSpec  # noqa: E402
from repro.campaign.store import ResultStore  # noqa: E402
from repro.errors import LeaseExpiredError, StaleWriterError  # noqa: E402
from repro.remote.lease import LeaseFile  # noqa: E402
from repro.remote.segment import SegmentWriter, result_row  # noqa: E402
from repro.remote.ship import SegmentIngestor  # noqa: E402

CASES = ("reduce", "transform", "sort", "copy", "find", "merge")


class FakeClock:
    """Thread-owned settable clock driving one lease file's expiry."""

    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now


def _point(i: int) -> dict:
    return PointSpec(machine="A", backend="GCC-TBB",
                     case=CASES[i % len(CASES)],
                     size_exp=8 + i // len(CASES), threads=2).to_dict()


def _row(i: int) -> dict:
    return result_row(f"t{i}", _point(i),
                      {"status": "done", "seconds": 0.5 + i, "error": None},
                      wall_ms=1.0)


def _append_shard(root: Path, shard_id: int, rows: list[dict],
                  chaos: str, chaos_at: int, sealed: list) -> None:
    """One appender thread: fenced writes, chaos mid-write, seal, collect.

    ``chaos`` is ``"none"``, ``"expire"`` (lease lapses mid-write, the
    holder re-acquires and rewrites) or ``"takeover"`` (a second holder
    claims the lapsed lease and recomputes the shard).
    """
    clock = FakeClock()
    lease_file = LeaseFile(root / "leases" / f"s{shard_id}.json", clock=clock)
    holder = f"ex-{shard_id}"

    lease = lease_file.acquire(holder, ttl=5.0)
    writer = SegmentWriter(root / "segments", f"s{shard_id}-l{lease.epoch}",
                           executor=holder, epoch=1, wave=f"c/w{shard_id}",
                           fence=lease_file.guard(lease))
    fired = False
    for n, row in enumerate(rows):
        if chaos != "none" and n == chaos_at:
            clock.now += 10.0  # the lease lapses mid-write
            if chaos == "takeover":
                break
            with pytest.raises(LeaseExpiredError):
                writer.append(row)
            fired = True
            # re-acquire (epoch bump) and rewrite into a fresh segment
            lease = lease_file.acquire(holder, ttl=5.0)
            writer = SegmentWriter(
                root / "segments", f"s{shard_id}-l{lease.epoch}",
                executor=holder, epoch=1, wave=f"c/w{shard_id}",
                fence=lease_file.guard(lease))
            for replay in rows[:n]:
                writer.append(replay)
        writer.append(row)
    if chaos == "takeover":
        # reassignment: a new holder fences the original out and recomputes
        takeover = lease_file.acquire(f"re-{shard_id}", ttl=5.0)
        with pytest.raises(StaleWriterError):
            writer.append(rows[min(chaos_at, len(rows) - 1)])
        writer = SegmentWriter(
            root / "segments", f"s{shard_id}-re-l{takeover.epoch}",
            executor=f"re-{shard_id}", epoch=2, wave=f"c/w{shard_id}",
            fence=lease_file.guard(takeover))
        for row in rows:
            writer.append(row)
    elif chaos == "expire":
        assert fired or chaos_at >= len(rows)
    sealed.append((writer.seal(), writer.rows()))


def _run_scenario(data) -> None:
    n_exec = data.draw(st.integers(2, 4), label="executors")
    n_points = data.draw(st.integers(3, 12), label="points")
    owners = data.draw(
        st.lists(st.integers(0, n_exec - 1), min_size=n_points,
                 max_size=n_points), label="owner_per_point")
    # overlap: some points are *also* computed by a second executor
    overlap = data.draw(
        st.lists(st.booleans(), min_size=n_points, max_size=n_points),
        label="overlap_per_point")
    chaos = [
        data.draw(st.sampled_from(["none", "expire", "takeover"]),
                  label=f"chaos_{e}")
        for e in range(n_exec)
    ]
    chaos_at = [
        data.draw(st.integers(0, max(0, n_points - 1)), label=f"chaos_at_{e}")
        for e in range(n_exec)
    ]
    reships = None  # drawn after sealing, one per sealed segment

    shards: list[list[dict]] = [[] for _ in range(n_exec)]
    for i in range(n_points):
        shards[owners[i]].append(_row(i))
        if overlap[i]:
            shards[(owners[i] + 1) % n_exec].append(_row(i))

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        sealed: list = []
        failures: list[BaseException] = []

        def run_shard(e: int) -> None:
            try:
                _append_shard(root, e, shards[e], chaos[e],
                              min(chaos_at[e], max(0, len(shards[e]) - 1)),
                              sealed)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                failures.append(exc)

        threads = [
            threading.Thread(target=run_shard, args=(e,))
            for e in range(n_exec) if shards[e]
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive(), "appender thread deadlocked"
        assert not failures, f"appender thread raised: {failures[0]!r}"

        store = ResultStore(root / "cache")
        ingestor = SegmentIngestor(store, root / "ingest.jsonl")
        reships = [
            data.draw(st.integers(1, 3), label=f"ships_{k}")
            for k in range(len(sealed))
        ]
        for (manifest, rows), ships in zip(sealed, reships):
            for _ in range(ships):
                ingestor.ingest(manifest, rows)

        # -- exactly-once: nothing lost ...
        for i in range(n_points):
            record = store.load_key(store.key_for(PointSpec.from_dict(_point(i))))
            assert record is not None, f"point {i} was lost"
            assert record["result"]["seconds"] == 0.5 + i
        # ... and nothing landed twice
        assert ingestor.report.ingested == n_points
        assert store.index is not None
        assert store.index.count() == n_points
        assert store.compact().superseded == 0


@pytest.mark.chaos
@pytest.mark.parametrize("derandomize_seed", [101, 202, 303])
def test_concurrent_appenders_ingest_exactly_once(derandomize_seed):
    @seed(derandomize_seed)
    @settings(max_examples=12, deadline=None, database=None)
    @given(data=st.data())
    def scenario(data):
        _run_scenario(data)

    scenario()
