"""Property test: concurrent appenders + chaos, exactly-once ingest.

Hypothesis drives randomized scenarios of the full shipping pipeline:

- N appender threads concurrently compute their shard of result rows
  into segments sealed in memory, each shard one wave claimed from its
  own :class:`ExecutorRegistry`;
- random chaos per shard, at a random row: an *expire* (the registry
  expires the claim mid-write; the holder claims the wave again at the
  next epoch and rewrites the whole shard into a fresh segment) or a
  *takeover* (a second holder claims the expired wave and recomputes
  the shard, and the original holder still finishes, seals and ships
  its late segment, which the registry files as ``stale``);
- random shard overlap (two appenders own some of the same points) and
  random re-shipping of every sealed segment through its registry.

Whatever the interleaving, ingest must be exactly-once: every expected
point present, no point landed twice (no superseded rows), and
the ingested-row count equal to the number of unique points. Three
fixed derandomization seeds keep CI deterministic while varying the
explored scenarios (satellite of docs/DISTRIBUTION.md).
"""

from __future__ import annotations

import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st  # noqa: E402

from repro.campaign.spec import PointSpec  # noqa: E402
from repro.campaign.store import ResultStore  # noqa: E402
from repro.remote.registry import ExecutorRegistry  # noqa: E402
from repro.remote.segment import result_row, seal  # noqa: E402
from repro.remote.ship import SegmentIngestor  # noqa: E402

CASES = ("reduce", "transform", "sort", "copy", "find", "merge")


class FakeClock:
    """Thread-owned settable clock driving one registry's deadlines."""

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


@dataclass
class Claim:
    """One claim of a wave: its holder, epoch and the rows computed so far."""

    executor: str
    epoch: int
    rows: list[dict] = field(default_factory=list)


def _append_shard(shard_id: int, rows: list[dict],
                  chaos: str, chaos_at: int, sealed: list) -> None:
    """One appender thread: claim, compute, chaos mid-wave, seal, collect.

    ``chaos`` is ``"none"``, ``"expire"`` (the claim expires mid-wave;
    the holder claims again and recomputes the shard into a fresh
    segment) or ``"takeover"`` (a second holder claims the expired wave
    and recomputes the shard; the original holder's late segment ships
    too). Collects ``(registry, manifest, rows, late)`` per sealed
    segment, the late one first.
    """
    clock = FakeClock()
    registry = ExecutorRegistry(lease_ttl=5.0, executor_ttl=1e9, clock=clock)
    holder = registry.register(f"host-{shard_id}", 1)["id"]
    wave = registry.offer(f"c{shard_id}", [
        {"task_id": row["task_id"]} for row in rows]).wave_id

    def claim(eid: str) -> Claim:
        return Claim(eid, registry.claim(eid)["epoch"])

    def seal_claim(held: Claim, late: bool) -> None:
        manifest = seal(held.rows, segment=f"w-e{held.epoch}",
                        executor=held.executor, epoch=held.epoch, wave=wave)
        sealed.append((registry, manifest, held.rows, late))

    held = claim(holder)
    for n, row in enumerate(rows):
        if chaos != "none" and n == chaos_at:
            clock.now += 10.0  # the claim lapses mid-wave
            assert registry.expire_stale() == [wave]
            if chaos == "expire":
                held = claim(holder)  # epoch 2, a fresh segment
                held.rows.extend(rows[:n])
            else:
                rescuer = registry.register(f"re-{shard_id}", 1)["id"]
                recompute = claim(rescuer)
                recompute.rows.extend(rows)
                held.rows.extend(rows[n:])  # the original holder finishes late
                seal_claim(held, late=True)
                held = recompute
                break
        held.rows.append(row)
    if chaos != "none":
        assert held.epoch == 2
    seal_claim(held, late=False)


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
                _append_shard(e, shards[e], chaos[e],
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
        ingestor = SegmentIngestor(store)
        reships = [
            data.draw(st.integers(1, 3), label=f"ships_{k}")
            for k in range(len(sealed))
        ]
        for (registry, manifest, rows, late), ships in zip(sealed, reships):
            statuses = [registry.deliver(manifest.executor, manifest.wave,
                                         manifest.epoch, manifest, rows)
                        for _ in range(ships)]
            # the registry epoch is the one fence: a late segment of an
            # expired claim is filed stale, the live one completes the
            # wave once, and every later ship is a duplicate
            if late:
                assert statuses == ["stale"] * ships
            else:
                assert statuses == ["accepted"] + ["duplicate"] * (ships - 1)
            for _, delivered, shipped in registry.drain_deliveries(
                    [manifest.wave]):
                ingestor.ingest(delivered, shipped)

        # -- exactly-once: nothing lost ...
        for i in range(n_points):
            record = store.load_key(store.key_for(PointSpec.from_dict(_point(i))))
            assert record is not None, f"point {i} was lost"
            assert record["result"]["seconds"] == 0.5 + i
        # ... and nothing landed twice
        assert ingestor.report.ingested == n_points
        assert store.count_objects() == n_points
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
