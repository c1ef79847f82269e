"""The warm read path: one encoding per point, one verified batch read per wave.

The planner encodes each point once (``PointTask.canonical``); the task
id and, through :meth:`ResultStore.key_of`, the cache key are hashed
from that text, and the executor reads a wave's cache hits with one
:meth:`ResultStore.results_for`. None of that may move an identity: the
tests below pin task ids, cache keys and journal keys against values
computed independently in the test or captured before the change, and
check that every record the batch read serves passed the same
verification :meth:`ResultStore.load_key` applies.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from collections import Counter

import pytest

from repro.campaign import CampaignSpec, PointSpec, ResultStore, run_campaign
from repro.campaign.plan import PointTask, plan_campaign, task_id_for
from repro.campaign.shard import StoreIndex
from repro.campaign.store import DONE, cache_key, record_checksum
from repro.suite.cases import case_names

#: Backends a seeded grid draws from; the sequential baseline backend is
#: among them, so some grids hold measures whose point is a baseline's.
_BACKENDS = ("GCC-SEQ", "GCC-TBB", "GCC-GNU", "GCC-HPX", "ICC-TBB", "NVC-OMP")

#: A literal fingerprint, so the pinned keys do not move with the model.
_FP = "pin-fingerprint"

#: Digest of each seeded grid's ``(task_id, kind, baseline_id)`` sequence,
#: captured from the planner before it encoded each point once.
_PLAN_DIGESTS = {
    1: "3caa964c795c51e1",
    2: "3666219bc6f752bf",
    3: "52c02ce806c3ffc7",
    4: "52ae9ad8a0c643d2",
    5: "fe01bebd0f4443f6",
}


def _grid(seed: int) -> CampaignSpec:
    """A small seeded grid: pruned cells, exclusions, allocators, and
    thread counts that resolve to the same point on the sequential
    backend."""
    rng = random.Random(seed)
    return CampaignSpec(
        name=f"pin-{seed}",
        machines=tuple(rng.sample(("A", "B", "C"), 2)),
        backends=tuple(rng.sample(_BACKENDS, 3)),
        cases=tuple(rng.sample(tuple(case_names()), 4)),
        size_exps=tuple(sorted(rng.sample(range(8, 14), 2))),
        threads=(None, *sorted(rng.sample((1, 2, 4, 8, 128), 2))),
        allocators=(None, rng.choice(("first-touch", "interleaved"))),
        exclude=(("B", rng.choice(_BACKENDS)),),
    )


def _digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def _reference_key(point: PointSpec, fingerprint: str) -> str:
    """The cache key spelled out: sha256 of the sorted compact JSON."""
    payload = json.dumps({"point": point.to_dict(), "model": fingerprint},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


# -- identities ---------------------------------------------------------


@pytest.mark.parametrize("seed", sorted(_PLAN_DIGESTS))
def test_every_task_keeps_its_id_and_cache_key(seed):
    plan = plan_campaign(_grid(seed))
    store = ResultStore(None, fingerprint=_FP)
    for task in plan.tasks:
        assert task.canonical == task.point.canonical()
        assert task.task_id == task_id_for(task.point)
        assert store.key_of(task.canonical) == _reference_key(task.point, _FP)
        assert store.key_for(task.point) == cache_key(task.point, _FP)
    sequence = [[t.task_id, t.kind, t.baseline_id] for t in plan.tasks]
    assert _digest(sequence) == _PLAN_DIGESTS[seed]


def test_grids_cover_shared_and_duplicate_baseline_points():
    # the pins are only as strong as the grids: some share a baseline
    # id between a baseline and a measure of the sequential backend
    plans = [plan_campaign(_grid(seed)) for seed in _PLAN_DIGESTS]
    assert any(len({t.task_id for t in p.tasks}) < len(p.tasks) for p in plans)
    assert any(p.pruned for p in plans)


def test_one_points_key_under_a_literal_fingerprint():
    point = PointSpec(machine="A", backend="GCC-TBB", case="reduce",
                      size_exp=20, threads=8)
    expected = "63e6fe132f337d3d64c9369fb5aa80d083b9714bbede85e982f4a7480c1a8aa1"
    assert ResultStore(None, fingerprint=_FP).key_of(point.canonical()) == expected
    assert cache_key(point, _FP) == expected


def test_a_task_built_without_its_encoding_derives_it():
    point = PointSpec(machine="A", backend="GCC-TBB", case="reduce",
                      size_exp=12, threads=4)
    bare = PointTask(task_id="t", point=point, kind="measure")
    assert bare.canonical == point.canonical()
    # the encoding is carried, not compared or shown
    assert bare == PointTask(task_id="t", point=point, kind="measure",
                             canonical=point.canonical())
    assert "canonical" not in repr(bare)


def test_journal_rows_keep_their_keys(tmp_path):
    spec = _grid(1)
    store = ResultStore(tmp_path / "cache", fingerprint=_FP)
    run_campaign(spec, campaign_dir=tmp_path / "run", store=store)
    rows = [json.loads(line) for line in
            (tmp_path / "run" / "journal.jsonl").read_text().splitlines()]
    assert len(rows) == len(plan_campaign(spec).tasks)
    assert _digest([row["key"] for row in rows]) == "1a1a1f0062bb90a4"


# -- the batch read -------------------------------------------------------


def _points(count: int) -> list[PointSpec]:
    return [PointSpec(machine="A", backend="GCC-TBB", case="reduce",
                      size_exp=10 + i, threads=4) for i in range(count)]


def _fill(store: ResultStore, points, seconds=None) -> list[str]:
    """One ``put_many`` (one pack on disk) of done results."""
    return store.put_many([
        (store.key_for(p), p,
         {"status": DONE, "error": None,
          "seconds": float(i + 1) if seconds is None else seconds}, None)
        for i, p in enumerate(points)])


def _read(store: ResultStore, points) -> list[float | None]:
    results = store.results_for(
        (f"t{i}", p, store.key_for(p)) for i, p in enumerate(points))
    for i, (point, result) in enumerate(zip(points, results)):
        if result is not None:
            assert (result.task_id, result.point, result.cached) == \
                (f"t{i}", point, True)
    return [None if r is None else r.seconds for r in results]


def test_one_corrupt_record_is_quarantined_and_its_neighbours_served(tmp_path):
    store = ResultStore(tmp_path / "cache")
    points = _points(3)
    keys = _fill(store, points)
    assert len({store.locate(k).path for k in keys}) == 1  # one pack
    store.corrupt(keys[1], at=0.5)

    assert _read(store, points) == [1.0, None, 3.0]
    assert (store.hits, store.misses, store.quarantined) == (2, 1, 1)
    assert store.locate(keys[1]) is None  # tombstoned
    assert (tmp_path / "cache" / "quarantine" / f"{keys[1]}.json").exists()
    assert _read(store, points) == [1.0, None, 3.0]
    assert store.quarantined == 1  # nothing left to quarantine


def test_a_superseding_put_by_another_handle_is_served(tmp_path):
    reader = ResultStore(tmp_path / "cache")
    points = _points(2)
    _fill(reader, points)
    assert _read(reader, points) == [1.0, 2.0]  # locators now cached
    _fill(ResultStore(tmp_path / "cache"), points[:1], seconds=9.0)
    assert _read(reader, points) == [9.0, 2.0]
    assert reader.quarantined == 0


def test_an_all_miss_batch_polls_each_shard_once(tmp_path, monkeypatch):
    _fill(ResultStore(tmp_path / "cache"), _points(8))
    store = ResultStore(tmp_path / "cache")
    store.index = StoreIndex(tmp_path / "cache")  # a fresh handle's caches
    missing = [PointSpec(machine="B", backend="GCC-GNU", case="sort",
                         size_exp=10, threads=t) for t in range(1, 301)]
    keys = [store.key_for(p) for p in missing]
    shards = {key[:2] for key in keys}
    assert len(shards) < len(keys)  # several keys share a shard
    stats: list[str] = []
    real_stat = os.stat

    def spy_stat(path, *args, **kwargs):
        stats.append(str(path))
        return real_stat(path, *args, **kwargs)

    monkeypatch.setattr(os, "stat", spy_stat)
    found = store.results_for(
        (f"t{i}", p, key) for i, (p, key) in enumerate(zip(missing, keys)))
    assert found == [None] * len(keys)
    assert len(stats) <= 2 * len(shards)
    assert max(Counter(stats).values()) == 1


def test_a_stale_locator_to_a_bad_span_reads_the_live_row(tmp_path):
    # a handle with an index of its own (as in another process) still
    # caches the locator another handle superseded; when that span goes
    # bad, the read re-polls the shard and serves the live record
    # instead of quarantining it
    reader = ResultStore(tmp_path / "cache")
    reader.index = StoreIndex(tmp_path / "cache")
    points = _points(2)
    keys = _fill(reader, points)
    assert _read(reader, points) == [1.0, 2.0]
    writer = ResultStore(tmp_path / "cache")
    stale = writer.locate(keys[0])
    _fill(writer, points[:1], seconds=9.0)
    assert writer.locate(keys[0]) != stale
    with open(stale.path, "r+b") as fh:  # the superseded line goes bad
        fh.seek(stale.offset)
        fh.write(b"#")

    assert _read(reader, points) == [9.0, 2.0]
    assert reader.quarantined == 0


def test_a_deleted_pack_reads_as_misses(tmp_path):
    store = ResultStore(tmp_path / "cache")
    points = _points(2)
    keys = _fill(store, points)
    store.locate(keys[0]).path.unlink()

    assert _read(store, points) == [None, None]
    assert (store.hits, store.misses, store.quarantined) == (0, 2, 0)
    assert not (tmp_path / "cache" / "quarantine").exists()


def test_a_loose_legacy_object_is_served(tmp_path):
    store = ResultStore(tmp_path / "cache")
    points = _points(2)
    _fill(store, points[1:])
    key = store.key_for(points[0])
    record = {"key": key, "fingerprint": store.fingerprint,
              "point": points[0].to_dict(),
              "result": {"status": DONE, "seconds": 7.5, "error": None}}
    record["checksum"] = record_checksum(record)
    loose = store.root / "objects" / key[:2] / f"{key}.json"
    loose.parent.mkdir(parents=True, exist_ok=True)
    loose.write_bytes(json.dumps(record, sort_keys=True).encode())
    store.index.record_puts([{"key": key, "path": f"objects/{key[:2]}/{key}.json",
                              "checksum": record["checksum"]}])
    assert store.locate(key).length is None

    assert _read(store, points) == [7.5, 1.0]
    assert (store.hits, store.misses) == (2, 0)


def test_memory_and_disk_stores_read_alike(tmp_path):
    points = _points(4)
    outcomes = []
    for store in (ResultStore(None), ResultStore(tmp_path / "cache")):
        keys = _fill(store, points[:3])
        store.corrupt(keys[2], at=0.5)
        first = _read(store, points)
        second = _read(store, points)
        outcomes.append((first, second, store.hits, store.misses,
                         store.quarantined))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0] == ([1.0, 2.0, None, None], [1.0, 2.0, None, None],
                           4, 4, 1)


def test_result_for_is_the_one_item_batch(tmp_path):
    store = ResultStore(tmp_path / "cache")
    points = _points(2)
    _fill(store, points[:1])
    assert store.result_for("tid", points[0]).seconds == 1.0
    assert store.result_for("tid", points[1]) is None
    assert (store.hits, store.misses) == (1, 1)


# -- the executor ---------------------------------------------------------


def _small_grid(name: str) -> CampaignSpec:
    """No sequential backend and distinct thread counts: every point the
    planner meets becomes a task (GCC-GNU prunes inclusive_scan)."""
    return CampaignSpec(
        name=name, machines=("A",), backends=("GCC-TBB", "GCC-GNU"),
        cases=("reduce", "inclusive_scan", "sort"), size_exps=(10, 12),
        threads=(2, 4),
    )


def test_one_encoding_per_task_and_one_batch_read_per_wave(tmp_path, monkeypatch):
    encodings: list[PointSpec] = []
    reads: list[int] = []
    real_canonical = PointSpec.canonical
    real_read = ResultStore.results_for

    def spy_canonical(self):
        encodings.append(self)
        return real_canonical(self)

    def spy_read(self, items):
        items = list(items)
        reads.append(len(items))
        return real_read(self, items)

    monkeypatch.setattr(PointSpec, "canonical", spy_canonical)
    monkeypatch.setattr(ResultStore, "results_for", spy_read)
    spec = _small_grid("encode-once")
    plan = plan_campaign(spec)
    assert plan.pruned and len(list(plan.waves())) == 2
    store = ResultStore(tmp_path / "cache")
    for run, hits in (("cold", 0), ("warm", len(plan.runnable))):
        encodings.clear()
        reads.clear()
        outcome = run_campaign(spec, campaign_dir=tmp_path / run, store=store)
        assert len(encodings) == len(plan.tasks), run
        assert reads == [len(wave) for wave in plan.waves()], run
        assert outcome.stats.cache_hits == hits


def test_a_warm_rerun_opens_each_pack_once_per_wave(tmp_path, monkeypatch):
    spec = _small_grid("open-once")
    store = ResultStore(tmp_path / "cache")
    run_campaign(spec, campaign_dir=tmp_path / "cold", store=store)
    packs = str(tmp_path / "cache" / "objects" / "packs")

    opened: list[Counter] = []
    real_open = os.open
    real_read = ResultStore.results_for

    def spy_open(path, *args, **kwargs):
        if opened and str(path).startswith(packs):
            opened[-1].update([str(path)])
        return real_open(path, *args, **kwargs)

    def spy_read(self, items):
        opened.append(Counter())
        return real_read(self, items)

    monkeypatch.setattr(os, "open", spy_open)
    monkeypatch.setattr(ResultStore, "results_for", spy_read)
    warm = run_campaign(spec, campaign_dir=tmp_path / "warm",
                        store=ResultStore(tmp_path / "cache"))

    assert warm.stats.cache_hits == len(warm.plan.runnable) > len(opened)
    assert len(opened) == len(list(warm.plan.waves()))
    for wave in opened:
        assert wave and max(wave.values()) == 1
