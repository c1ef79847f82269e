"""One store contract over both handle kinds.

``ResultStore(None)`` opens the same result table in an in-memory
database of its own, so every test here runs once on a memory store and
once on a disk store, through the same code. The only difference a
caller sees is that a memory store keeps no quarantine evidence.
"""

from __future__ import annotations

import pytest

from repro.campaign.executor import run_campaign
from repro.campaign.query import store_query
from repro.campaign.spec import CampaignSpec, PointSpec
from repro.campaign.store import DONE, NA, ResultStore, record_checksum

POINTS = [PointSpec(machine="A", backend="GCC-TBB", case=case,
                    size_exp=12, threads=threads)
          for case, threads in (("reduce", 2), ("reduce", 4), ("sort", 2))]

SPEC = CampaignSpec.from_dict({
    "name": "contract", "machines": ["A"], "backends": ["GCC-TBB"],
    "cases": ["reduce", "sort"], "size_exps": [10], "threads": [2, 4],
})


@pytest.fixture(params=["memory", "disk"])
def store(request, tmp_path, monkeypatch):
    """A fresh store of each kind, run in an empty working directory,
    so a memory store that wrote a file would show in it."""
    monkeypatch.chdir(tmp_path)
    return ResultStore(None if request.param == "memory" else tmp_path / "cache")


def _put(store, seconds=(1.0, 2.0, 3.0)) -> list[str]:
    return store.put_many(
        [(store.key_for(p), p, {"status": DONE, "seconds": s, "error": None},
          10.0 * s) for p, s in zip(POINTS, seconds)])


def test_put_then_results_for_and_load_key(store):
    keys = _put(store)
    assert keys == [store.key_for(p) for p in POINTS]
    assert store.writes == 3 and store.count_objects() == 3
    items = [(f"t{i}", p, k) for i, (p, k) in enumerate(zip(POINTS, keys))]
    other = PointSpec(machine="B", backend="GCC-TBB", case="reduce",
                      size_exp=12, threads=2)
    found = store.results_for(items + [("t9", other, store.key_for(other))])
    assert [r.seconds for r in found[:3]] == [1.0, 2.0, 3.0]
    assert all(r.cached and r.attempts == 0 for r in found[:3])
    assert found[3] is None
    assert (store.hits, store.misses) == (3, 1)
    record = store.load_key(keys[0])
    assert record["point"] == POINTS[0].to_dict()
    assert record["fingerprint"] == store.fingerprint
    assert record["checksum"] == record_checksum(record)
    assert store.contains(keys[0]) and not store.contains(store.key_for(other))
    assert store.load_key(store.key_for(other)) is None


def test_a_corrupted_row_is_quarantined_then_recomputed(store, tmp_path):
    cold = run_campaign(SPEC, store=store)
    assert cold.stats.executed > 0 and cold.stats.failed == 0
    task = next(t for t in cold.plan.runnable
                if cold.results[t.task_id].status == DONE)
    key = store.key_for(task.point)
    store.corrupt(key, at=0.5)
    assert store.count_objects() == cold.stats.executed  # still stored

    again = run_campaign(SPEC, store=store)
    assert again.stats.quarantined == 1 and again.stats.executed == 1
    for tid, result in cold.results.items():
        assert (again.results[tid].status, again.results[tid].seconds) == \
            (result.status, result.seconds)
    assert store.result_for("tid", task.point).seconds == \
        cold.results[task.task_id].seconds
    # only a disk store keeps the damaged row's bytes
    if store.root is None:
        assert list(tmp_path.iterdir()) == []
    else:
        assert [p.name for p in (store.root / "quarantine").iterdir()] == \
            [f"{key}.json"]


def test_scan_audits_and_quarantines(store):
    keys = _put(store)
    store.corrupt(keys[1], at=0.25)
    scan = store.scan()
    assert (scan.objects, scan.ok, scan.errors) == (3, 2, 1)
    assert scan.corrupt == [(keys[1], "checksum mismatch")]
    assert store.count_objects() == 3  # an audit alone pulls nothing
    scan = store.scan(quarantine=True)
    assert scan.quarantined == 1 and store.quarantined == 1
    assert store.count_objects() == 2
    assert store.scan().summary() == ("2 object(s): 2 ok, 0 schema-drifted, "
                                      "0 corrupt, 0 quarantined")


def test_compact_reports_superseded_and_quarantined_rows(store):
    keys = _put(store)
    _put(store, seconds=(1.0, 2.0, 4.0))  # three puts replace live rows
    store.quarantine(keys[0], "test")
    report = store.compact()
    assert (report.rows_kept, report.superseded,
            report.quarantined_dropped) == (2, 3, 1)
    again = store.compact()
    assert (again.rows_kept, again.superseded,
            again.quarantined_dropped) == (2, 0, 0)


def test_rows_and_count_objects(store):
    assert list(store.rows()) == [] and store.count_objects() == 0
    keys = _put(store)
    rows = list(store.rows())
    assert [key for key, *_ in rows] == sorted(keys)
    by_key = {key: (point, result, wall_ms) for key, point, result, wall_ms in rows}
    for key, point, seconds in zip(keys, POINTS, (1.0, 2.0, 3.0)):
        assert by_key[key] == (point.to_dict(), {"status": DONE,
                                                 "seconds": seconds,
                                                 "error": None},
                               10.0 * seconds)
    assert store.count_objects() == 3


def test_store_query_filters_either_store(store):
    keys = _put(store)
    na = PointSpec(machine="A", backend="GCC-SEQ", case="reduce",
                   size_exp=12, threads=1)
    store.put(na, {"status": NA, "seconds": None, "error": "n/a"})
    rows = store_query(store, machine="a", case="reduce", status=DONE)
    assert [row["key"] for row in rows] == sorted(keys[:2])
    assert {row["seconds"] for row in rows} == {1.0, 2.0}
    assert {row["wall_ms"] for row in rows} == {10.0, 20.0}
    assert [row["point"] for row in store_query(store, status=NA)] == \
        [na.to_dict()]
    assert len(store_query(store)) == 4
