"""The result table: last-wins puts, visibility across connections, the
compaction report."""

from __future__ import annotations

import sqlite3

import pytest

from repro.campaign.shard import SCHEMA_VERSION, CompactionReport, ShardIndex
from repro.campaign.spec import PointSpec
from repro.campaign.store import DONE, ResultStore
from repro.errors import CampaignError


def _put(key, seconds=1.0, wall_ms=None):
    """A row as ``put_many`` hands it to :meth:`ShardIndex.append`."""
    return (key, "fp", '{"p":"' + key + '"}',
            '{"error":null,"seconds":' + repr(seconds) + ',"status":"done"}',
            f"c-{key}-{seconds}", wall_ms)


def _seconds(table, key):
    row = table.get(key)
    return None if row is None else float(row[2].split(b'"seconds":')[1]
                                           .split(b",")[0])


@pytest.fixture
def table(tmp_path):
    table = ShardIndex(tmp_path / "cache.db")
    yield table
    table.close()


def test_append_lookup_last_wins_and_tombstones(table):
    table.append(_put("ab01", seconds=1.0))
    table.append(_put("ab02", seconds=2.0))
    table.append(_put("ab01", seconds=3.0))  # supersedes the first row
    assert _seconds(table, "ab01") == 3.0
    assert _seconds(table, "ab02") == 2.0
    assert table.count() == 2

    table.delete("ab02")  # a quarantine
    assert table.get("ab02") is None
    assert table.count() == 1


def test_cache_invalidates_on_cross_instance_writes(tmp_path):
    # Two connections, as two processes hold them: each commit is visible
    # to the other's next read.
    writer = ShardIndex(tmp_path / "cache.db")
    reader = ShardIndex(tmp_path / "cache.db")
    try:
        writer.append(_put("ab01"))
        assert reader.count() == 1
        writer.append(_put("ab02"))
        assert reader.count() == 2
        assert [row[0] for row in reader.rows()] == ["ab01", "ab02"]
        writer.delete("ab01")
        assert reader.fetch(["ab01", "ab02"]).keys() == {"ab02"}
    finally:
        writer.close()
        reader.close()


def test_torn_log_line_is_skipped_not_fatal(table):
    # A batch that fails part-way -- the shape a crash inside a commit
    # leaves -- is rolled back whole, and the next batch lands.
    table.append(_put("ab01"))
    with pytest.raises(sqlite3.ProgrammingError):
        table.append(_put("ab02"), ("ab03", "fp"))  # the second row is torn
    assert [row[0] for row in table.rows()] == ["ab01"]
    table.append(_put("ab03"))
    assert [row[0] for row in table.rows()] == ["ab01", "ab03"]
    assert table.compact().superseded == 0  # the torn batch counted no puts


def test_huge_integer_log_line_is_skipped_not_fatal(tmp_path):
    # An integer past json's 4,300-digit limit raises a plain ValueError;
    # a query reads such a text as empty, and the audit flags the row.
    store = ResultStore(tmp_path / "cache")
    point = PointSpec(machine="A", backend="GCC-TBB", case="reduce",
                      size_exp=12, threads=2)
    key = store.put(point, {"status": DONE, "seconds": 1.0, "error": None})
    conn = sqlite3.connect(tmp_path / "cache" / "cache.db")
    with conn:
        conn.execute("UPDATE results SET result = ? WHERE key = ?",
                     ('{"seconds":' + "9" * 5000 + "}", key))
    conn.close()
    assert [(k, result) for k, _point, result, _w in store.rows()] == [(key, {})]
    assert store.scan().errors == 1


def test_compact_folds_log_and_reports_drops(table):
    table.append(_put("ab01", seconds=1.0))
    table.append(_put("ab01", seconds=2.0))  # superseded
    table.append(_put("ab02"))
    table.delete("ab02")  # quarantined

    report = table.compact()
    assert (report.rows_kept, report.superseded,
            report.quarantined_dropped) == (1, 1, 1)
    assert _seconds(table, "ab01") == 2.0


def test_compact_is_idempotent_and_survives_reopen(tmp_path, table):
    table.append(_put("ab01"))
    table.append(_put("ab01"))
    assert table.compact().superseded == 1
    second = table.compact()  # nothing written since
    assert (second.rows_kept, second.superseded,
            second.quarantined_dropped) == (1, 0, 0)
    reopened = ShardIndex(tmp_path / "cache.db")
    try:
        assert reopened.get("ab01") is not None
        assert reopened.compact().superseded == 0
    finally:
        reopened.close()


def test_a_compaction_with_nothing_to_fold_leaves_the_snapshots_alone(tmp_path):
    # A compaction vacuums the file but leaves every row's bytes as they
    # were, and a handle open across it reads on.
    table = ShardIndex(tmp_path / "cache.db")
    live = ShardIndex(tmp_path / "cache.db")  # another process's
    try:
        table.append(_put("ab01"), _put("ab02"), _put("ff01", wall_ms=4.5))
        first = table.compact()
        assert (first.rows_kept, first.superseded) == (3, 0)
        before = table.rows()
        assert live.rows() == before
        again = table.compact()
        assert (again.rows_kept, again.superseded,
                again.quarantined_dropped) == (3, 0, 0)
        assert table.rows() == live.rows() == before
    finally:
        table.close()
        live.close()


def test_store_index_routes_counts_and_iterates_in_order(table):
    table.append(_put("ff01", wall_ms=4.5), _put("ab02", seconds=2.0),
                 _put("ab03"))
    assert table.count() == 3
    assert [row[0] for row in table.rows()] == ["ab02", "ab03", "ff01"]
    assert table.rows()[2][-1] == 4.5  # wall_ms rides along
    assert table.fetch(["ab03", "ab02", "zz"]).keys() == {"ab02", "ab03"}

    table.delete("ab02")
    report = table.compact()
    assert report.rows_kept == 2 and report.quarantined_dropped == 1
    assert [row[0] for row in table.rows()] == ["ab03", "ff01"]


def test_compaction_report_merge_and_summary():
    report = CompactionReport(rows_kept=5, superseded=1,
                              quarantined_dropped=2)
    assert report.summary() == ("5 row(s) kept, 1 superseded, "
                                "2 quarantined row(s) dropped")


def test_store_meta_roundtrip_and_torn_marker(tmp_path):
    # The schema version is the database's own user_version; a database
    # of another version, or a file that is not one, raises.
    path = tmp_path / "cache.db"
    ShardIndex(path).close()
    conn = sqlite3.connect(path)
    assert conn.execute("PRAGMA user_version").fetchone()[0] == SCHEMA_VERSION
    conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
    conn.close()
    with pytest.raises(CampaignError, match="schema version"):
        ShardIndex(path)
    torn = tmp_path / "torn" / "cache.db"
    torn.parent.mkdir()
    torn.write_bytes(b'{"layout": 2')
    with pytest.raises(CampaignError, match="not a result database"):
        ShardIndex(torn)


def test_locator_cache_folds_new_lines_and_rebuilds_after_compaction(tmp_path):
    writer = ShardIndex(tmp_path / "cache.db")
    reader = ShardIndex(tmp_path / "cache.db")
    try:
        writer.append(_put("ab01"), _put("ab02"))
        assert reader.fetch(["ab01", "ab02"]).keys() == {"ab01", "ab02"}
        writer.append(_put("ab03", seconds=5.0))
        writer.delete("ab01")
        assert reader.fetch(["ab01", "ab02", "ab03"]).keys() == \
            {"ab02", "ab03"}
        assert _seconds(reader, "ab03") == 5.0

        # another handle's compaction rewrites the file: the reader reads on
        writer.compact()
        writer.append(_put("ab05"))
        assert reader.fetch(["ab02", "ab03", "ab05"]).keys() == \
            {"ab02", "ab03", "ab05"}
        assert reader.count() == 3
    finally:
        writer.close()
        reader.close()


def test_locators_agree_with_full_rows_on_torn_and_loose_lines(table):
    # The batch read and the listing agree row for row, also on rows a
    # put replaced, a quarantine removed and a fault flipped.
    table.append(_put("ab01"), _put("ab02"), _put("ab03"))
    table.append(_put("ab02", seconds=7.0))
    table.delete("ab03")
    table.corrupt("ab01", 0.5)
    listed = {key: tuple(row[:4]) for key, *row in table.rows()}
    assert table.fetch(["ab01", "ab02", "ab03"]) == listed
    pristine = (_put("ab01")[2] + _put("ab01")[3]).encode()
    assert listed["ab01"][1] + listed["ab01"][2] != pristine  # flipped
    assert listed.keys() == {"ab01", "ab02"}
