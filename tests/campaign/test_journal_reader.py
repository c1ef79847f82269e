"""JournalReader: offset-resumable reads stay O(new rows), not O(journal).

The service's status endpoint and event stream poll journals once per
client request; re-reading the whole file each time would make polling
cost quadratic in campaign size. These tests pin the reader's contract:
each poll reads only the bytes appended since the last one, an
unterminated tail fragment is left unconsumed until its writer finishes
the line, and a healed torn line is skipped exactly once.
"""

from __future__ import annotations

from pathlib import Path

from repro.campaign.store import DONE, FAILED, Journal, JournalReader


def _fill(journal: Journal, n: int, prefix: str = "task") -> None:
    for i in range(n):
        journal.append({"task_id": f"{prefix}-{i:05d}", "status": DONE,
                        "seconds": 1.0 + i})


def test_poll_returns_entries_in_append_order(tmp_path: Path):
    journal = Journal(tmp_path / "journal.jsonl")
    _fill(journal, 10)
    reader = JournalReader(journal.path)
    entries = reader.poll()
    assert [e["task_id"] for e in entries] == [f"task-{i:05d}" for i in range(10)]
    assert reader.poll() == []  # nothing new


def test_missing_file_polls_empty(tmp_path: Path):
    reader = JournalReader(tmp_path / "absent.jsonl")
    assert reader.poll() == []
    assert reader.offset == 0


def test_repeated_polls_are_o_new_bytes_not_o_journal(tmp_path: Path):
    # the regression bar: after a large journal is consumed once, every
    # further poll costs only the bytes appended since -- 200 polls over
    # a 2000-row journal must not re-read ~200x the file
    journal = Journal(tmp_path / "journal.jsonl")
    _fill(journal, 2000)
    size = journal.path.stat().st_size
    reader = JournalReader(journal.path)
    assert len(reader.poll()) == 2000
    assert reader.bytes_read == size
    baseline = reader.bytes_read
    appended = 0
    for i in range(200):
        journal.append({"task_id": f"late-{i:03d}", "status": DONE,
                        "seconds": 1.0})
        assert len(reader.poll()) == 1
    appended = journal.path.stat().st_size - size
    incremental = reader.bytes_read - baseline
    assert incremental == appended  # not a byte more than what appended
    assert incremental < size  # and far from re-reading the whole journal


def test_offset_cursor_survives_reader_recreation(tmp_path: Path):
    # the /events endpoint builds a fresh reader per request from the
    # client's offset; the cursor must be transplantable
    journal = Journal(tmp_path / "journal.jsonl")
    _fill(journal, 5)
    first = JournalReader(journal.path)
    assert len(first.poll()) == 5
    _fill(journal, 3, prefix="more")
    second = JournalReader(journal.path, offset=first.offset)
    entries = second.poll()
    assert [e["task_id"] for e in entries] == [f"more-{i:05d}" for i in range(3)]


def test_unterminated_fragment_is_not_consumed(tmp_path: Path):
    journal = Journal(tmp_path / "journal.jsonl")
    _fill(journal, 2)
    with open(journal.path, "ab") as fh:
        fh.write(b'{"task_id": "partial", "status": "do')  # mid-write
    reader = JournalReader(journal.path)
    assert len(reader.poll()) == 2
    offset_before = reader.offset
    assert reader.poll() == []  # fragment stays pending, offset parked
    assert reader.offset == offset_before
    # the writer finishes the line: the entry appears exactly once
    with open(journal.path, "ab") as fh:
        fh.write(b'ne", "seconds": 1.0}\n')
    entries = reader.poll()
    assert [e["task_id"] for e in entries] == ["partial"]
    assert reader.torn == 0


def test_healed_torn_line_is_skipped_once_and_counted(tmp_path: Path):
    journal = Journal(tmp_path / "journal.jsonl")
    _fill(journal, 1)
    journal.tear_tail(0.5)  # damage the only line
    reader = JournalReader(journal.path)
    assert reader.poll() == []  # torn fragment has no newline yet
    # the next locked append heals the tail with a newline first
    journal.append({"task_id": "after", "status": FAILED, "seconds": None,
                    "error": "boom"})
    entries = reader.poll()
    assert [e["task_id"] for e in entries] == ["after"]
    assert reader.torn == 1  # the healed fragment was counted, once
    assert reader.poll() == []


def test_reader_agrees_with_full_journal_replay(tmp_path: Path):
    journal = Journal(tmp_path / "journal.jsonl")
    _fill(journal, 50)
    reader = JournalReader(journal.path)
    streamed = reader.poll()
    assert streamed == journal.entries()

    # The same fixture through every reader: a blank line, JSON lines
    # that are not objects (skipped by all), and a torn line that the
    # next append healed (counted torn by all).
    with open(journal.path, "ab") as fh:
        fh.write(b'\n[1, 2]\n"loose"\n{"task_id": "torn", "sta')
    _fill(journal, 1, prefix="healed")
    streamed += reader.poll()
    assert streamed == journal.entries()
    assert streamed[-1]["task_id"] == "healed-00000"
    assert reader.torn == journal.torn_lines() == 1

    # An unterminated final line that parses: the replay keeps it (its
    # writer may yet add the newline), the reader waits for it.
    with open(journal.path, "ab") as fh:
        fh.write(b'{"task_id": "pending", "status": "done", "seconds": 1.0}')
    assert reader.poll() == []
    assert journal.entries()[-1]["task_id"] == "pending"
    _fill(journal, 1, prefix="after")  # the heal completes the line
    streamed += reader.poll()
    assert streamed == journal.entries()

    # One that does not parse: torn for the replay at once, for the
    # reader once the next append has healed it.
    with open(journal.path, "ab") as fh:
        fh.write(b'{"task_id": "cut')
    assert reader.poll() == [] and reader.torn == 1
    assert journal.torn_lines() == 2
    _fill(journal, 1, prefix="last")
    streamed += reader.poll()
    assert streamed == journal.entries()
    assert reader.torn == journal.torn_lines() == 2

    # The log shrinks under the live reader: it re-syncs, the rewritten
    # entry reaches it whole, and a fresh reader still agrees with the
    # replay.
    journal.tear_tail(0.9)
    assert reader.poll() == [] and reader.resyncs == 1
    _fill(journal, 1, prefix="last")
    assert reader.poll() == journal.entries()[-1:]
    fresh = JournalReader(journal.path)
    assert fresh.poll() == journal.entries()
    assert fresh.torn == journal.torn_lines() == 3


def test_tear_below_consumed_offset_resyncs_instead_of_losing_entries(tmp_path: Path):
    # Regression: a tear that cut into bytes the reader had already
    # consumed left ``offset`` parked past EOF. The old reader then read
    # the re-delivered entry from mid-line, discarded it as garbage and
    # lost it for good; the fix re-syncs the offset to the shrunken end.
    journal = Journal(tmp_path / "journal.jsonl")
    _fill(journal, 2)
    reader = JournalReader(journal.path)
    assert len(reader.poll()) == 2  # fully consumed
    journal.tear_tail(0.9)  # crash rewind: cuts below the consumed offset
    assert reader.poll() == []  # nothing new, but the cursor re-synced
    assert reader.resyncs == 1
    # the writer re-runs the lost task and journals it again
    journal.append({"task_id": "task-00001", "status": DONE, "seconds": 2.0})
    entries = reader.poll()
    assert [e["task_id"] for e in entries] == ["task-00001"]
    assert entries[0]["seconds"] == 2.0  # the rewrite, delivered whole
    # the re-synced cursor sits past the torn stub, so nothing re-parses
    assert reader.torn == 0


def test_resync_never_fires_without_a_tear(tmp_path: Path):
    journal = Journal(tmp_path / "journal.jsonl")
    _fill(journal, 100)
    reader = JournalReader(journal.path)
    reader.poll()
    _fill(journal, 100, prefix="more")
    reader.poll()
    assert reader.resyncs == 0


def test_interleaved_appends_and_tears_property(tmp_path: Path):
    # Property test: under any seeded interleaving of appends, tears and
    # polls, (a) every delivered entry is byte-identical to one the
    # writer appended -- never a spliced hybrid -- and (b) every entry
    # still standing in the journal at the end was delivered to the
    # poller. (b) is exactly what the resync fix buys: the old reader
    # permanently lost the first entry re-written after a deep tear.
    import random

    for seed in range(6):
        rng = random.Random(seed)
        root = tmp_path / f"seed-{seed}"
        root.mkdir()
        journal = Journal(root / "journal.jsonl")
        reader = JournalReader(journal.path)
        appended: list[dict] = []
        delivered: list[dict] = []
        serial = 0
        for _ in range(120):
            op = rng.random()
            if op < 0.55:
                entry = {"task_id": f"t-{seed}-{serial:04d}", "status": DONE,
                         "seconds": float(rng.randrange(1, 100))}
                serial += 1
                journal.append(entry)
                appended.append(entry)
            else:
                journal.tear_tail(rng.uniform(-0.5, 1.5))  # clamps in range
            delivered.extend(reader.poll())  # the service polls constantly
        delivered.extend(reader.poll())

        # (a) no spliced hybrids: everything delivered was appended verbatim
        appended_ids = {e["task_id"]: e for e in appended}
        for entry in delivered:
            assert appended_ids[entry["task_id"]] == entry
        # (b) whatever survives in the journal reached the poller
        delivered_ids = {e["task_id"] for e in delivered}
        for entry in journal.entries():
            assert entry["task_id"] in delivered_ids
        # last-wins folding stays well-defined over any re-deliveries
        assert set(journal.completed_ids()) <= delivered_ids
