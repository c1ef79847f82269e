"""Property tests: journal tear/replay and store corruption invariants.

Hypothesis drives the store's two durability surfaces with randomized
damage and checks the safety properties the executor relies on:

* a torn journal tail never loses *earlier* entries, and replay matches
  a pure-logic fold of the intact prefix;
* arbitrarily interleaved failed/done entries fold to the same terminal
  set as the reference semantics (failed pops, done/na pins);
* a single flipped byte in a stored record is never served as a
  different value -- the read is either a miss (quarantined) or the
  original record, bit-identical;
* concurrent ``put_many`` writers on one store each land their batch
  whole, as one transaction.

Stores touch real files, so tests open their own TemporaryDirectory per
example instead of using pytest's function-scoped ``tmp_path`` (which
Hypothesis would reuse across examples).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.campaign.spec import PointSpec
from repro.campaign.store import DONE, FAILED, NA, Journal, ResultStore
from tests.campaign.test_store import COLUMNS, plant, stored


task_ids = st.sampled_from([f"task-{i}" for i in range(6)])
entries = st.lists(
    st.tuples(task_ids, st.sampled_from([DONE, FAILED, NA])),
    min_size=1, max_size=12,
)


def fold_terminal(events: list[tuple[str, str]]) -> set[str]:
    """Reference semantics of Journal.completed_ids (failed pops the id)."""
    done: set[str] = set()
    for tid, status in events:
        if status == FAILED:
            done.discard(tid)
        else:
            done.add(tid)
    return done


def append_all(journal: Journal, events: list[tuple[str, str]]) -> None:
    for tid, status in events:
        seconds = 1.0 if status == DONE else None
        journal.append({"task_id": tid, "status": status, "seconds": seconds})


@settings(max_examples=40, deadline=None)
@given(events=entries, at=st.floats(min_value=0.0, max_value=0.999))
def test_torn_tail_loses_at_most_the_last_entry(events, at):
    with tempfile.TemporaryDirectory() as tmp:
        journal = Journal(Path(tmp) / "journal.jsonl")
        append_all(journal, events)
        cut = journal.tear_tail(at)
        assert cut >= 1  # a tear always removes something
        assert journal.torn_lines() <= 1  # only the tail can be damaged
        # a 1-byte cut removes only the trailing newline: the line's
        # content was fully written, so the entry is still durable
        expected = events if cut == 1 else events[:-1]
        assert set(journal.completed_ids()) == fold_terminal(expected)


@settings(max_examples=40, deadline=None)
@given(events=entries)
def test_interleaved_entries_replay_to_the_reference_fold(events):
    with tempfile.TemporaryDirectory() as tmp:
        journal = Journal(Path(tmp) / "journal.jsonl")
        append_all(journal, events)
        assert len(journal.entries()) == len(events)
        assert set(journal.completed_ids()) == fold_terminal(events)


@settings(max_examples=40, deadline=None)
@given(events=entries, at=st.floats(min_value=0.0, max_value=0.999))
def test_appending_after_a_tear_recovers(events, at):
    with tempfile.TemporaryDirectory() as tmp:
        journal = Journal(Path(tmp) / "journal.jsonl")
        append_all(journal, events)
        journal.tear_tail(at)
        tid, status = events[-1]
        journal.append({"task_id": tid, "status": status,
                        "seconds": 1.0 if status == DONE else None})
        # the re-append supersedes the torn line; nothing earlier was lost
        assert set(journal.completed_ids()) == fold_terminal(events)


POINT = PointSpec(machine="A", backend="GCC-TBB", case="reduce",
                  size_exp=12, threads=32)
PAYLOAD = {"status": DONE, "seconds": 1.25, "error": None}


@settings(max_examples=60, deadline=None)
@given(pos=st.floats(min_value=0.0, max_value=0.999),
       mask=st.integers(min_value=1, max_value=255))
def test_flipped_byte_is_never_served_as_a_different_value(pos, mask):
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(Path(tmp) / "cache")
        key = store.put(POINT, PAYLOAD)
        row = stored(store, key)
        data = bytearray(b"".join(row[column] for column in COLUMNS))
        data[min(int(pos * len(data)), len(data) - 1)] ^= mask
        flipped, at = {}, 0
        for column in COLUMNS:  # in place: the same lengths
            flipped[column] = bytes(data[at:at + len(row[column])])
            at += len(row[column])
        plant(store, key, **flipped)

        record = store.load_key(store.key_for(POINT))
        if record is None:
            # detected: unparseable, no checksum or a mismatch,
            # quarantined or schema-drifted into a miss -- but never an
            # exception
            assert store.quarantined <= 1
        else:
            # served: then the record must be bit-identical
            assert record["result"] == PAYLOAD
            assert record["point"] == POINT.to_dict()


@settings(max_examples=30, deadline=None)
@given(at=st.floats(min_value=0.0, max_value=0.999))
def test_corrupt_hook_is_always_detected_or_harmless(at):
    # the store's own fault hook flips exactly one low bit at `at`
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(Path(tmp) / "cache")
        store.put(POINT, PAYLOAD)
        store.corrupt(store.key_for(POINT), at=at)
        record = store.load_key(store.key_for(POINT))
        if record is not None:
            assert record["result"] == PAYLOAD


@settings(max_examples=30, deadline=None)
@given(at=st.floats(min_value=0.0, max_value=0.999))
def test_scan_flags_what_reads_would_quarantine(at):
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(Path(tmp) / "cache")
        store.put(POINT, PAYLOAD)
        store.corrupt(store.key_for(POINT), at=at)
        scan = store.scan()
        assert scan.objects == 1
        reader = ResultStore(Path(tmp) / "cache")
        served = reader.load_key(reader.key_for(POINT))
        if scan.errors:
            assert served is None  # what scan flags, reads refuse
        elif served is not None:
            assert served["result"] == PAYLOAD


# -- concurrent writers ------------------------------------------------------
#
# The service runs many campaigns against ONE journal-per-campaign but one
# SHARED store, and restarts can briefly overlap an old and a new daemon on
# the same directory. The append path must therefore be safe across
# *processes*: each append's batch lands as one contiguous run of intact
# lines no matter how many writers race (flock + single O_APPEND write) --
# the executor commits a whole wave's rows as one such batch -- and each
# put_many writes a pack of its own before its index rows land.

def _append_batch(args):
    """Worker: append one process's batch to the shared journal, in one call."""
    path, batch = args
    Journal(Path(path)).append(*(
        {"task_id": tid, "status": status,
         "seconds": 1.0 if status == DONE else None}
        for tid, status in batch))
    return len(batch)


def assert_batches_contiguous(entries: list[dict], batches) -> None:
    """Each process's batch (ids ``p<proc>-...``) is one unbroken, ordered run."""
    ids = [entry["task_id"] for entry in entries]
    for proc, batch in enumerate(batches):
        at = [i for i, tid in enumerate(ids) if tid.startswith(f"p{proc}-")]
        assert at == list(range(at[0], at[0] + len(batch))), f"batch {proc} split"
        assert [ids[i] for i in at] == [tid for tid, _ in batch]


def _run_appenders(path: Path, batches) -> None:
    """Run one appender process per batch, all racing on ``path``."""
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=len(batches)) as pool:
        counts = pool.map(_append_batch,
                          [(str(path), batch) for batch in batches])
    assert counts == [len(batch) for batch in batches]


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_eight_racing_appenders_lose_and_tear_nothing(data):
    # 8 processes, each with its own disjoint task ids so the expected
    # terminal fold is order-independent across interleavings
    batches = []
    for proc in range(8):
        ids = st.sampled_from([f"p{proc}-t{i}" for i in range(3)])
        batches.append(data.draw(st.lists(
            st.tuples(ids, st.sampled_from([DONE, NA])),
            min_size=1, max_size=4)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "journal.jsonl"
        _run_appenders(path, batches)
        journal = Journal(path)
        entries = journal.entries()
        # every appended line survived, fully intact, batch by batch
        assert len(entries) == sum(len(b) for b in batches)
        assert journal.torn_lines() == 0
        assert_batches_contiguous(entries, batches)
        # and the fold matches a single-writer reference journal
        reference = Journal(Path(tmp) / "reference.jsonl")
        for batch in batches:
            append_all(reference, batch)
        assert journal.completed_ids() == reference.completed_ids()


def test_concurrent_appenders_match_single_writer_bit_for_bit():
    # deterministic (non-hypothesis) witness for the acceptance bar:
    # 8 simultaneous appenders, query output identical to a single writer
    batches = [[(f"p{proc}-t{i}", DONE) for i in range(8)]
               for proc in range(8)]
    with tempfile.TemporaryDirectory() as tmp:
        racing = Path(tmp) / "racing.jsonl"
        _run_appenders(racing, batches)
        single = Journal(Path(tmp) / "single.jsonl")
        for batch in batches:
            append_all(single, batch)
        racy = Journal(racing)
        assert racy.torn_lines() == 0
        assert_batches_contiguous(racy.entries(), batches)
        assert racy.completed_ids() == single.completed_ids()
        # same multiset of lines, byte-for-byte, just maybe reordered
        racing_lines = sorted(racing.read_bytes().splitlines())
        single_lines = sorted(single.path.read_bytes().splitlines())
        assert racing_lines == single_lines


def _put_batch(args):
    """Worker: land one process's points on the shared store, in one call."""
    root, proc, threads = args
    store = ResultStore(Path(root))
    return store.put_many([
        (store.key_for(_racer(t)), _racer(t),
         {"status": DONE, "seconds": float(proc * 1000 + t), "error": None},
         None)
        for t in threads])


def _racer(threads: int) -> PointSpec:
    return PointSpec(machine="A", backend="GCC-TBB", case="reduce",
                     size_exp=12, threads=threads)


@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_eight_racing_put_many_writers_keep_their_packs_and_rows_whole(data):
    # 8 processes, disjoint points, all creating one fresh store root;
    # each batch is one transaction, so each lands whole
    batches = [data.draw(st.lists(
        st.integers(min_value=100 * proc + 1, max_value=100 * proc + 60),
        min_size=1, max_size=12, unique=True)) for proc in range(8)]
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "cache"
        with ctx.Pool(processes=8) as pool:
            keys = pool.map(_put_batch, [(str(root), proc, batch)
                                         for proc, batch in enumerate(batches)])
        owner = {key: proc for proc, batch in enumerate(keys) for key in batch}
        store = ResultStore(root)
        # every key reads back its own writer's value
        for proc, batch in enumerate(batches):
            for t in batch:
                record = store.load_key(store.key_for(_racer(t)))
                assert record["result"]["seconds"] == float(proc * 1000 + t)
        # every row of every batch, and no other, landed once
        assert store.count_objects() == len(owner)
        scan = store.scan()
        assert (scan.ok, scan.errors) == (len(owner), 0)
        report = store.compact()
        assert (report.rows_kept, report.superseded) == (len(owner), 0)


def test_threads_sharing_one_handle_always_read_their_own_writes():
    # The service's runner threads may share a store handle, and every
    # handle of a process shares one connection under a lock. An update
    # lost or read around that lock would read a freshly written key as
    # a miss on that handle.
    import sys
    import threading

    errors: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(Path(tmp) / "cache")

        def writer(proc: int) -> None:
            mine: list[int] = []
            for batch in range(12):
                threads = [100 * proc + 4 * batch + i + 1 for i in range(4)]
                store.put_many([
                    (store.key_for(_racer(t)), _racer(t),
                     {"status": DONE, "error": None,
                      "seconds": float(proc * 1000 + t)}, None)
                    for t in threads])
                mine += threads
                for t in mine:
                    result = store.result_for("t", _racer(t))
                    if result is None or result.seconds != proc * 1000 + t:
                        errors.append(f"writer {proc}: {t} read {result}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=writer, args=(proc,))
                       for proc in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        assert store.quarantined == 0 and store.count_objects() == 8 * 48


def _run_same_campaign(args):
    """Worker: run the shared campaign spec against the shared directory."""
    path, = args
    from repro.campaign.executor import run_campaign
    from repro.campaign.spec import CampaignSpec

    spec = CampaignSpec(name="racers", machines=["A"], backends=["GCC-TBB"],
                        cases=["reduce", "transform"], size_exps=[8],
                        threads=[2])
    outcome = run_campaign(spec, campaign_dir=Path(path), resume=True)
    return outcome.stats.failed


def test_concurrent_same_dir_campaigns_converge_bit_identically():
    # two processes racing run_campaign on ONE campaign_dir (the service's
    # shared-store shape); both finish, and the final directory queries
    # identically to a fresh single run
    import multiprocessing

    from repro.campaign.executor import load_campaign, run_campaign
    from repro.campaign.spec import CampaignSpec

    ctx = multiprocessing.get_context("fork")
    with tempfile.TemporaryDirectory() as tmp:
        shared = Path(tmp) / "shared"
        with ctx.Pool(processes=4) as pool:
            failed = pool.map(_run_same_campaign, [(str(shared),)] * 4)
        assert failed == [0, 0, 0, 0]
        outcome = load_campaign(shared)
        spec = CampaignSpec(name="racers", machines=["A"],
                            backends=["GCC-TBB"],
                            cases=["reduce", "transform"], size_exps=[8],
                            threads=[2])
        solo = run_campaign(spec, campaign_dir=Path(tmp) / "solo")
        assert set(outcome.results) == set(solo.results)
        for tid, result in solo.results.items():
            assert outcome.results[tid].seconds == result.seconds
            assert outcome.results[tid].status == result.status
