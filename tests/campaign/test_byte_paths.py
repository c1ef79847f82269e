"""The store's fast read path against the full check it stands in for.

A batch read (:meth:`ResultStore.results_for`) verifies a row by
joining its stored texts into the record core and hashing that join;
serving it then parses only the result text. Any row whose join does not
hash to its checksum goes to :meth:`ResultStore.load_key`, which parses
the whole record and checks it with :func:`_record_problem`. The fast
path must agree with the full check it skips:

* the bytes it hashes for a row ``put_many`` wrote are the canonical
  JSON of the record minus its checksum;
* whenever the batch read serves a row, the full check serves the same
  status, seconds (of the same type) and error, and whenever the full
  check refuses a row, the batch read serves nothing;
* a row whose texts are respelled but equivalent (numbers, separators)
  misses the join hash and is served by the full check;
* the batch read of any keys agrees with the whole-table listing, from
  a handle that was open while the rows were written and from a fresh
  one;
* a warm re-run hashes each hit once and parses only its result text.

Stores touch real files, so the Hypothesis tests open their own
TemporaryDirectory per example.
"""

from __future__ import annotations

import hashlib
import json
import re
import tempfile
from collections import Counter
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.campaign import CampaignSpec, run_campaign
from repro.campaign import store as store_mod
from repro.campaign.shard import ShardIndex
from repro.campaign.spec import PointSpec, canonical_json
from repro.campaign.store import (
    DONE,
    ResultStore,
    _record_problem,
    _result_slice,
)
from tests.campaign.test_store import plant, stored

#: Printable ASCII without a quote or a backslash.
_PLAIN = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E,
                               blacklist_characters='"\\'), max_size=6)
#: Pieces that need escaping or come close to a separator.
_AWKWARD = st.sampled_from(['"', "\\", '": "', '", "', ": ", ", ", "é",
                            "\n", "\x00", "\x7f", "}", "{"])
_TEXT = st.one_of(_PLAIN, st.lists(st.one_of(_PLAIN, _AWKWARD), max_size=3)
                  .map("".join))
#: Mostly names a real store holds, sometimes any text.
_NAME = st.one_of(st.sampled_from(["A", "GCC-TBB", "reduce", "fp"]), _TEXT)

_SECONDS = st.one_of(
    st.none(), st.integers(-10**6, 10**20),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.5, 2.0, 1e16, 5e-324, float("inf"),
                     float("nan")]))

_POINTS = st.builds(
    PointSpec, machine=_NAME, backend=_NAME, case=_NAME,
    size_exp=st.integers(0, 64), threads=st.integers(1, 512),
    mode=st.sampled_from(("model", "run")),
    allocator=st.sampled_from((None, "default", "first-touch")),
    min_time=st.one_of(st.sampled_from([0.0, 1e16, 5e-324, 0.5]),
                       st.floats(min_value=0.0, allow_infinity=False)))

_PAYLOADS = st.fixed_dictionaries({
    "status": st.sampled_from((DONE, "na", "failed", "unknown")),
    "seconds": _SECONDS,
    "error": st.one_of(st.none(), _TEXT),
})


def _general(key: str, row: dict):
    """What the full check serves for a stored ``row``: ``(status,
    seconds, error)``, or None."""
    try:
        record = {"checksum": row["checksum"].decode() or None,
                  "fingerprint": row["fingerprint"].decode(), "key": key,
                  "point": json.loads(row["point"]),
                  "result": json.loads(row["result"])}
    except ValueError:
        return None
    if _record_problem(key, record) is not None:
        return None
    result = _result_slice(record["result"])
    if result is None:
        return None
    return result["status"], result["seconds"], result.get("error")


def _join(key: str, row: dict) -> bytes:
    """The record core the fast path hashes for ``row``."""
    return (b'{"fingerprint":"' + row["fingerprint"] + b'","key":"'
            + key.encode() + b'","point":' + row["point"] + b',"result":'
            + row["result"] + b"}")


def _served(store: ResultStore, key: str, point: PointSpec):
    """``(result, full checks)``: what one batch read serves for ``key``,
    and how many times it fell back to :meth:`ResultStore.load_key`."""
    calls = []
    real = store.load_key
    store.load_key = lambda k: calls.append(k) or real(k)
    try:
        return store.results_for([("t", point, key)])[0], len(calls)
    finally:
        del store.load_key


def _respell(text: bytes, pick: int) -> bytes | None:
    """``text`` with one number spelled differently (0.5 -> 0.50,
    2 -> 2.0, 1e+16 -> 1E+16), or None when it has no number."""
    numbers = list(re.finditer(rb'(?<=":)-?[0-9][0-9.eE+-]*', text))
    if not numbers:
        return None
    match = numbers[pick % len(numbers)]
    token = match.group()
    if b"e" in token:
        token = token.replace(b"e", b"E")
    elif b"." in token:
        token += b"0"
    else:
        token += b".0"
    return text[:match.start()] + token + text[match.end():]


def _variants(row: dict, data) -> list[dict]:
    """The row as written, plus copies with a text flipped, cut,
    re-spaced or re-spelled."""
    out = [row]
    for column in ("point", "result", "checksum"):
        text = row[column]
        positions = st.integers(0, len(text) - 1)
        flipped = bytearray(text)
        flipped[data.draw(positions)] ^= data.draw(
            st.sampled_from([0x01, 0x02, 0x04, 0x08, 0x10, 0x20]))
        out.append({**row, column: bytes(flipped)})
        out.append({**row, column: text[:data.draw(positions)]})
        at = data.draw(positions)
        out.append({**row, column: text[:at] + b" " + text[at:]})
        respelled = _respell(text, data.draw(st.integers(0, 7)))
        if respelled is not None:
            out.append({**row, column: respelled})
    return out


@settings(max_examples=40, deadline=None)
@given(fingerprint=_NAME,
       points=st.lists(_POINTS, min_size=1, max_size=3,
                       unique_by=PointSpec.canonical),
       payloads=st.lists(_PAYLOADS, min_size=3, max_size=3), data=st.data())
def test_the_record_byte_path_agrees_with_the_full_check(
        fingerprint, points, payloads, data):
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(Path(tmp) / "cache", fingerprint=fingerprint)
        items = [(store.key_for(p), p, payload, None)
                 for p, payload in zip(points, payloads)]
        store.put_many(items)
        rows = {key: stored(store, key) for key, *_ in items}
        for key, point, _payload, _w in items:
            for variant in _variants(rows[key], data):
                plant(store, key, **variant)
                general = _general(key, variant)
                result, _checks = _served(store, key, point)
                if general is None:
                    assert result is None
                else:
                    assert (result.status, repr(result.seconds), result.error) \
                        == (general[0], repr(general[1]), general[2])
                    assert type(result.seconds) is type(general[1])
            # the unmodified row verifies on the fast path alone when its
            # fingerprint needs no escaping
            plant(store, key, **rows[key])
            result, checks = _served(store, key, point)
            if canonical_json(fingerprint) == f'"{fingerprint}"':
                assert checks == 0
            assert (result is None) == (_general(key, rows[key]) is None)


def _stored_row(tmp: Path) -> tuple[ResultStore, PointSpec, str, dict]:
    """A store holding one done record of 0.5 s, and that record's row."""
    store = ResultStore(tmp / "cache", fingerprint="fp")
    point = PointSpec(machine="A", backend="GCC-TBB", case="reduce",
                      size_exp=12, threads=4)
    key = store.put(point, {"status": DONE, "seconds": 0.5, "error": None})
    return store, point, key, stored(store, key)


def test_the_byte_path_serves_a_plain_line_and_hashes_its_canonical_core(tmp_path):
    store, point, key, row = _stored_row(tmp_path)
    record = store.load_key(key)
    core = {k: v for k, v in record.items() if k != "checksum"}
    assert _join(key, row) == canonical_json(core).encode()
    assert hashlib.sha256(_join(key, row)).hexdigest()[:16] == \
        row["checksum"].decode() == record["checksum"]
    result, checks = _served(store, key, point)
    assert (result.status, result.seconds, result.error, checks) == \
        (DONE, 0.5, None, 0)


def test_a_respelled_number_is_left_to_the_full_check(tmp_path):
    # 0.50 parses to the same 0.5; only the full check, which hashes the
    # canonical spelling, may accept it
    store, point, key, row = _stored_row(tmp_path)
    for token in (b"0.50", b"5e-1", b"5E-1", b"0.5e0", b"5.0e-1"):
        plant(store, key, result=row["result"].replace(
            b'"seconds":0.5', b'"seconds":' + token))
        result, checks = _served(store, key, point)
        assert (result.seconds, checks) == (0.5, 1), token
    assert store.quarantined == 0
    # 0.0 -> 0 is another value (an int): refused by both
    plant(store, key, point=row["point"].replace(b'"min_time":0.0',
                                                 b'"min_time":0'))
    assert _served(store, key, point) == (None, 1)
    assert store.quarantined == 1
    # a point's integers are integers
    key = store.put(point, {"status": DONE, "seconds": 0.5, "error": None})
    plant(store, key, point=row["point"].replace(b'"size_exp":12',
                                                 b'"size_exp":12.0'))
    assert _served(store, key, point) == (None, 1)


def test_a_changed_value_or_key_is_never_accepted(tmp_path):
    store, point, key, row = _stored_row(tmp_path)
    plant(store, key, result=row["result"].replace(b"0.5", b"0.4"))
    assert _served(store, key, point) == (None, 1)  # wrong hash, refused
    assert store.quarantined == 1
    # the row under another key: the checksum covers the key
    other = key[::-1]
    plant(store, other, **row)
    assert _served(store, other, point) == (None, 1)
    # the two-flip case: a checksum digit and 0.5 -> 0.4
    key = store.put(point, {"status": DONE, "seconds": 0.5, "error": None})
    checksum = bytearray(row["checksum"])
    checksum[0] ^= 0x01
    plant(store, key, checksum=bytes(checksum),
          result=row["result"].replace(b"0.5", b"0.4"))
    assert _served(store, key, point) == (None, 1)
    assert store.quarantined == 3


def test_a_string_that_would_fake_a_separator_goes_to_the_full_check(tmp_path):
    # A row spelled with json.dumps' default separators, as pack lines
    # were, around strings that hold separators themselves: the join no
    # longer hashes to the checksum, and the full check serves the row.
    store = ResultStore(tmp_path / "cache", fingerprint="fp")
    point = PointSpec(machine=": A", backend="GCC-TBB, ", case="reduce",
                      size_exp=12, threads=4)
    key = store.put(point, {"status": DONE, "seconds": 1.5,
                            "error": None})
    spaced = json.dumps(point.to_dict(), sort_keys=True).encode()
    assert b'"backend": "GCC-TBB, "' in spaced
    plant(store, key, point=spaced)
    result, checks = _served(store, key, point)
    assert (result.seconds, checks) == (1.5, 1)
    assert store.quarantined == 0


# -- the batch read against the whole table ---------------------------------

_KEY_NAMES = ["ab01", "ab02", "ab03", 'ab"q', "ab\\x", "abé"]
_KEYS = st.sampled_from(_KEY_NAMES)
_OPS = st.one_of(
    st.tuples(st.just("put"), st.lists(st.tuples(_KEYS, _TEXT), min_size=1,
                                       max_size=3)),
    st.tuples(st.just("delete"), _KEYS),
    st.tuples(st.just("corrupt"), _KEYS, st.floats(0.0, 1.0)),
)


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(_OPS, min_size=1, max_size=12), split=st.integers(0, 12))
def test_the_locator_fold_agrees_with_the_whole_row_replay(ops, split):
    # The batch read (fetch) against the listing (rows), on the writer's
    # connection, on a connection open since before the writes (another
    # process's), and on a fresh one.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cache.db"
        writer, live = ShardIndex(path), ShardIndex(path)
        try:
            for i, op in enumerate(ops):
                if i == split:
                    live.fetch(["ab01"])
                if op[0] == "put":
                    writer.append(*((key, "fp", canonical_json({"t": text}),
                                     canonical_json({"e": text}), "c", None)
                                    for key, text in op[1]))
                elif op[0] == "delete":
                    writer.delete(op[1])
                else:
                    writer.corrupt(op[1], op[2])
            listed = {key: tuple(row[:4]) for key, *row in writer.rows()}
            assert [key for key, *_ in writer.rows()] == sorted(listed)
            fresh = ShardIndex(path)
            try:
                for table in (writer, live, fresh):
                    assert table.fetch(_KEY_NAMES) == listed
                    assert table.count() == len(listed)
            finally:
                fresh.close()
        finally:
            writer.close()
            live.close()


def test_a_row_cut_anywhere_is_not_folded_from_its_match(tmp_path):
    # A text cut at any byte never verifies; the full check refuses it
    # and quarantines the row.
    store, point, key, row = _stored_row(tmp_path)
    for column in ("point", "result"):
        text = row[column]
        for cut in range(len(text)):
            plant(store, key, **{**row, column: text[:cut]})
            assert _served(store, key, point) == (None, 1), (column, cut)
    assert store.quarantined == len(row["point"]) + len(row["result"])
    plant(store, key, **row)
    assert _served(store, key, point)[0].seconds == 0.5


# -- counts on a warm re-run -------------------------------------------------


def test_a_warm_rerun_parses_nothing_and_hashes_each_hit_once(tmp_path, monkeypatch):
    spec = CampaignSpec(name="counts", machines=("A", "B"),
                        backends=("GCC-TBB", "GCC-GNU"),
                        cases=("reduce", "sort", "find"), size_exps=(10, 12),
                        threads=(2, 4))
    run_campaign(spec, campaign_dir=tmp_path / "cold",
                 store=ResultStore(tmp_path / "cache"))

    parsed: list[bytes] = []
    hashed: Counter = Counter()
    checksums: list[int] = []
    real_loads, real_sha = json.loads, hashlib.sha256
    real_checksum = store_mod.record_checksum

    def spy_loads(text, *args, **kwargs):
        parsed.append(text if isinstance(text, bytes) else text.encode())
        return real_loads(text, *args, **kwargs)

    def spy_sha(data=b"", *args, **kwargs):
        if bytes(data).startswith(b'{"fingerprint":'):
            hashed[bytes(data)] += 1
        return real_sha(data, *args, **kwargs)

    monkeypatch.setattr(json, "loads", spy_loads)
    monkeypatch.setattr(hashlib, "sha256", spy_sha)
    monkeypatch.setattr(store_mod, "record_checksum",
                        lambda record: checksums.append(1) or
                        real_checksum(record))
    store = ResultStore(tmp_path / "cache")
    warm = run_campaign(spec, campaign_dir=tmp_path / "warm", store=store)

    hits = warm.stats.cache_hits
    assert hits == len(warm.plan.runnable) > 0 and warm.stats.executed == 0
    # per hit: one hash of its record core, one parse of its result text
    assert len(hashed) == hits and set(hashed.values()) == {1}
    results = [text for text in parsed if text.startswith(b'{"error":')]
    assert len(results) == len(parsed) == hits
    assert checksums == []  # the full check never ran
