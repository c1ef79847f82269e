"""The store's two byte paths against the general ones they stand in for.

A batch read verifies a pack line in exactly ``put_many``'s shape on its
own bytes (``_record_view`` / ``_verified_slice`` in
:mod:`repro.campaign.store`), and the locator cache folds an index put
row in exactly ``ShardIndex.append``'s shape from one match
(``ShardIndex._fold``). Each must agree with the full parse it skips:

* for every line the record shape admits, the bytes it hashes are the
  canonical JSON of the parsed record minus its checksum;
* whenever the record byte path accepts, the full check accepts too and
  serves the same status, seconds (of the same type) and error;
* the record byte path accepts every unmodified line whose strings are
  printable ASCII without ``"`` or ``\\`` and whose numbers are finite,
  unless a string starts with ``: `` or ends with ``, ``: its quote
  would make a separator of those two bytes, so such a line goes to the
  full check, which serves it;
* a fresh handle's locators, and a live cache's folded over two tail
  reads, equal the locators of the whole-row replay (``rows()``);
* a warm re-run parses no index row or record and hashes each hit's
  record exactly once.

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
from repro.campaign.shard import ShardIndex, StoreIndex, _locator
from repro.campaign.spec import PointSpec, canonical_json
from repro.campaign.store import (
    DONE,
    ResultStore,
    _record_problem,
    _record_view,
    _result_slice,
    _verified_slice,
)

#: Printable ASCII without a quote or a backslash.
_PLAIN = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E,
                               blacklist_characters='"\\'), max_size=6)
#: Pieces that leave the shape or come close to a separator.
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


def _plain(text: str | None) -> bool:
    """Whether ``text`` stays in the record shape as a JSON string."""
    return text is None or (re.fullmatch(r'[\x20\x21\x23-\x5b\x5d-\x7e]*', text)
                            is not None and not text.startswith(": ")
                            and not text.endswith(", "))


def _finite(value) -> bool:
    return value is None or value == value and abs(value) != float("inf")


def _general(key: str, line: bytes):
    """What the full check serves for ``line``: ``(status, seconds,
    error)``, or None."""
    try:
        record = json.loads(line.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    if _record_problem(key, record) is not None:
        return None
    result = _result_slice(record)
    if result is None:
        return None
    return result["status"], result["seconds"], result.get("error")


def _check_line(key: str, line: bytes) -> None:
    """The two agreement properties, on one line."""
    view = _record_view(line)
    if view is not None:
        record = json.loads(line)
        core = {k: v for k, v in record.items() if k != "checksum"}
        assert view[0] == canonical_json(core).encode()
    fast = _verified_slice(key, line)
    if fast is not None:
        general = _general(key, line)
        assert general is not None
        assert (general[0], repr(general[1]), general[2]) == \
            (fast[0], repr(fast[1]), fast[2])
        assert type(general[1]) is type(fast[1])


def _respell(line: bytes, pick: int) -> bytes | None:
    """``line`` with one number spelled differently (0.5 -> 0.50,
    2 -> 2.0, 1e+16 -> 1E+16), or None when it has no number."""
    numbers = list(re.finditer(rb'(?<=": )-?[0-9][0-9.eE+-]*', line))
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
    return line[:match.start()] + token + line[match.end():]


def _variants(line: bytes, data) -> list[bytes]:
    """The line as written, plus flipped, cut, re-spaced and re-spelled
    copies."""
    size = len(line)
    positions = st.integers(0, size - 1)
    bits = st.sampled_from([0x01, 0x02, 0x04, 0x08, 0x10, 0x20])
    out = [line]
    for flips in (1, 2):
        flipped = bytearray(line)
        for _ in range(flips):
            flipped[data.draw(positions)] ^= data.draw(bits)
        out.append(bytes(flipped))
    out.append(line[:data.draw(positions)])
    at = data.draw(positions)
    out.append(line[:at] + b" " + line[at:])
    spaces = [i for i, byte in enumerate(line) if byte == 0x20]
    if spaces:
        at = spaces[data.draw(st.integers(0, len(spaces) - 1))]
        out.append(line[:at] + line[at + 1:])
    respelled = _respell(line, data.draw(st.integers(0, 7)))
    if respelled is not None:
        out.append(respelled)
    return out


@settings(max_examples=60, deadline=None)
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
        lines = {key: store.locate(key).read() for key, *_ in items}
        served = store.results_for(
            (f"t{i}", p, key) for i, (key, p, _payload, _w) in enumerate(items))
        for (key, point, payload, _w), result in zip(items, served):
            line = lines[key]
            for variant in _variants(line, data):
                _check_line(key, variant)
            # another key's record is never accepted for this key
            assert _verified_slice("0" * 64, line) is None
            # the unmodified line, when its strings and numbers are plain
            general = _general(key, line)
            texts = [fingerprint, point.machine, point.backend, point.case,
                     point.mode, point.allocator, payload["status"],
                     payload["error"]]
            if all(map(_plain, texts)) and _finite(payload["seconds"]):
                assert _record_view(line) is not None
                assert _verified_slice(key, line) == general
            # and the batch read serves what the full check serves
            if general is None:
                assert result is None
            else:
                assert (result.status, repr(result.seconds), result.error) \
                    == (general[0], repr(general[1]), general[2])


def _stored_line(tmp: Path) -> tuple[str, bytes]:
    """The key and pack line of one stored done record of 0.5 s."""
    store = ResultStore(tmp / "cache", fingerprint="fp")
    point = PointSpec(machine="A", backend="GCC-TBB", case="reduce",
                      size_exp=12, threads=4)
    key = store.put(point, {"status": DONE, "seconds": 0.5, "error": None})
    return key, store.locate(key).read()


def test_the_byte_path_serves_a_plain_line_and_hashes_its_canonical_core(tmp_path):
    key, line = _stored_line(tmp_path)
    record = json.loads(line)
    core, checksum, record_key, *served = _record_view(line)
    assert core == canonical_json(
        {k: v for k, v in record.items() if k != "checksum"}).encode()
    assert (checksum, record_key) == (record["checksum"], key)
    assert served == [DONE, 0.5, None]
    assert _verified_slice(key, line) == (DONE, 0.5, None)


def test_a_respelled_number_is_left_to_the_full_check(tmp_path):
    # 0.50 parses to the same 0.5; only the full check, which hashes the
    # canonical spelling, may accept it
    key, line = _stored_line(tmp_path)
    for token in (b"0.50", b"5e-1", b"5E-1", b"0.5e0", b"5.0e-1"):
        respelled = line.replace(b'"seconds": 0.5', b'"seconds": ' + token)
        assert _record_view(respelled) is None, token
        assert _general(key, respelled) == (DONE, 0.5, None), token
    # 0.0 -> 0 is another value (an int): in shape, and refused by both
    as_int = line.replace(b'"min_time": 0.0', b'"min_time": 0')
    assert _record_view(as_int) is not None
    assert _verified_slice(key, as_int) is None
    assert _general(key, as_int) is None
    # a point's integers are integers in the shape
    as_float = line.replace(b'"size_exp": 12', b'"size_exp": 12.0')
    assert _record_view(as_float) is None
    assert _general(key, as_float) is None


def test_a_changed_value_or_key_is_never_accepted(tmp_path):
    key, line = _stored_line(tmp_path)
    changed = line.replace(b'"seconds": 0.5', b'"seconds": 0.4')
    assert _record_view(changed) is not None  # in shape, wrong hash
    assert _verified_slice(key, changed) is None
    assert _verified_slice(key[::-1], line) is None
    # the two-flip case: "checksum" -> "chdcksum" and 0.5 -> 0.4
    both = bytearray(line)
    both[both.index(b'"checksum"') + 3] ^= 0x01
    both[both.index(b'"seconds": 0.5') + len(b'"seconds": 0.')] ^= 0x01
    assert b'"chdcksum"' in both and b'"seconds": 0.4' in both
    assert _record_view(bytes(both)) is None
    assert _general(key, bytes(both)) is None


def test_a_string_that_would_fake_a_separator_goes_to_the_full_check(tmp_path):
    store = ResultStore(tmp_path / "cache", fingerprint="fp")
    point = PointSpec(machine=": A", backend="GCC-TBB, ", case="reduce",
                      size_exp=12, threads=4)
    key = store.put(point, {"status": DONE, "seconds": 1.5, "error": None})
    line = store.locate(key).read()
    assert _record_view(line) is None
    assert store.result_for("t", point).seconds == 1.5


# -- the locator fold -------------------------------------------------------

_KEYS = st.sampled_from(["ab01", "ab02", "ab03", 'ab"q', "ab\\x", "abé"])
_OFFSETS = st.one_of(st.integers(0, 10**6), st.integers(0, 10**6),
                     st.just(None), st.just(7.0), st.just(10**19))
_ROWS = st.fixed_dictionaries({
    "op": st.just("put"), "key": _KEYS,
    "checksum": st.one_of(st.just("0123456789abcdef"), _TEXT),
    "path": st.one_of(st.just("objects/packs/p1.pack"), _TEXT),
    "offset": _OFFSETS, "length": _OFFSETS,
    "point": st.one_of(st.just({}), _POINTS.map(PointSpec.to_dict),
                       st.just({"nested": {"a": 1}})),
    "seconds": _SECONDS, "status": st.one_of(st.none(), _TEXT),
    "wall_ms": st.one_of(st.none(), st.floats(allow_nan=False)),
})
_OPS = st.one_of(
    st.tuples(st.just("put"), _ROWS),
    st.tuples(st.just("put"), _ROWS),
    st.tuples(st.just("extra"), _ROWS),
    st.tuples(st.just("reordered"), _ROWS),
    st.tuples(st.just("loose"), _ROWS),
    st.tuples(st.just("tombstone"), _KEYS),
    st.tuples(st.just("torn"), _ROWS, st.integers(1, 400)),
    st.tuples(st.just("raw"), st.sampled_from(
        [b"\n", b"   \n", b"[1, 2]\n", b'"loose"\n', b"null\n", b"7\n"])),
    st.tuples(st.just("flip"), _ROWS, st.integers(0, 400),
              st.sampled_from([0x01, 0x02, 0x04, 0x20])),
)


def _apply(shard: ShardIndex, op: tuple) -> None:
    """Write one generated log event through ``shard`` or as raw bytes."""
    kind = op[0]

    def raw(data: bytes) -> None:
        with open(shard.log_path, "ab") as fh:
            fh.write(data)

    if kind == "put":
        shard.append(op[1])
    elif kind == "extra":
        shard.append({**op[1], "zz": 1})
    elif kind == "reordered":
        raw(json.dumps(dict(reversed(list(op[1].items())))).encode() + b"\n")
    elif kind == "loose":
        shard.append({k: v for k, v in op[1].items()
                      if k not in ("offset", "length")})
    elif kind == "tombstone":
        shard.append({"op": "quarantine", "key": op[1], "reason": "x"})
    elif kind == "torn":  # a crash mid-append; the next append heals it
        line = canonical_json(op[1]).encode()
        raw(line[:op[2] % len(line)])
    elif kind == "raw":
        raw(op[1])
    else:
        line = bytearray(canonical_json(op[1]).encode())
        line[op[2] % len(line)] ^= op[3]
        raw(bytes(line) + b"\n")


def _replayed(shard: ShardIndex) -> dict:
    """The locators of the whole-row replay."""
    return {key: _locator(row) for key, row in shard.rows().items()}


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_OPS, min_size=1, max_size=14), split=st.integers(0, 14),
       last=_ROWS)
def test_the_locator_fold_agrees_with_the_whole_row_replay(ops, split, last):
    with tempfile.TemporaryDirectory() as tmp:
        writer = ShardIndex(tmp, "ab")
        live = ShardIndex(tmp, "ab")  # another process's cache
        for i, op in enumerate(ops):
            if i == split:
                live.locators()
            _apply(writer, op)
        writer.append(last)  # heals a trailing fragment
        expected = _replayed(writer)
        assert ShardIndex(tmp, "ab").locators() == expected
        assert live.locators() == expected


def test_a_row_cut_anywhere_is_not_folded_from_its_match(tmp_path):
    shard = ShardIndex(tmp_path, "ab")
    row = {"op": "put", "key": "ab" + "0" * 62, "path": "objects/packs/p.pack",
           "offset": 40, "length": 7, "checksum": "0123456789abcdef",
           "point": {"machine": "A", "threads": 2}, "status": "done",
           "seconds": 0.5, "wall_ms": None}
    line = canonical_json(row).encode()
    for cut in range(1, len(line)):
        cache: dict = {}
        ShardIndex._fold(cache, line[:cut])
        assert cache == {}, line[:cut]
    for trailing in (b"}", b" x", line):  # json.loads refuses extra data
        ShardIndex._fold(cache, line + trailing)
        assert cache == {}, trailing
    ShardIndex._fold(cache, line)
    assert cache == {row["key"]: ("objects/packs/p.pack", 40, 7)}


# -- counts on a warm re-run -------------------------------------------------


def test_a_warm_rerun_parses_nothing_and_hashes_each_hit_once(tmp_path, monkeypatch):
    spec = CampaignSpec(name="counts", machines=("A", "B"),
                        backends=("GCC-TBB", "GCC-GNU"),
                        cases=("reduce", "sort", "find"), size_exps=(10, 12),
                        threads=(2, 4))
    run_campaign(spec, campaign_dir=tmp_path / "cold",
                 store=ResultStore(tmp_path / "cache"))

    parsed: list[str] = []
    hashed: Counter = Counter()
    checksums: list[int] = []
    real_loads, real_sha = json.loads, hashlib.sha256
    real_checksum = store_mod.record_checksum

    def spy_loads(text, *args, **kwargs):
        parsed.append(text if isinstance(text, str) else text.decode())
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
    store.index = StoreIndex(tmp_path / "cache")  # a fresh handle's caches
    warm = run_campaign(spec, campaign_dir=tmp_path / "warm", store=store)

    hits = warm.stats.cache_hits
    assert hits == len(warm.plan.runnable) > 0 and warm.stats.executed == 0
    assert not [text for text in parsed if '"checksum"' in text]
    assert checksums == []
    assert len(hashed) == hits and set(hashed.values()) == {1}
