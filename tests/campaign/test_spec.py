"""Spec serialisation: canonical identity, roundtrips, validation."""

from __future__ import annotations

import json
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign import spec as spec_mod
from repro.campaign.spec import CampaignSpec, PointSpec, canonical_json
from repro.errors import CampaignError


def test_point_roundtrip():
    point = PointSpec(machine="A", backend="GCC-TBB", case="reduce",
                      size_exp=20, threads=8)
    assert PointSpec.from_dict(point.to_dict()) == point


def test_point_canonical_is_deterministic():
    a = PointSpec(machine="A", backend="GCC-TBB", case="reduce",
                  size_exp=20, threads=8)
    b = PointSpec(machine="A", backend="GCC-TBB", case="reduce",
                  size_exp=20, threads=8)
    assert a.canonical() == b.canonical()
    assert '"machine":"A"' in a.canonical()  # compact, sorted keys


def test_point_n_property():
    point = PointSpec(machine="A", backend="GCC-TBB", case="reduce",
                      size_exp=10, threads=1)
    assert point.n == 1024


def test_point_rejects_unknown_fields():
    payload = {"machine": "A", "backend": "GCC-TBB", "case": "reduce",
               "size_exp": 20, "threads": 8, "bogus": 1}
    with pytest.raises(CampaignError, match="bogus"):
        PointSpec.from_dict(payload)


@pytest.mark.parametrize("kwargs", [
    {"threads": 0},
    {"size_exp": -1},
    {"mode": "hardware"},
    {"allocator": "slab"},
    {"min_time": -0.1},
])
def test_point_validation(kwargs):
    base = dict(machine="A", backend="GCC-TBB", case="reduce",
                size_exp=20, threads=8)
    base.update(kwargs)
    with pytest.raises(CampaignError):
        PointSpec(**base)


def test_campaign_roundtrip_normalises_to_tuples():
    spec = CampaignSpec(name="t", machines=["A", "B"], backends=["GCC-TBB"],
                        cases=["reduce"], threads=[None, 4],
                        exclude=[["B", "ICC-TBB"]])
    assert spec.machines == ("A", "B")
    assert spec.threads == (None, 4)
    assert spec.exclude == (("B", "ICC-TBB"),)
    again = CampaignSpec.from_dict(spec.to_dict())
    assert again == spec
    assert again.canonical() == spec.canonical()


@pytest.mark.parametrize("kwargs", [
    {"name": ""},
    {"machines": ()},
    {"threads": (0,)},
    {"size_exps": (-3,)},
    {"modes": ("hardware",)},
    {"exclude": (("B",),)},
])
def test_campaign_validation(kwargs):
    base = dict(name="t", machines=("A",), backends=("GCC-TBB",),
                cases=("reduce",))
    base.update(kwargs)
    with pytest.raises(CampaignError):
        CampaignSpec(**base)


def test_canonical_json_is_order_independent():
    assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12)


def _dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@settings(max_examples=80, deadline=None)
@given(payload=_JSON)
def test_canonical_json_is_sorted_compact_json(payload):
    assert canonical_json(payload) == _dumps(payload)


def test_canonical_json_without_the_c_encoder_gives_the_same_text(monkeypatch):
    payloads = [{"b": [1, 2.5, None], "a": "é\n\""}, "text", -0.0, 1e16,
                float("nan"), [], {}]
    expected = [canonical_json(p) for p in payloads]
    monkeypatch.setattr(spec_mod, "_C_ENCODE", None)
    assert [canonical_json(p) for p in payloads] == expected
    assert expected == [_dumps(p) for p in payloads]


def test_the_shared_encoder_is_safe_across_threads():
    payloads = [{"point": {"size_exp": i, "machine": "A" * (i % 7)},
                 "nested": [{"k": j} for j in range(i % 5)]}
                for i in range(200)]
    expected = [_dumps(p) for p in payloads]
    bad: list[int] = []

    def encode() -> None:
        for _round in range(20):
            for i, payload in enumerate(payloads):
                if canonical_json(payload) != expected[i]:
                    bad.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=encode) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert bad == []
