"""The one profile builder, pinned to a frozen golden bit for bit.

``tests/algorithms/builder_golden.json`` holds, for one seeded
configuration per (machine x CPU backend x case) triple -- 594 in all,
with drawn sizes (odd and tiny n included), thread counts, allocators
and element types -- the ``SimReport`` seconds as float-hex and a digest
of every counter and phase field, as an earlier, independent builder
costed them (the commit is named in the file). ``repro.algorithms``
builds every case's profile on its own now, so this golden, the
scenario ``output`` goldens and run/model parity are what check it.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "builder_golden.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("builder_golden", _TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules["builder_golden"] = module  # dataclasses resolve via sys.modules
    spec.loader.exec_module(module)
    return module


builder_golden = _load_tool()


def test_golden_covers_every_machine_backend_case_triple():
    from repro.suite.cases import case_names

    doc = builder_golden.load()
    configs = builder_golden.golden_configs(doc["seed"])
    assert len(configs) == len(doc["entries"]) == 3 * 6 * len(case_names())
    assert {c.label() for c in configs} == set(doc["entries"])
    sizes = [c.n for c in configs]
    assert any(n < 64 for n in sizes) and any(n % 2 for n in sizes)
    assert len(doc["commit"]) == 40


def test_builder_matches_frozen_golden_bit_for_bit():
    doc = builder_golden.load()
    got = builder_golden.rebuild(builder_golden.golden_configs(doc["seed"]))
    bad = builder_golden.mismatches(doc["entries"], got)
    assert not bad, "\n".join(bad[:20])


def test_golden_check_is_not_vacuous():
    """A one-ulp change to one entry's seconds is reported."""
    doc = builder_golden.load()
    label, entry = next((k, v) for k, v in doc["entries"].items()
                        if "seconds" in v)
    seconds = float.fromhex(entry["seconds"])
    skewed = dict(doc["entries"])
    skewed[label] = dict(entry, seconds=(seconds * (1 + 2**-52)).hex())
    bad = builder_golden.mismatches(skewed, doc["entries"])
    assert len(bad) == 1 and bad[0].startswith(label)
