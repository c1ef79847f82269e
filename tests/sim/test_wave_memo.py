"""The wave engine's process-wide memos: fold layouts and NUMA node maps.

``repro.sim.wave`` builds each distinct partition's chunk->thread fold
layout and each distinct placement's thread->node map once per process
(``_LAYOUTS``, ``_NODE_MAPS``). These tests pin what makes that safe:

* a memoised layout, cold or warm, is the one ``_thread_layout``
  describes, and folding through its int32 index is a per-thread
  Python left fold, bit for bit, on irregular partitions;
* the memo stays within its budget, never stores an over-budget layout
  or one an int32 narrowing would change, and hands out only read-only
  arrays;
* a node map is keyed by the resolved topology, not the machine's name:
  two models that share a name cost as each does in a fresh process;
* the named count: fig3 builds one layout per distinct partition.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import get_backend
from repro.execution.context import ExecutionContext
from repro.machines import get_machine
from repro.machines.topology import Topology
from repro.sim import wave as wave_mod
from repro.sim.wave import WaveEntry, simulate_cpu_arrays, simulate_wave_entries
from repro.suite.cases import get_case
from repro.util.units import GIB

REPO = Path(__file__).resolve().parents[2]


@contextlib.contextmanager
def fresh_memo(name: str, budget: int = wave_mod.WAVE_CHUNK_BUDGET):
    """Swap ``wave_mod.<name>`` for an empty memo of ``budget``."""
    saved = getattr(wave_mod, name)
    memo = wave_mod.WeightedLRU(budget, saved.size)
    setattr(wave_mod, name, memo)
    try:
        yield memo
    finally:
        setattr(wave_mod, name, saved)


@st.composite
def thread_ids(draw):
    """Chunk->thread arrays: gaps in the ids, late first appearances,
    a single thread, or one thread holding most chunks."""
    ids = draw(st.lists(st.integers(0, 4096), min_size=1, max_size=12,
                        unique=True))
    n = draw(st.integers(1, 300))
    shape = draw(st.sampled_from(("mixed", "late", "one", "dominant")))
    if shape == "one":
        return np.full(n, ids[0], dtype=np.int64)
    picks = draw(st.lists(st.sampled_from(ids), min_size=n, max_size=n))
    if shape == "late":  # the other threads first appear near the end
        head = draw(st.integers(0, n - 1))
        picks[:head] = [ids[0]] * head
    elif shape == "dominant":
        picks = [ids[0] if k % 10 else pick for k, pick in enumerate(picks)]
    return np.array(picks, dtype=np.int64)


def _python_fold(row: np.ndarray, thread: np.ndarray) -> list[str]:
    """Per-thread ``acc += x`` in chunk order, threads in first appearance."""
    acc: dict[int, float] = {}
    for t, x in zip(thread.tolist(), row.tolist()):
        acc[t] = acc.get(t, 0.0) + x
    return [v.hex() for v in acc.values()]


@settings(max_examples=80, deadline=None)
@given(thread=thread_ids(), seed=st.integers(0, 2**32 - 1),
       rows=st.integers(1, 3))
def test_memoised_layout_is_the_built_layout_and_folds_exactly(thread, seed,
                                                               rows):
    with fresh_memo("_LAYOUTS") as memo:
        cold = wave_mod._layout(thread)
        warm = wave_mod._layout(thread.copy())  # equal ids, another array
        assert warm is cold and (memo.misses, memo.hits) == (1, 1)

    thread_order, tidx, slot = wave_mod._thread_layout(thread)
    order, flat, depth = cold
    assert order.tolist() == thread_order.tolist()
    assert flat.dtype == np.int32
    assert flat.tolist() == (slot * len(thread_order) + tidx).tolist()
    assert depth == int(slot.max()) + 1
    assert not order.flags.writeable and not flat.flags.writeable

    rng = np.random.default_rng(seed)
    values = rng.random((rows, len(thread))) * 10.0 ** rng.integers(
        -3, 9, size=(rows, len(thread)))
    folded = wave_mod._thread_fold(values, cold)
    for row in range(rows):
        assert [v.hex() for v in folded[row].tolist()] == _python_fold(
            values[row], thread)


def test_layout_memo_stays_in_budget_and_skips_oversized_layouts():
    rng = np.random.default_rng(7)
    with fresh_memo("_LAYOUTS", budget=100) as memo:
        big = rng.integers(0, 4, 101)
        wave_mod._layout(big)
        wave_mod._layout(big)
        assert len(memo) == 0 and memo.misses == 2  # built twice, never stored
        for k in range(12):
            wave_mod._layout(rng.integers(0, 4, 30 + k))
            assert memo.weight <= memo.budget
            assert memo.weight == sum(len(flat) for _, flat, _ in
                                      memo._values.values())
        assert 0 < len(memo) <= 3
        for order, flat, _depth in memo._values.values():
            with pytest.raises(ValueError):
                flat[0] = 1
            with pytest.raises(ValueError):
                order[0] = 1


def test_a_lossy_narrowing_is_never_stored(monkeypatch):
    with fresh_memo("_LAYOUTS") as memo:
        wave_mod._layout(np.zeros(3, dtype=np.int64))
        # 2**33 narrows to int32 0: keyed on those bytes, it would be
        # served the all-zero partition's layout.
        wide = np.array([0, 2**33, 0], dtype=np.int64)
        order, flat, depth = wave_mod._layout(wide)
        assert order.tolist() == [0, 2**33] and depth == 2
        assert flat.tolist() == [0, 1, 2]
        assert len(memo) == 1

        # A fold index past the int32 range is built but not stored.
        monkeypatch.setattr(wave_mod, "_INT32",
                            SimpleNamespace(min=-(2**31), max=5))
        fits = np.array([0, 1, 0, 1, 0, 1], dtype=np.int64)  # cells 0..5
        deep = np.array([0, 1, 0, 1, 0, 1, 0], dtype=np.int64)  # cells 0..7
        wave_mod._layout(fits)
        assert len(memo) == 2
        _order, flat, _depth = wave_mod._layout(deep)
        assert flat.tolist() == [0, 1, 2, 3, 4, 5, 6]
        assert len(memo) == 2


def test_node_maps_are_read_only():
    machine, backend = get_machine("B"), get_backend("GCC-TBB")
    order = np.array([3, 0, 5], dtype=np.int64)
    with fresh_memo("_NODE_MAPS") as memo:
        nodes = wave_mod._nodes_of(machine, backend, 8, order)
        again = wave_mod._nodes_of(machine, backend, 8, order.copy())
        assert again is nodes and (memo.misses, memo.hits) == (1, 1)
    with pytest.raises(ValueError):
        nodes[0] = 1


# --- one name, two topologies ----------------------------------------------


def twin_machine(variant: int):
    """Machine A, or (``variant`` 1) a copy of it under the same name
    split into 8 NUMA nodes of 4 cores."""
    machine = get_machine("A")
    if variant:
        machine = dataclasses.replace(machine, topology=Topology.uniform(
            sockets=2, nodes_per_socket=4, cores_per_node=4,
            memory_per_node=6 * GIB))
    return machine


def twin_seconds(variant: int) -> float:
    """A DRAM-bound reduce on :func:`twin_machine`, as a one-entry wave."""
    ctx = ExecutionContext(twin_machine(variant), get_backend("GCC-TBB"),
                           threads=12)
    profile = get_case("reduce").profile(ctx, 1 << 28)
    return simulate_cpu_arrays(ctx.machine, ctx.backend, profile).seconds


def _fresh_process_seconds(variant: int) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), str(REPO), env.get("PYTHONPATH")) if p)
    code = ("from tests.sim.test_wave_memo import twin_seconds; "
            f"print(twin_seconds({variant}).hex())")
    out = subprocess.run([sys.executable, "-c", code], cwd=REPO, env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return out.stdout.strip()


def test_machines_sharing_a_name_cost_as_in_a_fresh_process():
    machines = [twin_machine(0), twin_machine(1)]
    assert machines[0].name == machines[1].name
    assert machines[0].topology != machines[1].topology
    fresh = [_fresh_process_seconds(v) for v in (0, 1)]
    assert fresh[0] != fresh[1]  # the topology matters to this point
    with fresh_memo("_NODE_MAPS"), fresh_memo("_LAYOUTS"):
        alone = [twin_seconds(v).hex() for v in (0, 1, 0)]
        backend = get_backend("GCC-TBB")
        entries = []
        for machine in machines:
            ctx = ExecutionContext(machine, backend, threads=12)
            entries.append(WaveEntry(machine, backend,
                                     get_case("reduce").profile(ctx, 1 << 28)))
        fused = [r.seconds.hex() for r in simulate_wave_entries(entries)]
    assert alone == [fresh[0], fresh[1], fresh[0]]
    assert fused == fresh


# --- the named count ---------------------------------------------------------


def test_fig3_builds_one_layout_per_distinct_partition():
    """fig3 costs 202 phases over 22 distinct partitions: from an empty
    memo it builds 22 layouts, and a second run builds none."""
    from repro.scenarios import run_scenario

    with fresh_memo("_LAYOUTS") as memo:
        first = run_scenario("fig3")
        assert memo.misses == len(memo) == 22
        assert memo.hits == 202 - 22
        again = run_scenario("fig3")
        assert memo.misses == 22
    assert again.cells == first.cells and again.curves == first.curves
