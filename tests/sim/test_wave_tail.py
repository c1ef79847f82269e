"""The fused wave's seconds path and its array tail.

``simulate_wave`` returns every entry's seconds without building a
report, and builds an entry's :class:`~repro.sim.report.SimReport` from
the wave's per-phase columns only when it is read. Two properties pin
that:

1. the fused feeders -- a campaign wave (``execute_wave``) and a sweep
   curve (``batch_strong_scaling`` / ``batch_problem_scaling``) --
   construct no ``Counters``, ``PhaseReport`` or ``SimReport``;
2. the array tail, which computes every row's compute, memory, overhead
   and phase seconds as columns per layout group, equals each entry's
   one-entry report (and the scalar reference's) bit for bit on every
   branch of the per-phase model: cache-resident phases (two levels in
   one layout group), DRAM phases under matched and under proportional
   placement, phases with no memory traffic, ``effective_threads``
   scaling, the spread penalty, and scheduling and sync overheads -- at
   the engine's block budget and at 64 entries per block.
"""

from __future__ import annotations

import collections
import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.backends import get_backend
from repro.campaign.executor import execute_wave, point_context
from repro.campaign.plan import plan_campaign
from repro.campaign.spec import CampaignSpec, PointSpec
from repro.campaign.store import DONE
from repro.errors import SimulationError
from repro.execution.policy import PAR
from repro.machines import get_machine
from repro.memory.layout import PagePlacement
from repro.scenarios.resolve import make_context
from repro.sim import wave
from repro.sim.bandwidth import MATCHED_POLICIES
from repro.sim.engine import arrays_to_profile, simulate_cpu
from repro.sim.report import Counters, PhaseReport, SimReport
from repro.sim.wave import (
    ArrayPhase,
    ArrayProfile,
    WaveEntry,
    fuse_wave,
    simulate_cpu_arrays,
    simulate_wave,
)
from repro.sim.work import PhaseKind
from repro.suite.batch import batch_problem_scaling, batch_strong_scaling
from repro.suite.cases import get_case
from repro.types import FLOAT64

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "diffcheck.py"


def _load_diffcheck():
    spec = importlib.util.spec_from_file_location("diffcheck", _TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules["diffcheck"] = module  # dataclasses resolve via sys.modules
    spec.loader.exec_module(module)
    return module


diffcheck = _load_diffcheck()


# --- 1. the fused feeders build no report objects --------------------------


@pytest.fixture
def built(monkeypatch):
    """Counts of Counters, PhaseReport and SimReport constructions."""
    counts: collections.Counter = collections.Counter()
    for cls in (Counters, PhaseReport, SimReport):
        def counting(self, _check=cls.__post_init__, _name=cls.__name__):
            counts[_name] += 1
            _check(self)
        monkeypatch.setattr(cls, "__post_init__", counting)
    return counts


def test_fused_campaign_wave_builds_no_report(built):
    spec = CampaignSpec(name="no-reports", machines=("A", "C"),
                        backends=("GCC-TBB", "GCC-HPX", "GCC-SEQ"),
                        cases=("reduce", "find", "inclusive_scan", "sort"),
                        size_exps=(10, 16))
    payloads = [task.point.to_dict()
                for task in plan_campaign(spec).runnable]
    results = execute_wave(payloads)
    assert sum(r["status"] == DONE for r in results) > 20
    assert not built, dict(built)
    # The seconds are the one-entry reports' (built only now).
    for payload, result in zip(payloads, results):
        if result["status"] == DONE:
            point = PointSpec.from_dict(payload)
            ctx = point_context(point)
            profile = get_case(point.case).profile(ctx, point.n)
            report = simulate_cpu_arrays(ctx.machine, ctx.backend, profile)
            assert result["seconds"].hex() == report.seconds.hex()
    assert built["SimReport"] > 0


def test_fused_sweep_curve_builds_no_report(built):
    ctx = make_context("B", "GCC-HPX", threads=16)
    case = get_case("for_each_k1000")
    threads = batch_strong_scaling(case, ctx, 1 << 20, [1, 2, 8, 16, 64])
    sizes = batch_problem_scaling(case, ctx, [1 << 10, 1 << 16, 1 << 22])
    assert not built, dict(built)
    for t, seconds, ok in threads:
        point = ctx.with_(threads=t)
        report = simulate_cpu_arrays(point.machine, point.backend,
                                     case.profile(point, 1 << 20))
        assert ok and seconds.hex() == report.seconds.hex()
    for n, seconds, ok in sizes:
        report = simulate_cpu_arrays(ctx.machine, ctx.backend,
                                     case.profile(ctx, n))
        assert ok and seconds.hex() == report.seconds.hex()


# --- 2. the array tail, branch by branch -----------------------------------


def _phase(name, threads, chunks, *, read=8.0, write=0.0, placement=None,
           working_set=1 << 30, kind=PhaseKind.PARALLEL, **extra):
    """A phase of ``chunks`` round-robin chunks of uneven sizes."""
    return ArrayPhase(
        name=name, kind=kind,
        thread=np.arange(chunks, dtype=np.int64) % threads,
        elems=1000.0 + np.arange(chunks) % 7 * 13.0,
        instr_per_elem=3.0, fp_per_elem=1.0,
        read_per_elem=read, write_per_elem=write,
        placement=placement, working_set=working_set, **extra,
    )


def _branch_entries():
    """``(branch, WaveEntry)`` pairs, each entry exercising one branch."""
    a, c = get_machine("A"), get_machine("C")
    tbb = get_backend("GCC-TBB")
    capped = dataclasses.replace(get_backend("GCC-HPX"), eff_thread_cap=4,
                                 eff_thread_exp=0.5)
    on_node0 = PagePlacement.single_node(0, 2, "default")
    spread_c = PagePlacement.proportional([1.0] * 8, "interleave")
    matched_c = PagePlacement.proportional([1.0] * 8, "first-touch")
    skewed_a = PagePlacement.proportional([1.0, 3.0], "interleave")

    def entry(machine, backend, threads, *phases):
        return WaveEntry(machine, backend, ArrayProfile(
            alg="for_each", n=1 << 20, elem=FLOAT64, threads=threads,
            policy=PAR, phases=phases))

    return [
        ("cache", entry(a, tbb, 6, _phase(
            "cached", 6, 48, placement=on_node0, working_set=1 << 16))),
        # The same partition (one layout group) fitting a larger level.
        ("cache-l2", entry(a, tbb, 6, _phase(
            "cached-l2", 6, 48, placement=on_node0, working_set=1 << 20))),
        ("dram-matched", entry(c, tbb, 8, _phase(
            "matched", 8, 48, placement=matched_c))),
        ("dram-proportional", entry(a, tbb, 6, _phase(
            "proportional", 6, 48, write=4.0, placement=skewed_a))),
        ("no-traffic", entry(a, tbb, 4,
                             _phase("no-bytes", 4, 48, read=0.0,
                                    placement=on_node0),
                             _phase("no-placement", 4, 96))),
        ("scaled", entry(c, capped, 16, _phase(
            "scaled", 16, 96, placement=matched_c, working_set=1 << 16))),
        ("spread", entry(c, tbb, 8, _phase(
            "spread", 8, 48, placement=spread_c, spread_penalty=1.5))),
        ("overheads", entry(c, capped, 6,
                            _phase("sched", 6, 48, placement=matched_c,
                                   sched_chunks=48, sync_points=3),
                            _phase("combine", 6, 1, kind=PhaseKind.SEQUENTIAL,
                                   placement=on_node0, working_set=64))),
    ]


def test_every_branch_is_exercised():
    entries = dict(_branch_entries())
    level = {name: entry.machine.caches.fitting_level(
        int(entry.profile.phases[0].working_set),
        len(set(entry.profile.phases[0].thread.tolist())))
        for name, entry in entries.items()}
    reports = {name: simulate_cpu_arrays(e.machine, e.backend, e.profile)
               for name, e in entries.items()}
    first = {name: report.phases[0] for name, report in reports.items()}
    for name in ("cache", "cache-l2"):
        assert level[name] is not None and first[name].memory_seconds > 0
    assert level["cache"].level < level["cache-l2"].level
    for name, matched in (("dram-matched", True),
                          ("dram-proportional", False)):
        placement = entries[name].profile.phases[0].placement
        assert level[name] is None and first[name].memory_seconds > 0
        assert (placement.policy in MATCHED_POLICIES) is matched
    assert [p.memory_seconds for p in reports["no-traffic"].phases] == [0, 0]
    scaled = entries["scaled"]
    assert scaled.backend.effective_threads(16) < 16
    assert first["scaled"].memory_seconds > 0  # scaled lanes meet memory
    spread = first["spread"]
    assert spread.seconds > max(spread.compute_seconds, spread.memory_seconds)
    assert first["overheads"].overhead_seconds > 0
    assert reports["overheads"].phases[1].overhead_seconds == 0


@pytest.mark.parametrize("block_entries", [wave.BLOCK_ENTRIES, 64])
def test_array_tail_matches_one_entry_reports(monkeypatch, block_entries):
    branches = _branch_entries() * 2  # equal phases share layout groups
    expected = [simulate_cpu_arrays(e.machine, e.backend, e.profile)
                for _name, e in branches]
    reference = [simulate_cpu(e.machine, e.backend,
                              arrays_to_profile(e.profile))
                 for _name, e in branches]
    monkeypatch.setattr(wave, "BLOCK_ENTRIES", block_entries)
    result = simulate_wave(fuse_wave([e for _name, e in branches]))
    assert len(result) == len(branches)
    for i, (name, _entry) in enumerate(branches):
        report = result[i]
        assert result.seconds[i].hex() == report.seconds.hex(), name
        for want in (expected[i], reference[i]):
            assert (diffcheck._report_fields(report)
                    == diffcheck._report_fields(want)), name


def test_a_negative_counter_raises_on_the_seconds_path_too():
    """Backends do not reject a negative traffic factor or instruction
    overhead. Where such a model folds a negative counter, the report
    raises on it, and so does the fused seconds path, which folds no
    counter otherwise; where the fold stays non-negative, both agree."""
    a = get_machine("A")
    base = dataclasses.replace(get_backend("GCC-TBB"), instr_overhead={},
                               traffic_factors={})
    cached = _phase("cached", 6, 48, placement=PagePlacement.single_node(
        0, 2, "default"), working_set=1 << 16)

    def entry(backend):
        return WaveEntry(a, backend, ArrayProfile(
            alg="for_each", n=1 << 20, elem=FLOAT64, threads=6, policy=PAR,
            phases=(cached,)))

    for field, value, counter in (("default_traffic_factor", -1.0,
                                   "bytes_read"),
                                  ("default_instr_overhead", -10.0,
                                   "instructions")):
        bad = entry(dataclasses.replace(base, **{field: value}))
        message = f"counter {counter} must be non-negative"
        with pytest.raises(SimulationError, match=message):
            simulate_cpu_arrays(bad.machine, bad.backend, bad.profile)
        with pytest.raises(SimulationError, match=message):
            simulate_wave(fuse_wave([entry(base), bad])).seconds
    mild = entry(dataclasses.replace(base, default_instr_overhead=-1.0))
    report = simulate_cpu_arrays(mild.machine, mild.backend, mild.profile)
    (seconds,) = simulate_wave(fuse_wave([mild])).seconds
    assert seconds.hex() == report.seconds.hex()
