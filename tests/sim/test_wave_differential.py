"""Differential harness: the wave engine must match the scalar engine bitwise.

``repro.sim.wave`` is the only vectorized evaluator, so it is pinned
directly to the scalar reference engine (``repro.sim.engine``). Layers:

1. engine equivalence -- the one-entry ``simulate_cpu_arrays`` on every
   case's array profile reproduces ``simulate_cpu`` on the
   ``arrays_to_profile`` view of it field for field, and so does the
   report an invocation costs (``ctx.simulate``); every backend's array partition
   materialises chunk objects that tile the range; ``simulate_wave``
   over a heterogeneous fused program (every machine x backend x case
   cell in one wave, mixed sizes)
   reproduces each entry's one-entry and scalar reports, including the
   degenerate single-entry and empty waves, a wave whose length groups
   outgrow one phase block, and a partition that is not round-robin;
2. the randomized sweep (marker ``diffcheck``, shared with
   ``tools/diffcheck.py`` and the CI job): seeded random configuration
   groups fused wave-style and diffed entry by entry against scalar;
3. the observability contract: fusing/executing a wave emits the
   ``wave.fuse`` / ``wave.execute`` spans on the ``wave`` track, and
   the engine stays span-silent when no tracer is installed;
4. bounded memory: evaluating a wave of fine-grained GCC-HPX profiles
   allocates a few dozen bytes per chunk entry, not a fused copy.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.scenarios.resolve import make_context
from repro.sim.engine import arrays_to_profile, simulate_cpu
from repro.sim.wave import (
    BLOCK_ENTRIES,
    WAVE_TRACK,
    WaveEntry,
    fuse_wave,
    simulate_cpu_arrays,
    simulate_wave,
    simulate_wave_entries,
)
from repro.suite.cases import case_names, get_case
from repro.suite.wrappers import measure_case
from repro.trace import Tracer, use_tracer
from repro.types import elem_type

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "diffcheck.py"


def _load_diffcheck():
    import sys

    spec = importlib.util.spec_from_file_location("diffcheck", _TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules["diffcheck"] = module  # dataclasses resolve via sys.modules
    spec.loader.exec_module(module)
    return module


diffcheck = _load_diffcheck()


def _assert_reports_identical(wave, reference):
    left = diffcheck._report_fields(wave)
    right = diffcheck._report_fields(reference)
    assert len(left) == len(right)
    for (name_w, value_w), (name_r, value_r) in zip(left, right):
        assert name_w == name_r
        assert value_w == value_r, f"{name_w}: wave={value_w} ref={value_r}"


def _profile(case: str, ctx, n: int):
    """``case``'s array profile at one point, uncosted."""
    return get_case(case).profile(ctx, n)


def _mixed_wave():
    """A deliberately heterogeneous wave: every cell of a mini-campaign."""
    entries = []
    expected = []
    for machine in ("A", "B", "C"):
        for backend in ("GCC-TBB", "GCC-GNU", "GCC-SEQ"):
            for case in case_names():
                for n in (1, 63, 1 << 12):
                    ctx = make_context(machine, backend, threads=8)
                    try:
                        profile = _profile(case, ctx, n)
                    except Exception:
                        continue  # N/A cells: parity is diffcheck's job
                    entries.append(WaveEntry(ctx.machine, ctx.backend, profile))
                    expected.append(simulate_cpu(
                        ctx.machine, ctx.backend, arrays_to_profile(profile)
                    ))
    assert len(entries) > 100  # the wave really is campaign-shaped
    return entries, expected


# --- 1. engine equivalence -------------------------------------------------


def _invocations(model_ctx):
    """Every case's invocation at n = 4097, its report not yet read."""
    from repro.types import FLOAT64

    results = []
    for case_name in case_names():
        case = get_case(case_name)
        arrays = case.setup(model_ctx, 4097, FLOAT64)
        results.append(case.invoke(model_ctx, arrays, 0))
    return results


def test_engine_matches_on_converted_scalar_profiles(model_ctx):
    """simulate_cpu_arrays(r.profile) == r.report == the reference's cost."""
    results = _invocations(model_ctx)
    assert len(results) == 33
    for result in results:
        wave = simulate_cpu_arrays(
            model_ctx.machine, model_ctx.backend, result.profile
        )
        reference = simulate_cpu(
            model_ctx.machine, model_ctx.backend,
            arrays_to_profile(result.profile),
        )
        _assert_reports_identical(wave, reference)
        _assert_reports_identical(result.report, reference)


def test_engine_matches_on_converted_array_profiles(model_ctx):
    """simulate_cpu(arrays_to_profile(ap)) == simulate_cpu_arrays(ap)."""
    for case_name in case_names():
        array_profile = _profile(case_name, model_ctx, 4097)
        wave = simulate_cpu_arrays(
            model_ctx.machine, model_ctx.backend, array_profile
        )
        scalar = simulate_cpu(
            model_ctx.machine, model_ctx.backend, arrays_to_profile(array_profile)
        )
        _assert_reports_identical(wave, scalar)


def test_partition_arrays_matches_scalar_partitions(mach_a, tbb, gnu, hpx):
    """Each backend's array partition materialises chunks that tile [0, n)."""
    from repro.execution.partition import Partition

    for backend in (tbb, gnu, hpx):
        for n in (1, 7, 1024, 4097):
            for threads in (1, 3, 8):
                part = backend.make_partition(n, threads)
                assert part.num_chunks == len(part.chunks)
                assert np.array_equal(part.starts, [c.start for c in part.chunks])
                assert np.array_equal(part.sizes, [len(c) for c in part.chunks])
                assert np.array_equal(part.thread, [c.thread for c in part.chunks])
                assert np.array_equal(part.elems, part.sizes)
                # The validating object constructor accepts the same chunks.
                Partition(n, threads, part.chunks, part.strategy)
                assert part is backend.make_partition(n, threads)  # shared


def test_fused_wave_matches_batch_per_entry():
    """Fusing a whole wave changes no entry: == one-entry and scalar reports."""
    entries, expected = _mixed_wave()
    reports = simulate_wave(fuse_wave(entries))
    assert len(reports) == len(expected)
    for entry, wave_report, scalar_report in zip(entries, reports, expected):
        _assert_reports_identical(wave_report, scalar_report)
        _assert_reports_identical(wave_report, simulate_cpu_arrays(
            entry.machine, entry.backend, entry.profile
        ))


def test_single_entry_wave_matches_batch():
    ctx = make_context("A", "GCC-TBB", threads=16)
    profile = _profile("reduce", ctx, 1 << 16)
    (report,) = simulate_wave_entries(
        [WaveEntry(ctx.machine, ctx.backend, profile)]
    )
    _assert_reports_identical(
        report, simulate_cpu_arrays(ctx.machine, ctx.backend, profile)
    )
    _assert_reports_identical(
        report, simulate_cpu(ctx.machine, ctx.backend, arrays_to_profile(profile))
    )


def test_empty_wave_is_empty():
    program = fuse_wave([])
    assert len(program) == 0
    result = simulate_wave(program)
    assert len(result) == 0 and result.seconds == () and list(result) == []


def test_wave_and_scalar_agree_end_to_end():
    """Close the triangle directly: fused wave seconds == the reference's
    seconds == the harness's measured seconds."""
    ctx = make_context("B", "GCC-TBB", threads=12)
    entries = []
    scalar_seconds = []
    for case in ("reduce", "find", "inclusive_scan"):
        profile = _profile(case, ctx, 1 << 14)
        entries.append(WaveEntry(ctx.machine, ctx.backend, profile))
        reference = simulate_cpu(
            ctx.machine, ctx.backend, arrays_to_profile(profile)
        ).seconds
        measured = measure_case(get_case(case), ctx, 1 << 14, elem_type("double"))
        assert float(measured).hex() == reference.hex()
        scalar_seconds.append(reference)
    for report, seconds in zip(simulate_wave(fuse_wave(entries)), scalar_seconds):
        assert report.seconds.hex() == float(seconds).hex()


def _assert_wave_matches_scalar(entries):
    reports = simulate_wave(fuse_wave(entries))
    assert len(reports) == len(entries)
    for entry, report in zip(entries, reports):
        _assert_reports_identical(report, simulate_cpu(
            entry.machine, entry.backend, arrays_to_profile(entry.profile)
        ))
    return reports


def test_wave_larger_than_a_block_matches_scalar():
    """1-chunk, small and 32,768-chunk phases in one wave; the 32,768-chunk
    length group holds more phases than one block, so it spans blocks."""
    entries = []
    for threads in (2, 3, 5):
        ctx = make_context("C", "GCC-HPX", threads=threads)
        entries.append(WaveEntry(ctx.machine, ctx.backend,
                                 _profile("reduce", ctx, 1 << 30)))
    for backend, threads in (("GCC-SEQ", 1), ("GCC-TBB", 8), ("GCC-GNU", 5)):
        ctx = make_context("C", backend, threads=threads)
        for case in ("reduce", "find", "sort"):
            entries.append(WaveEntry(ctx.machine, ctx.backend,
                                     _profile(case, ctx, 1 << 14)))
    lengths = [len(phase)
               for entry in entries for phase in entry.profile.phases]
    assert 1 in lengths and any(1 < n < 100 for n in lengths)
    assert lengths.count(32768) > max(1, BLOCK_ENTRIES // 32768)
    _assert_wave_matches_scalar(entries)


def test_non_round_robin_partition_matches_scalar():
    """Contiguous per-thread runs (a work-stealing partition) share a block
    with a round-robin phase of the same chunk count and still match."""
    from repro.algorithms._build import PerElem, parallel_phase
    from repro.execution.partition import WorkStealingPartitioner

    ctx = make_context("C", "GCC-TBB", threads=6)
    n = 1 << 24
    round_robin = _profile("reduce", ctx, n)
    first = round_robin.phases[0]
    stolen = parallel_phase(
        first.name, WorkStealingPartitioner().partition(n, ctx.threads),
        PerElem(instr=3.0, fp=1.0, read=8.0, write=4.0),
        first.placement, first.working_set,
    )
    profile = dataclasses.replace(
        round_robin, phases=(stolen, *round_robin.phases[1:])
    )
    threads = profile.phases[0].thread
    assert len(threads) == len(round_robin.phases[0])
    assert not np.array_equal(threads, np.arange(len(threads)) % ctx.threads)
    _assert_wave_matches_scalar([
        WaveEntry(ctx.machine, ctx.backend, profile),
        WaveEntry(ctx.machine, ctx.backend, round_robin),
    ])


def test_fuse_rejects_oversubscribed_profile_like_batch():
    """Fused and one-entry evaluation reject oversubscription alike."""
    ctx = make_context("A", "GCC-TBB", threads=4)
    profile = _profile("reduce", ctx, 1 << 10)
    bad = dataclasses.replace(profile, threads=ctx.machine.total_cores + 1)
    with pytest.raises(SimulationError):
        fuse_wave([WaveEntry(ctx.machine, ctx.backend, bad)])
    with pytest.raises(SimulationError):
        simulate_cpu_arrays(ctx.machine, ctx.backend, bad)


# --- 2. randomized sweep (shared with tools/diffcheck.py and CI) -----------


@pytest.mark.diffcheck
def test_randomized_wave_groups_agree_with_batch():
    """Fused random groups agree with the scalar path entry by entry."""
    sample = diffcheck.random_configs(96, seed=7)
    for start in range(0, len(sample), diffcheck.WAVE_GROUP):
        group = sample[start:start + diffcheck.WAVE_GROUP]
        divergences = diffcheck.compare_wave(group)
        assert not divergences, "\n".join(divergences)


@pytest.mark.diffcheck
def test_randomized_sample_is_the_same_with_memos_cold_and_warm():
    """Each configuration costed right after the engine memos are cleared
    equals the whole sample costed warm, bit for bit."""
    divergences = diffcheck.compare_memos(diffcheck.random_configs(48, seed=7))
    assert not divergences, "\n".join(divergences)


# --- 3. observability contract ---------------------------------------------


def test_wave_spans_emitted_under_tracing():
    ctx = make_context("A", "GCC-TBB", threads=8)
    entries = [
        WaveEntry(ctx.machine, ctx.backend, _profile(case, ctx, 1 << 12))
        for case in ("reduce", "find")
    ]
    tracer = Tracer()
    with use_tracer(tracer):
        reports = simulate_wave_entries(entries)
    spans = {s.name: s for s in tracer.spans}
    fuse = spans["wave.fuse"]
    execute = spans["wave.execute"]
    assert fuse.track == WAVE_TRACK and execute.track == WAVE_TRACK
    assert fuse.category == "wave" and execute.category == "wave"
    assert fuse.attributes["points"] == 2
    assert fuse.duration == 0.0
    total = 0.0
    for report in reports:
        total += report.seconds
    assert execute.duration == total
    assert tracer.clock == total  # wave.execute advances simulated time


def test_no_spans_without_tracer():
    ctx = make_context("A", "GCC-TBB", threads=8)
    entries = [WaveEntry(ctx.machine, ctx.backend,
                         _profile("reduce", ctx, 1 << 12))]
    tracer = Tracer()
    reports = simulate_wave_entries(entries)  # no use_tracer: must not record
    assert len(reports) == 1
    assert not tracer.spans


# --- 4. bounded memory -----------------------------------------------------


def test_wave_memory_per_chunk_entry_is_bounded():
    """64 GCC-HPX reduce profiles at 2^30 (2,097,216 chunk entries): fusing
    and evaluating them allocates under 64 B per entry at peak. A fused
    copy of every chunk field plus its chunk-length temporaries reads
    about 162 B."""
    entries = []
    for threads in range(2, 66):
        ctx = make_context("C", "GCC-HPX", threads=threads)
        entries.append(WaveEntry(ctx.machine, ctx.backend,
                                 _profile("reduce", ctx, 1 << 30)))
    chunks = sum(entry.profile.chunk_entries for entry in entries)
    assert chunks == 2_097_216
    tracemalloc.start()
    try:
        reports = simulate_wave(fuse_wave(entries))
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(reports) == len(entries)
    assert peak / chunks < 64, f"{peak / chunks:.1f} B per chunk entry"
