"""Differential harness: the wave engine must match the scalar engine bitwise.

``repro.sim.wave`` is the only vectorized evaluator, so it is pinned
directly to the scalar reference engine (``repro.sim.engine``). Layers:

1. engine equivalence -- the one-entry ``simulate_cpu_arrays`` on a
   converted profile reproduces ``simulate_cpu`` field for field, both
   directions of the ``profile_to_arrays`` / ``arrays_to_profile``
   converters, and the array partitioner reproduces every backend's
   chunk layout; ``simulate_wave`` over a heterogeneous fused program
   (every machine x backend x case cell in one wave, mixed sizes)
   reproduces each entry's one-entry and scalar reports, including the
   degenerate single-entry and empty waves, a wave whose length groups
   outgrow one phase block, and a partition that is not round-robin;
2. the GPU array path -- ``simulate_gpu_arrays`` reproduces
   ``simulate_gpu`` on captured profiles, including unified-memory
   residency mutation across chained calls;
3. the randomized sweep (marker ``diffcheck``, shared with
   ``tools/diffcheck.py`` and the CI job): seeded random configuration
   groups fused wave-style and diffed entry by entry against scalar;
4. the observability contract: fusing/executing a wave emits the
   ``wave.fuse`` / ``wave.execute`` spans on the ``wave`` track, and
   the engine stays span-silent when no tracer is installed;
5. bounded memory: evaluating a wave of fine-grained GCC-HPX profiles
   allocates a few dozen bytes per chunk entry, not a fused copy.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.execution.context import ExecutionContext
from repro.scenarios.resolve import make_context
from repro.sim.engine import simulate_cpu
from repro.sim.gpu import simulate_gpu
from repro.sim.wave import (
    BLOCK_ENTRIES,
    WAVE_TRACK,
    WaveEntry,
    arrays_to_profile,
    fuse_wave,
    partition_arrays,
    profile_to_arrays,
    simulate_cpu_arrays,
    simulate_gpu_arrays,
    simulate_wave,
    simulate_wave_entries,
)
from repro.suite.batch import BATCH_CASES, batch_supported, build_array_profile
from repro.suite.cases import get_case
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


def _mixed_wave():
    """A deliberately heterogeneous wave: every cell of a mini-campaign."""
    entries = []
    expected = []
    for machine in ("A", "B", "C"):
        for backend in ("GCC-TBB", "GCC-GNU", "GCC-SEQ"):
            for case in BATCH_CASES:
                for n in (1, 63, 1 << 12):
                    ctx = make_context(machine, backend, threads=8)
                    try:
                        profile = build_array_profile(
                            case, ctx, n, elem_type("double")
                        )
                    except Exception:
                        continue  # N/A cells: parity is diffcheck's job
                    entries.append(WaveEntry(ctx.machine, ctx.backend, profile))
                    expected.append(simulate_cpu(
                        ctx.machine, ctx.backend, arrays_to_profile(profile)
                    ))
    assert len(entries) > 100  # the wave really is campaign-shaped
    return entries, expected


# --- 1. engine equivalence -------------------------------------------------


def _scalar_profiles(model_ctx):
    """Real WorkProfiles captured from scalar algorithm invocations."""
    from repro.types import FLOAT64

    profiles = []
    for case_name in BATCH_CASES:
        if not batch_supported(case_name, model_ctx):
            continue
        case = get_case(case_name)
        arrays = case.setup(model_ctx, 4097, FLOAT64)
        result = case.invoke(model_ctx, arrays, 0)
        profiles.append(result.profile)
    return profiles


def test_engine_matches_on_converted_scalar_profiles(model_ctx):
    """simulate_cpu_arrays(profile_to_arrays(p)) == simulate_cpu(p)."""
    profiles = _scalar_profiles(model_ctx)
    assert profiles
    for profile in profiles:
        scalar = simulate_cpu(model_ctx.machine, model_ctx.backend, profile)
        wave = simulate_cpu_arrays(
            model_ctx.machine, model_ctx.backend, profile_to_arrays(profile)
        )
        _assert_reports_identical(wave, scalar)


def test_engine_matches_on_converted_array_profiles(model_ctx):
    """simulate_cpu(arrays_to_profile(ap)) == simulate_cpu_arrays(ap)."""
    for case_name in BATCH_CASES:
        array_profile = build_array_profile(case_name, model_ctx, 4097)
        wave = simulate_cpu_arrays(
            model_ctx.machine, model_ctx.backend, array_profile
        )
        scalar = simulate_cpu(
            model_ctx.machine, model_ctx.backend, arrays_to_profile(array_profile)
        )
        _assert_reports_identical(wave, scalar)


def test_partition_arrays_matches_scalar_partitions(mach_a, tbb, gnu, hpx):
    """The array partitioner reproduces each backend's chunk layout."""
    import numpy as np

    for backend in (tbb, gnu, hpx):
        for n in (1, 7, 1024, 4097):
            for threads in (1, 3, 8):
                part = backend.make_partition(n, threads)
                starts, sizes, thread_ids, parts = partition_arrays(
                    backend, n, threads
                )
                assert parts == part.num_chunks
                assert np.array_equal(starts, [c.start for c in part.chunks])
                assert np.array_equal(sizes, [len(c) for c in part.chunks])
                assert np.array_equal(thread_ids, [c.thread for c in part.chunks])


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
    profile = build_array_profile("reduce", ctx, 1 << 16)
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
    assert simulate_wave(program) == ()


def test_wave_and_scalar_agree_end_to_end():
    """Close the triangle directly: wave seconds == scalar measured seconds."""
    ctx = make_context("B", "GCC-TBB", threads=12)
    entries = []
    scalar_seconds = []
    for case in ("reduce", "find", "inclusive_scan"):
        profile = build_array_profile(case, ctx, 1 << 14)
        entries.append(WaveEntry(ctx.machine, ctx.backend, profile))
        scalar_seconds.append(
            measure_case(get_case(case), ctx, 1 << 14, elem_type("double"))
        )
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
                                 build_array_profile("reduce", ctx, 1 << 30)))
    for backend, threads in (("GCC-SEQ", 1), ("GCC-TBB", 8), ("GCC-GNU", 5)):
        ctx = make_context("C", backend, threads=threads)
        for case in ("reduce", "find", "sort"):
            entries.append(WaveEntry(ctx.machine, ctx.backend,
                                     build_array_profile(case, ctx, 1 << 14)))
    lengths = [len(phase.chunks)
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
    round_robin = build_array_profile("reduce", ctx, n)
    base = arrays_to_profile(round_robin)
    first = base.phases[0]
    stolen = parallel_phase(
        first.name, WorkStealingPartitioner().partition(n, ctx.threads),
        PerElem(instr=3.0, fp=1.0, read=8.0, write=4.0),
        first.placement, first.working_set,
    )
    profile = profile_to_arrays(
        dataclasses.replace(base, phases=(stolen, *base.phases[1:]))
    )
    threads = profile.phases[0].chunks.thread
    assert len(threads) == len(round_robin.phases[0].chunks)
    assert not np.array_equal(threads, np.arange(len(threads)) % ctx.threads)
    reports = _assert_wave_matches_scalar([
        WaveEntry(ctx.machine, ctx.backend, profile),
        WaveEntry(ctx.machine, ctx.backend, round_robin),
    ])
    _assert_reports_identical(reports[0], simulate_cpu(
        ctx.machine, ctx.backend,
        dataclasses.replace(base, phases=(stolen, *base.phases[1:])),
    ))


def test_fuse_rejects_oversubscribed_profile_like_batch():
    """Fused and one-entry evaluation reject oversubscription alike."""
    ctx = make_context("A", "GCC-TBB", threads=4)
    profile = build_array_profile("reduce", ctx, 1 << 10)
    bad = dataclasses.replace(profile, threads=ctx.machine.total_cores + 1)
    with pytest.raises(SimulationError):
        fuse_wave([WaveEntry(ctx.machine, ctx.backend, bad)])
    with pytest.raises(SimulationError):
        simulate_cpu_arrays(ctx.machine, ctx.backend, bad)


# --- 2. the GPU array path -------------------------------------------------


def _gpu_profiles(gpu_ctx):
    """WorkProfiles + arrays captured from scalar GPU case invocations."""
    captured = []
    original = ExecutionContext.simulate

    def spy(self, profile, arrays=()):
        # Snapshot residency *before* the real call migrates these arrays.
        captured.append((profile, copy.deepcopy(tuple(arrays))))
        return original(self, profile, arrays)

    ExecutionContext.simulate = spy
    try:
        for case in ("reduce", "transform", "inclusive_scan"):
            measure_case(get_case(case), gpu_ctx, 1 << 14, elem_type("double"))
    finally:
        ExecutionContext.simulate = original
    assert captured
    return captured


def test_gpu_arrays_engine_matches_scalar_gpu():
    gpu_ctx = make_context("D", "NVC-CUDA")
    for profile, arrays in _gpu_profiles(gpu_ctx):
        scalar = simulate_gpu(
            gpu_ctx.machine, profile, copy.deepcopy(arrays), gpu_ctx.gpu_options
        )
        vectorized = simulate_gpu_arrays(
            gpu_ctx.machine,
            profile_to_arrays(profile),
            copy.deepcopy(arrays),
            gpu_ctx.gpu_options,
        )
        _assert_reports_identical(vectorized, scalar)


def test_gpu_arrays_mutates_residency_like_scalar():
    """Chained calls on the same arrays pay migration once (Fig. 9b shape)."""
    gpu_ctx = make_context("D", "NVC-CUDA")
    profile, arrays = _gpu_profiles(gpu_ctx)[0]
    arrays = copy.deepcopy(arrays)
    arrow = profile_to_arrays(profile)
    first = simulate_gpu_arrays(gpu_ctx.machine, arrow, arrays, gpu_ctx.gpu_options)
    second = simulate_gpu_arrays(gpu_ctx.machine, arrow, arrays, gpu_ctx.gpu_options)
    assert first.migration_seconds > 0.0
    assert second.migration_seconds == 0.0
    assert second.seconds < first.seconds


# --- 3. randomized sweep (shared with tools/diffcheck.py and CI) -----------


@pytest.mark.diffcheck
def test_randomized_wave_groups_agree_with_batch():
    """Fused random groups agree with the scalar path entry by entry."""
    sample = diffcheck.random_configs(96, seed=7)
    for start in range(0, len(sample), diffcheck.WAVE_GROUP):
        group = sample[start:start + diffcheck.WAVE_GROUP]
        divergences = diffcheck.compare_wave(group)
        assert not divergences, "\n".join(divergences)


# --- 4. observability contract ---------------------------------------------


def test_wave_spans_emitted_under_tracing():
    ctx = make_context("A", "GCC-TBB", threads=8)
    entries = [
        WaveEntry(ctx.machine, ctx.backend,
                  build_array_profile(case, ctx, 1 << 12))
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
                         build_array_profile("reduce", ctx, 1 << 12))]
    tracer = Tracer()
    reports = simulate_wave_entries(entries)  # no use_tracer: must not record
    assert len(reports) == 1
    assert not tracer.spans


# --- 5. bounded memory -----------------------------------------------------


def test_wave_memory_per_chunk_entry_is_bounded():
    """64 GCC-HPX reduce profiles at 2^30 (2,097,216 chunk entries): fusing
    and evaluating them allocates under 64 B per entry at peak. A fused
    copy of every chunk field plus its chunk-length temporaries reads
    about 162 B."""
    entries = []
    for threads in range(2, 66):
        ctx = make_context("C", "GCC-HPX", threads=threads)
        entries.append(WaveEntry(ctx.machine, ctx.backend,
                                 build_array_profile("reduce", ctx, 1 << 30)))
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
