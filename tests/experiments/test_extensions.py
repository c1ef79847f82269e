"""Tests for the beyond-the-paper extensions: ARM machine, CLANG-OMP
backend, weak scaling.

Section 6 of the paper names more compilers/backends and other
architectures such as ARM as future work. These are the model's
predictions for them -- what the suite says *before* anyone measures the
real hardware.
"""

import dataclasses

import pytest

from repro.backends import STUDY_BACKENDS, get_backend
from repro.errors import UnsupportedOperationError
from repro.machines import get_machine
from repro.machines.presets import ALL_CPU_MACHINES
from repro.scenarios import get_scenario, run_scenario
from repro.scenarios.resolve import make_context
from repro.suite.cases import HEADLINE_CASES, get_case
from repro.suite.sweeps import thread_counts
from repro.suite.wrappers import measure_case

N30 = 1 << 30


def allocator_speedup(machine, backend, case, threads, size_exp=30):
    """Fig. 1's T_default / T_custom for one cell on any machine."""
    spec = dataclasses.replace(
        get_scenario("fig1"), machines=(machine,), backends=(backend,),
        cases=(case,), threads=(threads,), size_exps=(size_exp,),
    )
    return run_scenario(spec).cells[f"{backend}/{case}"]


def speedup(machine, backend, case, n=N30):
    """Speedup vs the sequential GCC baseline at all cores."""
    base = measure_case(get_case(case), make_context(machine, "gcc-seq"), n)
    return base / measure_case(get_case(case), make_context(machine, backend), n)


class TestArmMachine:
    def test_registered_with_aliases(self):
        for name in ("arm", "altra", "mach-arm"):
            assert get_machine(name).name == "Mach ARM"

    def test_single_numa_node(self):
        arm = get_machine("arm")
        assert arm.num_numa_nodes == 1
        assert arm.total_cores == 80

    def test_no_turbo_no_boost(self):
        arm = get_machine("arm")
        assert arm.seq_turbo_factor == 1.0
        assert arm.node_bw_boost == 1.0

    def test_not_in_paper_machine_list(self):
        assert "ARM" not in ALL_CPU_MACHINES

    def test_allocator_effect_vanishes(self):
        """Model prediction: no NUMA -> no Fig. 1 effect."""
        ratio = allocator_speedup("arm", "GCC-TBB", "reduce", threads=80, size_exp=26)
        assert ratio == pytest.approx(1.0, abs=0.02)
        ratio = allocator_speedup("arm", "GCC-TBB", "for_each_k1", threads=80)
        assert ratio == pytest.approx(1.0, abs=0.02)

    def test_stream_anchors(self):
        from repro.machines import stream_bandwidth

        arm = get_machine("arm")
        assert stream_bandwidth(arm, 1) == pytest.approx(36e9)
        assert stream_bandwidth(arm, 80) == pytest.approx(175e9)

    def test_memory_bound_tracks_stream_ratio(self):
        """Without NUMA effects, memory-bound speedups track STREAM (~4.9)."""
        ratio = get_machine("arm").ideal_bandwidth_speedup()
        assert 0.5 * ratio < speedup("arm", "GCC-TBB", "reduce") <= 1.1 * ratio

    def test_compute_bound_near_core_count(self):
        assert 60 < speedup("arm", "GCC-TBB", "for_each_k1000") <= 81


class TestClangBackend:
    def test_registered(self):
        assert get_backend("clang-omp").name == "CLANG-OMP"
        assert get_backend("llvm-omp").name == "CLANG-OMP"

    def test_excluded_from_study(self):
        assert "CLANG-OMP" not in STUDY_BACKENDS

    def test_overhead_between_tbb_and_gnu(self):
        clang = get_backend("clang-omp").instr_overhead_per_elem("for_each")
        tbb = get_backend("gcc-tbb").instr_overhead_per_elem("for_each")
        gnu = get_backend("gcc-gnu").instr_overhead_per_elem("for_each")
        assert tbb < clang < gnu

    def test_runs_headline_cases(self):
        ctx = make_context("A", "clang-omp")
        for case in HEADLINE_CASES:
            assert measure_case(get_case(case), ctx, 1 << 20) > 0

    def test_between_tbb_and_gnu_on_maps(self):
        times = {
            b: measure_case(get_case("for_each_k1"), make_context("A", b), N30)
            for b in ("GCC-TBB", "GCC-GNU", "CLANG-OMP", "GCC-HPX")
        }
        assert times["CLANG-OMP"] < times["GCC-HPX"]
        assert (
            min(times["GCC-TBB"], times["GCC-GNU"]) * 0.8
            < times["CLANG-OMP"]
            < max(times["GCC-TBB"], times["GCC-GNU"]) * 1.2
        )


def weak_scaling(machine, backend, case_name, base_exp):
    """(threads, sizes, seconds) with n = 2^base_exp elements per thread."""
    case = get_case(case_name)
    ctx = make_context(machine, backend)
    threads = thread_counts(ctx.machine.total_cores)
    sizes = [(1 << base_exp) * t for t in threads]
    seconds = [measure_case(case, ctx.with_(threads=t), n)
               for t, n in zip(threads, sizes)]
    return threads, sizes, seconds


class TestWeakScaling:
    """Weak scaling (n grows with the thread count): flat per-call time
    for scalable work, rising once per-node memory controllers saturate
    -- the Fig. 3 NUMA story told from another angle."""

    @pytest.fixture(scope="class")
    def on_mach_c(self):
        return {
            (backend, case): weak_scaling("C", backend, case, base_exp=22)[2]
            for case in ("for_each_k1", "for_each_k1000", "reduce")
            for backend in ("GCC-TBB", "GCC-GNU", "NVC-OMP")
        }

    def test_curve_shape(self):
        threads, sizes, seconds = weak_scaling("A", "GCC-TBB", "reduce", base_exp=20)
        assert threads[0] == 1 and threads[-1] == 32
        assert sizes == [(1 << 20) * t for t in threads]
        assert len(seconds) == len(threads)

    def test_run_weak_scaling_renders(self):
        _, _, seconds = weak_scaling("A", "GCC-TBB", "reduce", base_exp=20)
        assert all(s > 0 for s in seconds)

    def test_unsupported_cases_skipped(self):
        with pytest.raises(UnsupportedOperationError):
            weak_scaling("A", "GCC-GNU", "inclusive_scan", base_exp=18)

    def test_compute_bound_weak_scales(self, on_mach_c):
        """Flat from 2 threads up; efficiency vs t=1 plateaus near 1/1.27
        because t=1 runs at Zen 3's single-thread turbo clock."""
        for backend in ("GCC-TBB", "GCC-GNU", "NVC-OMP"):
            seconds = on_mach_c[(backend, "for_each_k1000")]
            assert seconds[-1] <= seconds[1] * 1.05, backend
            assert seconds[0] / seconds[-1] > 0.70, backend

    def test_memory_bound_loses_efficiency(self, on_mach_c):
        for backend in ("GCC-TBB", "GCC-GNU"):
            seconds = on_mach_c[(backend, "for_each_k1")]
            assert seconds[0] / seconds[-1] < 0.6, backend

    def test_time_nondecreasing_with_team_size(self, on_mach_c):
        """Per-thread work is fixed, so time can only stay flat or rise."""
        for key, times in on_mach_c.items():
            assert all(b >= a * 0.98 for a, b in zip(times, times[1:])), key
