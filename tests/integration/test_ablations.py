"""Ablations: switch one model mechanism off and watch a paper effect move.

Each class turns one ingredient of the cost model into a dial -- page
placement, chunking granularity, the GPU link, the NUMA terms -- and
checks which of the paper's behaviours that ingredient explains
(DESIGN.md section 4).
"""

import dataclasses

import pytest

from repro import pstl
from repro.backends import get_backend
from repro.execution.context import ExecutionContext
from repro.machines import get_machine
from repro.memory.allocators import (
    DefaultAllocator,
    InterleavedAllocator,
    ParallelFirstTouchAllocator,
)
from repro.scenarios.resolve import make_context
from repro.sim.gpu import GpuExecution
from repro.suite.cases import _case_for_each, get_case
from repro.suite.kernels import listing1_kernel
from repro.suite.wrappers import measure_case
from repro.types import FLOAT32, FLOAT64

N30 = 1 << 30


class TestAllocatorPolicy:
    """Page placement x bandwidth, the mechanism behind Fig. 1: spreading
    pages vs matching them to threads, across 2-node, 8-node and the
    single-node ARM extension."""

    ALLOCATORS = {
        "default": DefaultAllocator,
        "interleave": InterleavedAllocator,
        "first-touch": ParallelFirstTouchAllocator,
    }

    @pytest.fixture(scope="class")
    def grid(self):
        def seconds(machine, allocator):
            ctx = make_context(machine, "gcc-tbb",
                               allocator=self.ALLOCATORS[allocator]())
            return measure_case(get_case("for_each_k1"), ctx, N30)

        return {(m, a): seconds(m, a)
                for m in ("A", "B", "C", "arm") for a in self.ALLOCATORS}

    def test_spreading_suffices_on_two_nodes(self, grid):
        """On 2-node Mach A, interleaving alone recovers most of the gain:
        both memory controllers serve traffic either way."""
        gain_ft = grid[("A", "default")] / grid[("A", "first-touch")]
        gain_il = grid[("A", "default")] / grid[("A", "interleave")]
        assert gain_il > 1.0 + 0.5 * (gain_ft - 1.0)

    def test_matching_required_on_eight_nodes(self, grid):
        """On the 8-node Zen machines unmatched pages make ~7/8 of accesses
        remote and the interconnect binds: only thread-matched first touch
        pays off -- locality, not spreading, is the mechanism."""
        for machine in ("B", "C"):
            gain_il = grid[(machine, "default")] / grid[(machine, "interleave")]
            gain_ft = grid[(machine, "default")] / grid[(machine, "first-touch")]
            assert gain_il < 1.1, machine
            assert gain_ft > 1.5, machine

    def test_matching_still_beats_interleaving(self, grid):
        for machine in ("A", "B", "C"):
            assert grid[(machine, "first-touch")] <= grid[(machine, "interleave")] * 1.001

    def test_effect_vanishes_without_numa(self, grid):
        """On the 1-node ARM extension, allocator choice is irrelevant."""
        times = [grid[("arm", a)] for a in self.ALLOCATORS]
        assert max(times) / min(times) < 1.02

    def test_effect_grows_with_node_count(self, grid):
        gain = {m: grid[(m, "default")] / grid[(m, "first-touch")]
                for m in ("A", "B", "C")}
        assert gain["B"] > gain["A"] * 0.9
        assert gain["C"] > gain["A"] * 0.9


def _foreach_seconds(backend, n, machine=None, threads=32):
    machine = machine if machine is not None else get_machine("A")
    ctx = ExecutionContext(machine, backend, threads=threads)
    return pstl.for_each(ctx, ctx.allocate(n, FLOAT64), listing1_kernel(1)).seconds


class TestChunking:
    """Scheduling units: OpenMP static (one chunk per thread), TBB
    auto_partitioner (a few per thread), HPX fixed grains. More chunks buy
    load-balance headroom for irregular work but cost scheduling overhead
    on small regular work."""

    @staticmethod
    def _chunks(backend, chunks_per_thread):
        return dataclasses.replace(
            backend, chunks_per_thread=chunks_per_thread, fixed_chunk_elems=0
        )

    def test_more_chunks_cost_overhead_on_small_regular_work(self, tbb):
        t1 = _foreach_seconds(self._chunks(tbb, 1), 1 << 14)
        t64 = _foreach_seconds(self._chunks(tbb, 64), 1 << 14)
        assert t64 > t1

    def test_chunk_count_irrelevant_for_large_regular_work(self, tbb):
        t1 = _foreach_seconds(self._chunks(tbb, 1), N30)
        t64 = _foreach_seconds(self._chunks(tbb, 64), N30)
        assert t64 == pytest.approx(t1, rel=0.02)

    def test_finer_chunks_reduce_find_overshoot(self, tbb):
        """Early-exit find: coarse chunks make every thread scan half its
        big chunk; fine chunks stop the team closer to the hit."""
        def scanned(backend):
            ctx = ExecutionContext(get_machine("A"), backend, threads=32)
            result = pstl.find(ctx, ctx.allocate(1 << 26, FLOAT64), 1.0)
            return result.profile.phases[0].total_elems

        coarse = scanned(self._chunks(tbb, 1))
        fine = scanned(self._chunks(tbb, 32))
        assert fine <= coarse * 1.05

    def test_hpx_grain_tradeoff(self, hpx):
        """Tiny grains explode the chunk count and pay contention-scaled
        scheduling; huge grains serialise the range."""
        n = 1 << 24
        default = _foreach_seconds(hpx, n)
        assert _foreach_seconds(dataclasses.replace(hpx, fixed_chunk_elems=512), n) > default
        assert _foreach_seconds(dataclasses.replace(hpx, fixed_chunk_elems=n), n) > default

    def test_static_partition_matches_tbb_steady_state(self, tbb):
        """For uniform work, static and work-stealing land within 5 %."""
        static = _foreach_seconds(self._chunks(tbb, 1), 1 << 28)
        stealing = _foreach_seconds(self._chunks(tbb, 8), 1 << 28)
        assert stealing == pytest.approx(static, rel=0.05)


class TestGpuTransfer:
    """Unified-memory migration bandwidth and launch latency (Figs. 8/9):
    the GPUs are transfer-bound at low intensity."""

    N = 1 << 28

    def _gpu_time(self, k_it, pcie_bw=None, launch=None, n=None):
        gpu = get_machine("D")
        if pcie_bw is not None:
            gpu = dataclasses.replace(gpu, pcie_bandwidth=pcie_bw)
        if launch is not None:
            gpu = dataclasses.replace(gpu, kernel_launch_latency=launch)
        ctx = ExecutionContext(gpu, get_backend("nvc-cuda"),
                               gpu_options=GpuExecution(transfer_back=True))
        return measure_case(_case_for_each(k_it), ctx, n or self.N, FLOAT32)

    def _crossover_k(self, pcie_bw=None):
        """Smallest k_it (powers of 2) where the GPU beats the parallel CPU."""
        cpu_ctx = make_context("gpu-host", "nvc-omp")
        for e in range(0, 15):
            k = 1 << e
            cpu = measure_case(_case_for_each(k), cpu_ctx, self.N, FLOAT32)
            if self._gpu_time(k, pcie_bw=pcie_bw) < cpu:
                return k
        return 1 << 15

    def test_intensity_crossover_in_range(self):
        assert 2 <= self._crossover_k() <= 4096

    def test_low_intensity_time_is_mostly_transfer(self):
        assert self._gpu_time(1, pcie_bw=1e13) < self._gpu_time(1) / 5

    def test_faster_link_moves_crossover_down(self):
        assert self._crossover_k(pcie_bw=24e9) <= self._crossover_k(pcie_bw=3e9) / 2

    def test_high_intensity_insensitive_to_link(self):
        k = 1 << 14
        assert self._gpu_time(k, pcie_bw=3e9) == pytest.approx(
            self._gpu_time(k, pcie_bw=24e9), rel=0.1)

    def test_launch_latency_only_matters_for_tiny_problems(self):
        assert self._gpu_time(1, launch=2e-3) == pytest.approx(
            self._gpu_time(1), rel=0.05)
        tiny_default = self._gpu_time(1, launch=20e-6, n=1 << 8)
        assert self._gpu_time(1, launch=2e-3, n=1 << 8) > 10 * tiny_default


class TestNumaModel:
    """The engine's two calibrated NUMA mechanisms -- geometric locality
    decay with node count and the cross-node interconnect cap -- each
    switched off by backend/machine surgery."""

    @pytest.fixture(scope="class")
    def times(self):
        tbb = get_backend("gcc-tbb")
        no_decay = dataclasses.replace(tbb, default_numa_quality=1.0,
                                       numa_qualities={})
        out = {}
        for name in ("A", "B", "C"):
            machine = get_machine(name)
            cores = machine.total_cores
            fat_link = dataclasses.replace(machine, interconnect_bw=1e12)
            out[(name, "full")] = _foreach_seconds(tbb, N30, machine, cores)
            out[(name, "no-decay")] = _foreach_seconds(no_decay, N30, machine, cores)
            out[(name, "free-interconnect")] = _foreach_seconds(
                tbb, N30, fat_link, cores)
        return out

    def test_decay_explains_zen_slowdown(self, times):
        for mach in ("B", "C"):
            assert times[(mach, "no-decay")] < times[(mach, "full")] / 1.5

    def test_decay_barely_matters_on_two_nodes(self, times):
        assert times[("A", "full")] / times[("A", "no-decay")] < 1.3

    def test_interconnect_cap_binds_on_zen(self, times):
        for mach in ("B", "C"):
            assert times[(mach, "free-interconnect")] < times[(mach, "full")] * 0.9

    def test_numa_terms_explain_the_paper_inversion(self, times):
        """Table 5 implies 64-core Mach B is absolutely slower than 32-core
        Mach A for for_each k=1 despite 1.5x the STREAM bandwidth; removing
        either NUMA term flips it back to the naive bandwidth ordering."""
        assert times[("B", "full")] > times[("A", "full")]
        assert times[("B", "no-decay")] < times[("A", "no-decay")]
        assert times[("B", "free-interconnect")] < times[("A", "free-interconnect")]
