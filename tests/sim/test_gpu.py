"""Tests for the GPU cost engine."""

import dataclasses

import numpy as np
import pytest

from repro.execution.policy import PAR
from repro.memory.array import SimArray
from repro.memory.layout import PagePlacement
from repro.sim.gpu import GpuExecution, simulate_gpu
from repro.sim.wave import ArrayPhase, ArrayProfile
from repro.sim.work import PhaseKind
from repro.types import FLOAT32


def _arr(n=1 << 20):
    return SimArray(
        n=n, elem=FLOAT32, placement=PagePlacement.single_node(0, 1, "default")
    )


def _profile(n=1 << 20, fp_per_elem=1.0, bytes_per_elem=8.0):
    phase = ArrayPhase(
        name="kernel",
        kind=PhaseKind.PARALLEL,
        thread=np.zeros(1, dtype=np.int64),
        elems=np.array([float(n)]),
        instr_per_elem=1.0,
        fp_per_elem=fp_per_elem,
        read_per_elem=bytes_per_elem / 2,
        write_per_elem=bytes_per_elem / 2,
        placement=None,
        working_set=0.0,
    )
    return ArrayProfile(
        alg="for_each",
        n=n,
        elem=FLOAT32,
        threads=1,
        policy=PAR,
        phases=(phase,),
        regions=1,
    )


class TestMigration:
    def test_first_call_pays_h2d(self, mach_d):
        arr = _arr()
        rep = simulate_gpu(mach_d, _profile(), (arr,))
        assert rep.migration_seconds == pytest.approx(
            arr.nbytes / mach_d.pcie_bandwidth
        )
        assert arr.device_resident_fraction == 1.0

    def test_chained_call_pays_nothing(self, mach_d):
        arr = _arr()
        simulate_gpu(mach_d, _profile(), (arr,))
        rep2 = simulate_gpu(mach_d, _profile(), (arr,))
        assert rep2.migration_seconds == 0.0

    def test_forced_transfer_back(self, mach_d):
        arr = _arr()
        opts = GpuExecution(transfer_back=True)
        rep = simulate_gpu(mach_d, _profile(), (arr,), opts)
        assert rep.migration_seconds == pytest.approx(
            2 * arr.nbytes / mach_d.pcie_bandwidth
        )
        assert arr.device_resident_fraction == 0.0

    def test_transfer_dominates_light_kernels(self, mach_d):
        arr = _arr()
        opts = GpuExecution(transfer_back=True)
        rep = simulate_gpu(mach_d, _profile(fp_per_elem=1.0), (arr,), opts)
        assert rep.migration_seconds > 0.5 * rep.seconds


class TestKernelRoofline:
    def test_launch_latency_charged(self, mach_d):
        arr = _arr(1024)
        rep = simulate_gpu(mach_d, _profile(n=1024), (arr,))
        assert rep.fork_join_seconds == pytest.approx(mach_d.kernel_launch_latency)

    def test_compute_bound_scales_with_fp(self, mach_d):
        def kernel_only(fp):
            rep = simulate_gpu(mach_d, _profile(fp_per_elem=fp), (_arr(),))
            return rep.seconds - rep.migration_seconds - rep.fork_join_seconds

        assert kernel_only(10000) > 10 * kernel_only(10)

    def test_memory_bound_floor(self, mach_d):
        arr = _arr()
        rep = simulate_gpu(mach_d, _profile(fp_per_elem=0.0, bytes_per_elem=8.0), (arr,))
        kernel = rep.seconds - rep.migration_seconds - rep.fork_join_seconds
        assert kernel >= (arr.n * 8.0) / mach_d.mem_bandwidth * 0.99

    def test_fp64_slower_than_fp32(self, mach_d):
        from repro.types import FLOAT64

        arr32 = _arr()
        p32 = _profile(fp_per_elem=1000)
        t32 = simulate_gpu(mach_d, p32, (arr32,)).seconds

        arr64 = SimArray(
            n=1 << 20,
            elem=FLOAT64,
            placement=PagePlacement.single_node(0, 1, "default"),
        )
        p64 = dataclasses.replace(p32, elem=FLOAT64)
        t64 = simulate_gpu(mach_d, p64, (arr64,)).seconds
        assert t64 > t32
