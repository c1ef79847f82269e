"""Tests for the roofline analysis module."""

import pytest

from repro import pstl
from repro.analysis.roofline import (
    Boundedness,
    analyze_profile,
    machine_balance,
)
from repro.errors import ConfigurationError
from repro.suite.kernels import listing1_kernel
from repro.types import FLOAT64


class TestMachineBalance:
    def test_parallel_balance_positive(self, mach_a):
        assert machine_balance(mach_a) > 0

    def test_sequential_balance_lower(self, mach_a):
        # One core has relatively more bandwidth per instruction.
        assert machine_balance(mach_a, parallel=False) < machine_balance(mach_a)


class TestClassification:
    def test_for_each_k1_memory_bound(self, mach_a, model_ctx):
        arr = model_ctx.allocate(1 << 24, FLOAT64)
        prof = pstl.for_each(model_ctx, arr, listing1_kernel(1)).profile
        point = analyze_profile(mach_a, prof)
        assert point.boundedness is Boundedness.MEMORY_BOUND

    def test_for_each_k1000_compute_bound(self, mach_a, model_ctx):
        arr = model_ctx.allocate(1 << 24, FLOAT64)
        prof = pstl.for_each(model_ctx, arr, listing1_kernel(1000)).profile
        point = analyze_profile(mach_a, prof)
        assert point.boundedness is Boundedness.COMPUTE_BOUND

    def test_reduce_memory_bound(self, mach_a, model_ctx):
        arr = model_ctx.allocate(1 << 24, FLOAT64)
        prof = pstl.reduce(model_ctx, arr).profile
        point = analyze_profile(mach_a, prof)
        assert point.boundedness is Boundedness.MEMORY_BOUND

    def test_no_traffic_is_compute_bound(self, mach_a):
        import numpy as np

        from repro.execution.policy import PAR
        from repro.sim.wave import ArrayPhase, ArrayProfile
        from repro.sim.work import PhaseKind

        prof = ArrayProfile(
            alg="x",
            n=100,
            elem=FLOAT64,
            threads=1,
            policy=PAR,
            phases=(
                ArrayPhase(
                    name="p",
                    kind=PhaseKind.SEQUENTIAL,
                    thread=np.zeros(1, dtype=np.int64),
                    elems=np.array([100.0]),
                    instr_per_elem=10.0,
                    fp_per_elem=0.0,
                    read_per_elem=0.0,
                    write_per_elem=0.0,
                    placement=None,
                    working_set=0.0,
                ),
            ),
            regions=0,
        )
        point = analyze_profile(mach_a, prof)
        assert point.boundedness is Boundedness.COMPUTE_BOUND
        assert point.speedup_bound == mach_a.total_cores

    def test_slack_validated(self, mach_a, model_ctx):
        arr = model_ctx.allocate(1 << 10, FLOAT64)
        prof = pstl.reduce(model_ctx, arr).profile
        with pytest.raises(ConfigurationError):
            analyze_profile(mach_a, prof, slack=0.9)


class TestSpeedupBound:
    def test_bound_between_stream_ratio_and_cores(self, mach_a, model_ctx):
        arr = model_ctx.allocate(1 << 24, FLOAT64)
        prof = pstl.reduce(model_ctx, arr).profile
        bound = analyze_profile(mach_a, prof).speedup_bound
        assert bound <= mach_a.total_cores + 1e-9
        assert bound >= 1.0

    def test_simulator_respects_bound(self, mach_a, model_ctx, seq_ctx):
        """The cost engine never beats the analytic roofline bound (with
        slack for the turbo-clocked baseline and codegen factors)."""
        for k in (1, 1000):
            kernel = listing1_kernel(k)
            n = 1 << 28
            prof = pstl.for_each(
                model_ctx, model_ctx.allocate(n, FLOAT64), kernel
            ).profile
            bound = analyze_profile(mach_a, prof).speedup_bound
            ts = pstl.for_each(seq_ctx, seq_ctx.allocate(n, FLOAT64), kernel).seconds
            tp = pstl.for_each(
                model_ctx, model_ctx.allocate(n, FLOAT64), kernel
            ).seconds
            assert ts / tp <= bound * 1.6

    def test_compute_bound_work_bounded_by_cores(self, mach_c):
        from repro.backends import get_backend
        from repro.execution.context import ExecutionContext

        ctx = ExecutionContext(mach_c, get_backend("gcc-tbb"), threads=128)
        arr = ctx.allocate(1 << 24, FLOAT64)
        prof = pstl.for_each(ctx, arr, listing1_kernel(1000)).profile
        bound = analyze_profile(mach_c, prof).speedup_bound
        assert bound == pytest.approx(128, rel=0.05)
