"""Tests for JSON export and phase breakdowns."""

import json

import pytest

from repro import pstl
from repro.analysis.breakdown import breakdown, render_breakdown
from repro.analysis.export import (
    bench_result_to_dict,
    curve_to_dict,
    dump_json,
    sweep_to_dict,
)
from repro.analysis.speedup import ScalingCurve
from repro.errors import ConfigurationError
from repro.suite.cases import get_case
from repro.suite.kernels import listing1_kernel
from repro.suite.sweeps import problem_scaling
from repro.suite.wrappers import run_case
from repro.types import FLOAT64


class TestSweepExport:
    def test_round_trips_through_json(self, model_ctx):
        sweep = problem_scaling(
            get_case("reduce"), model_ctx, sizes=[1 << 10, 1 << 14]
        )
        payload = json.loads(dump_json(sweep_to_dict(sweep)))
        assert payload["variable"] == "size"
        assert len(payload["points"]) == 2
        assert payload["points"][0]["x"] == 1 << 10

    def test_unsupported_points_are_null(self, mach_a, gnu):
        from repro.execution.context import ExecutionContext

        ctx = ExecutionContext(mach_a, gnu, threads=8)
        sweep = problem_scaling(get_case("inclusive_scan"), ctx, sizes=[64])
        payload = sweep_to_dict(sweep)
        assert payload["points"][0]["seconds"] is None
        json.loads(dump_json(payload))  # NaN never leaks into the JSON


class TestCurveAndBenchExport:
    def test_curve(self):
        curve = ScalingCurve("x", (1, 2), (4.0, 2.0), baseline_seconds=4.0)
        payload = curve_to_dict(curve)
        assert payload["speedups"] == [1.0, 2.0]
        assert payload["efficiencies"] == [1.0, 1.0]

    def test_bench_result(self, model_ctx):
        result = run_case(get_case("reduce"), model_ctx, 1 << 18, min_time=0.0)
        payload = bench_result_to_dict(result)
        assert payload["iterations"] == result.iterations
        assert payload["counters"]["instructions"] > 0
        json.loads(dump_json(payload))


class TestExperimentExport:
    """A scenario's cells are plain JSON (N/A as null)."""

    def test_fig1_exports(self):
        from repro.scenarios import get_scenario, run_scenario

        run = run_scenario(get_scenario("fig1").with_axes(size_exps=[20]))
        parsed = json.loads(dump_json(dict(run.cells)))
        assert parsed["GCC-TBB/reduce"] > 0
        assert parsed["GCC-GNU/inclusive_scan"] is None

    def test_counter_stats_export(self):
        import dataclasses

        from repro.scenarios import get_scenario, run_scenario

        spec = dataclasses.replace(
            get_scenario("table4"), backends=("GCC-TBB",), size_exps=(18,),
            options={"calls": 1})
        parsed = json.loads(dump_json(dict(run_scenario(spec).cells)))
        assert parsed["GCC-TBB/instructions"] > 0


class TestBreakdown:
    def test_shares_sum_near_one(self, model_ctx):
        arr = model_ctx.allocate(1 << 26, FLOAT64)
        report = pstl.inclusive_scan(model_ctx, arr).report
        shares = breakdown(report)
        assert sum(s.share for s in shares) == pytest.approx(1.0, abs=0.02)

    def test_memory_bound_phase_labelled(self, model_ctx):
        arr = model_ctx.allocate(1 << 28, FLOAT64)
        report = pstl.for_each(model_ctx, arr, listing1_kernel(1)).report
        shares = {s.name: s for s in breakdown(report)}
        assert shares["map"].bound_by == "memory"

    def test_compute_bound_phase_labelled(self, model_ctx):
        arr = model_ctx.allocate(1 << 24, FLOAT64)
        report = pstl.for_each(model_ctx, arr, listing1_kernel(1000)).report
        shares = {s.name: s for s in breakdown(report)}
        assert shares["map"].bound_by == "compute"

    def test_fork_join_row_present(self, model_ctx):
        arr = model_ctx.allocate(1 << 20, FLOAT64)
        report = pstl.reduce(model_ctx, arr).report
        names = [s.name for s in breakdown(report)]
        assert "(fork/join)" in names

    def test_gpu_migration_row(self, mach_d):
        from repro.backends import get_backend
        from repro.execution.context import ExecutionContext

        ctx = ExecutionContext(mach_d, get_backend("nvc-cuda"))
        arr = ctx.allocate(1 << 24, FLOAT64)
        report = pstl.reduce(ctx, arr).report
        names = [s.name for s in breakdown(report)]
        assert "(migration)" in names

    def test_render(self, model_ctx):
        arr = model_ctx.allocate(1 << 20, FLOAT64)
        report = pstl.reduce(model_ctx, arr).report
        out = render_breakdown(report, title="reduce")
        assert "Bound by" in out and out.splitlines()[0] == "reduce"

    def test_zero_time_rejected(self):
        from repro.sim.report import Counters, SimReport

        with pytest.raises(ConfigurationError):
            breakdown(SimReport(seconds=0.0, counters=Counters()))
