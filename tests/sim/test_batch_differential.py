"""Differential harness: the wave point and curve paths must match the
scalar reference engine bitwise.

The engine itself is pinned to the reference in
``test_wave_differential.py``, and the one profile builder to a frozen
golden in ``tests/algorithms/test_builder_golden.py``; this file pins
the point and sweep helpers that cost every case on the wave engine
against ``simulate_cpu`` on ``arrays_to_profile`` of the same profile:

1. path equivalence -- ``measure_case_batch`` and ``measure_case``
   equal the reference for every case on the paper's grid corners,
   including exception parity for N/A cells, and whole sweeps agree
   point for point;
2. the randomized sweep (marker ``diffcheck``, shared with
   ``tools/diffcheck.py`` and the CI job): hundreds of seeded random
   configurations across machines x backends x allocators x cases x
   sizes x threads x dtypes, comparing the full SimReport.

Plus the observability contract: a sweep is one fused wave with one
clocked ``wave.execute`` span, traced or not.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.errors import UnsupportedOperationError
from repro.execution.context import ExecutionContext
from repro.sim.engine import arrays_to_profile, simulate_cpu
from repro.sim.wave import WAVE_TRACK
from repro.suite.batch import (
    batch_problem_scaling,
    batch_strong_scaling,
    measure_case_batch,
)
from repro.suite.cases import case_names, get_case
from repro.suite.sweeps import problem_scaling, strong_scaling
from repro.suite.wrappers import measure_case
from repro.trace import Tracer, use_tracer

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "diffcheck.py"


def _load_diffcheck():
    import sys

    spec = importlib.util.spec_from_file_location("diffcheck", _TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules["diffcheck"] = module  # dataclasses resolve via sys.modules
    spec.loader.exec_module(module)
    return module


diffcheck = _load_diffcheck()


def _assert_reports_identical(scalar, batch):
    """Field-by-field bitwise comparison of two SimReports."""
    left = diffcheck._report_fields(scalar)
    right = diffcheck._report_fields(batch)
    assert len(left) == len(right)
    for (name_s, value_s), (name_b, value_b) in zip(left, right):
        assert name_s == name_b
        assert value_s == value_b, f"{name_s}: scalar={value_s} batch={value_b}"


def _reference(case, ctx, n):
    """Seconds of ``case`` at one point on the scalar reference engine."""
    profile = case.profile(ctx, n)
    return simulate_cpu(ctx.machine, ctx.backend,
                        arrays_to_profile(profile)).seconds


# --- 1. path equivalence ---------------------------------------------------


@pytest.mark.parametrize("case_name", case_names())
def test_builders_match_scalar_measurements(case_name, model_ctx, seq_ctx):
    """measure_case_batch == measure_case == the reference, bitwise, on
    grid corners."""
    case = get_case(case_name)
    for ctx in (model_ctx, seq_ctx):
        for n in (1, 2, 63, 4096, 1 << 20):
            reference = _reference(case, ctx, n)
            assert measure_case_batch(case, ctx, n) == reference
            assert measure_case(case, ctx, n) == reference


def test_na_cells_agree(mach_a, gnu):
    """Capability gaps raise UnsupportedOperationError on every path."""
    ctx = ExecutionContext(mach_a, gnu, threads=8, mode="model")
    case = get_case("inclusive_scan")  # GNU has no parallel scan
    with pytest.raises(UnsupportedOperationError):
        _reference(case, ctx, 1 << 12)
    with pytest.raises(UnsupportedOperationError):
        measure_case(case, ctx, 1 << 12)
    with pytest.raises(UnsupportedOperationError):
        measure_case_batch(case, ctx, 1 << 12)


def test_sweeps_agree_between_paths(model_ctx):
    """A fused sweep equals the reference and the harness point for point."""
    sizes = [1 << e for e in range(3, 16, 3)]
    for name in ("reduce", "set_union"):
        case = get_case(name)
        sweep = problem_scaling(case, model_ctx, sizes)
        assert [(p.x, p.seconds, p.supported) for p in sweep.points] == [
            (n, _reference(case, model_ctx, n), True) for n in sizes
        ]
        assert sweep.ys() == [measure_case(case, model_ctx, n) for n in sizes]
        threads = [1, 2, 8, 32]
        sweep = strong_scaling(case, model_ctx, 1 << 14, threads)
        contexts = [model_ctx.with_(threads=t) for t in threads]
        assert [(p.x, p.seconds, p.supported) for p in sweep.points] == [
            (t, _reference(case, ctx, 1 << 14), True)
            for t, ctx in zip(threads, contexts)
        ]
        assert sweep.ys() == [measure_case(case, ctx, 1 << 14)
                              for ctx in contexts]


# --- 2. the randomized differential sweep ----------------------------------


@pytest.mark.diffcheck
def test_randomized_configs_bit_identical():
    """>= 200 seeded random configurations, zero divergences."""
    divergences = diffcheck.run_diffcheck(configs=200, seed=0)
    assert not divergences, "\n".join(divergences)


def test_random_configs_are_deterministic():
    """The sampled sweep is reproducible for a given seed."""
    assert diffcheck.random_configs(25, 7) == diffcheck.random_configs(25, 7)
    assert diffcheck.random_configs(25, 7) != diffcheck.random_configs(25, 8)


def test_compare_point_flags_a_real_divergence(monkeypatch):
    """The comparator is not vacuous: a perturbed batch path is caught."""
    import repro.suite.batch as batch_mod

    config = diffcheck.DiffConfig(
        machine="A", backend="GCC-TBB", allocator=None,
        case="reduce", n=4096, threads=8, dtype="double",
    )
    assert diffcheck.compare_point(config) == []
    real = batch_mod.simulate_case_batch

    def skewed(case, ctx, n, elem=None, **kwargs):
        report = real(case, ctx, n) if elem is None else real(
            case, ctx, n, elem
        )
        return report.with_extra_seconds(1e-9)

    monkeypatch.setattr("repro.suite.batch.simulate_case_batch", skewed)
    assert diffcheck.compare_point(config)


# --- observability ---------------------------------------------------------


def test_batch_sweep_records_curve_span(model_ctx):
    """An explicit batch sweep is one wave: one clocked ``wave.execute``."""
    tracer = Tracer()
    with use_tracer(tracer):
        points = batch_problem_scaling(
            get_case("reduce"), model_ctx, [1 << 10, 1 << 12, 1 << 14]
        )
    spans = [s for s in tracer.spans if s.name == "wave.execute"]
    assert len(spans) == 1
    (span,) = spans
    assert span.category == "wave"
    assert span.track == WAVE_TRACK
    assert span.attributes["points"] == 3
    total = 0.0
    for _, seconds, ok in points:
        if ok:
            total += seconds  # the span's left fold, in curve order
    assert span.duration == total
    assert tracer.clock == total


def test_batch_strong_scaling_records_curve_span(model_ctx, gnu):
    """The thread sweep is one wave too; N/A points never join it."""
    tracer = Tracer()
    with use_tracer(tracer):
        batch_strong_scaling(get_case("reduce"), model_ctx, 1 << 12, [1, 2, 4])
    spans = [s for s in tracer.spans if s.name == "wave.execute"]
    assert len(spans) == 1
    assert spans[0].attributes["points"] == 3

    tracer = Tracer()
    with use_tracer(tracer):
        points = batch_strong_scaling(
            get_case("inclusive_scan"), model_ctx.with_(backend=gnu), 1 << 12,
            [1, 2, 4],
        )
    # GNU has no parallel scan: every point is N/A, and an empty wave
    # neither records a span nor advances the clock.
    assert [ok for _, _, ok in points] == [False, False, False]
    assert not [s for s in tracer.spans if s.name == "wave.execute"]
    assert tracer.clock == 0.0


def test_tracing_keeps_the_wave_path(model_ctx):
    """A traced sweep is the untraced sweep's one fused wave, with the
    same points; only a run-mode sweep costs point by point."""
    case, sizes = get_case("reduce"), [1 << 10, 1 << 12, 1 << 14]
    untraced = problem_scaling(case, model_ctx, sizes)
    tracer = Tracer()
    with use_tracer(tracer):
        traced = problem_scaling(case, model_ctx, sizes)
    assert traced == untraced
    (execute,) = [s for s in tracer.spans if s.name == "wave.execute"]
    assert execute.attributes["points"] == len(sizes)
    assert [s for s in tracer.spans if s.category == "phase"]
    assert not [s for s in tracer.spans if s.category in ("bench", "call")]

    tracer = Tracer()
    with use_tracer(tracer):
        problem_scaling(case, model_ctx.with_(mode="run"), [1 << 4])
    assert not [s for s in tracer.spans if s.name == "wave.execute"]
    assert [s for s in tracer.spans if s.category == "call"]
