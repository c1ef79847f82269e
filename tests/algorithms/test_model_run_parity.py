"""Model-mode profiles must agree with run-mode profiles.

This is the core validity argument of DESIGN.md section 1: the paper-scale
sweeps run in model mode, so model mode must emit the same work profiles
(hence the same costs) as actually executing the algorithm, for every
deterministic algorithm. Early-exit algorithms agree whenever the actual
hit matches the modeled expectation.
"""

import numpy as np
import pytest

from repro import pstl
from repro.backends import get_backend
from repro.execution.context import ExecutionContext
from repro.machines import get_machine
from repro.suite.kernels import listing1_kernel
from repro.types import FLOAT64

N = 1 << 14


@pytest.fixture(params=["gcc-tbb", "gcc-gnu", "gcc-hpx", "nvc-omp"])
def ctx_pair(request):
    machine = get_machine("A")
    backend = get_backend(request.param)
    run = ExecutionContext(machine, backend, threads=8, mode="run")
    model = ExecutionContext(machine, backend, threads=8, mode="model")
    return run, model


def _same_array(a, b):
    """Equal dtype, shape and bits (float-hex exact, -0.0 distinct)."""
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _assert_profiles_equal(p_run, p_model):
    assert p_run.alg == p_model.alg
    assert p_run.threads == p_model.threads
    assert p_run.regions == p_model.regions
    assert len(p_run.phases) == len(p_model.phases)
    for a, b in zip(p_run.phases, p_model.phases):
        assert a.name == b.name
        assert _same_array(a.thread, b.thread)
        assert _same_array(a.elems, b.elems)
        for cost in ("instr_per_elem", "fp_per_elem", "read_per_elem",
                     "write_per_elem", "working_set", "spread_penalty"):
            assert float(getattr(a, cost)).hex() == float(getattr(b, cost)).hex()
        assert a.placement == b.placement
        assert a.sched_chunks == b.sched_chunks
        assert a.sync_points == b.sync_points


def test_for_each_parity(ctx_pair):
    run, model = ctx_pair
    kernel = listing1_kernel(5)
    arr_r = run.array_from(np.arange(N, dtype=np.float64), FLOAT64)
    arr_m = model.allocate(N, FLOAT64)
    _assert_profiles_equal(
        pstl.for_each(run, arr_r, kernel).profile,
        pstl.for_each(model, arr_m, kernel).profile,
    )


def test_reduce_parity(ctx_pair):
    run, model = ctx_pair
    arr_r = run.array_from(np.ones(N), FLOAT64)
    arr_m = model.allocate(N, FLOAT64)
    _assert_profiles_equal(
        pstl.reduce(run, arr_r).profile, pstl.reduce(model, arr_m).profile
    )


def test_scan_parity(ctx_pair):
    run, model = ctx_pair
    if run.backend.name == "GCC-GNU":
        pytest.skip("GNU has no parallel scan (paper N/A)")
    arr_r = run.array_from(np.ones(N), FLOAT64)
    out_r = run.allocate(N, FLOAT64)
    arr_m = model.allocate(N, FLOAT64)
    out_m = model.allocate(N, FLOAT64)
    _assert_profiles_equal(
        pstl.inclusive_scan(run, arr_r, out=out_r).profile,
        pstl.inclusive_scan(model, arr_m, out=out_m).profile,
    )


def test_sort_parity(ctx_pair):
    run, model = ctx_pair
    data = np.random.default_rng(0).permutation(N).astype(np.float64)
    arr_r = run.array_from(data, FLOAT64)
    arr_m = model.allocate(N, FLOAT64)
    _assert_profiles_equal(
        pstl.sort(run, arr_r).profile, pstl.sort(model, arr_m).profile
    )


def test_find_expected_work_matches_average_run_work(ctx_pair):
    """Model-mode find work equals run-mode work averaged over targets.

    Model mode budgets the scan with the *expectation* over a uniform
    target; sampling many run-mode hits must converge to it.
    """
    run, model = ctx_pair
    rng = np.random.default_rng(7)
    samples = []
    for _ in range(40):
        hit = int(rng.integers(0, N))
        data = np.zeros(N)
        data[hit] = 1.0
        arr_r = run.array_from(data, FLOAT64)
        samples.append(pstl.find(run, arr_r, 1.0).profile.phases[0].total_elems)
    arr_m = model.allocate(N, FLOAT64)
    expected = pstl.find(model, arr_m, 1.0).profile.phases[0].total_elems
    assert np.mean(samples) == pytest.approx(expected, rel=0.35)


def test_simulated_times_identical(ctx_pair):
    """Same profile -> bit-identical simulated seconds."""
    run, model = ctx_pair
    arr_r = run.array_from(np.ones(N), FLOAT64)
    arr_m = model.allocate(N, FLOAT64)
    t_run = pstl.reduce(run, arr_r).seconds
    t_model = pstl.reduce(model, arr_m).seconds
    assert t_run == t_model
