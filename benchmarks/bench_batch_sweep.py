"""Batch engine acceptance: vectorized sweeps are >= 5x faster, bitwise equal.

The vectorized path (``repro.sim.wave`` / ``repro.suite.batch``) exists
to make campaign-scale grids cheap: a whole sweep curve becomes one
fused NumPy array program instead of one Python-object simulation per
cell.
This module pins both halves of that contract on the Fig. 2 problem-size
sweep (the paper's densest curve family: 3 machines x 6 backends x
28 sizes x k_it in {1, 1000}):

* **speed** -- the batch path regenerates Fig. 2 at least 5x faster than
  the scalar per-point path (measured ~8x in this container);
* **fidelity** -- the regenerated figure is *bit-identical*, point for
  point, to the scalar path's output (the differential harness in
  ``tools/diffcheck.py`` enforces the same promise per SimReport field).
"""

from __future__ import annotations

import time

import pytest

from repro.experiments.fig2 import foreach_problem_series, run_fig2

#: The acceptance floor for the vectorized path on the Fig. 2 sweep.
MIN_SPEEDUP = 5.0


@pytest.fixture(scope="module")
def timed_paths():
    """(scalar_seconds, batch_seconds, scalar_result, batch_result)."""
    run_fig2(size_step=4, batch=True)  # warm imports outside the timings
    t0 = time.perf_counter()
    scalar = run_fig2(size_step=1, batch=False)
    t1 = time.perf_counter()
    batch = run_fig2(size_step=1, batch=True)
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1, scalar, batch


def test_bench_batch_sweep(benchmark):
    """The benchmarked quantity: Fig. 2 through the vectorized path."""
    result = benchmark.pedantic(
        run_fig2, kwargs=dict(size_step=1, batch=True), rounds=1, iterations=1
    )
    assert result.experiment_id == "fig2"


def test_batch_path_at_least_5x_faster(timed_paths):
    scalar_s, batch_s, _, _ = timed_paths
    speedup = scalar_s / batch_s
    print(f"\nfig2 sweep: scalar {scalar_s:.3f}s, batch {batch_s:.3f}s, "
          f"speedup {speedup:.1f}x")
    assert speedup >= MIN_SPEEDUP


def test_batch_path_bit_identical(timed_paths):
    _, _, scalar, batch = timed_paths
    assert scalar.data.keys() == batch.data.keys()
    assert scalar.data == batch.data  # SweepResults compare exact floats
    assert scalar.rendered == batch.rendered


def test_panel_points_match_exactly():
    """Per-point spot check on one panel, both k_it regimes."""
    for k_it in (1, 1000):
        scalar = foreach_problem_series("A", k_it, size_step=2, batch=False)
        batch = foreach_problem_series("A", k_it, size_step=2, batch=True)
        assert scalar.keys() == batch.keys()
        for backend, sweep in scalar.items():
            assert batch[backend].points == sweep.points
