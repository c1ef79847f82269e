"""Query layer: campaign outcomes reproduce the directly measured grid values."""

from __future__ import annotations

import pytest

from repro.campaign.executor import run_campaign
from repro.campaign.query import (
    bench_rows,
    cell_curves,
    efficiency_grid,
    filter_results,
    speedup_grid,
    store_query,
)
from repro.analysis.speedup import ScalingCurve, max_threads_above_efficiency
from repro.campaign.store import DONE, NA, ResultStore
from repro.errors import UnsupportedOperationError
from repro.scenarios import campaign_spec
from repro.scenarios.resolve import make_context
from repro.suite.cases import get_case
from repro.suite.sweeps import strong_scaling
from repro.suite.wrappers import measure_case

SIZE_EXP = 14
EFFICIENCY_THRESHOLD = 0.70


def table5_campaign_spec(size_exp):
    return campaign_spec("table5", {"size_exps": [size_exp]})


def table6_campaign_spec(size_exp):
    return campaign_spec("table6", {"size_exps": [size_exp]})


def _baseline(machine, case_name, n):
    return measure_case(get_case(case_name), make_context(machine, "gcc-seq"), n)


def cell_speedup(machine, backend, case_name, size_exp):
    """One Table 5 cell measured directly, outside the campaign layer."""
    if (machine, backend) == ("B", "ICC-TBB"):
        return None  # ICC is absent from Mach B (Table 2)
    n = 1 << size_exp
    try:
        par = measure_case(get_case(case_name), make_context(machine, backend), n)
    except UnsupportedOperationError:
        return None
    return _baseline(machine, case_name, n) / par


def cell_max_threads(machine, backend, case_name, size_exp):
    """One Table 6 cell measured directly, outside the campaign layer."""
    if (machine, backend) == ("B", "ICC-TBB"):
        return None
    n = 1 << size_exp
    try:
        sweep = strong_scaling(get_case(case_name), make_context(machine, backend), n)
    except UnsupportedOperationError:
        return None
    if not sweep.xs():
        return None
    curve = ScalingCurve(
        label=f"{backend}/{case_name}/{machine}",
        threads=tuple(sweep.xs()),
        seconds=tuple(sweep.ys()),
        baseline_seconds=_baseline(machine, case_name, n),
    )
    return max_threads_above_efficiency(curve, EFFICIENCY_THRESHOLD)


@pytest.fixture(scope="module")
def table5_outcome():
    return run_campaign(table5_campaign_spec(SIZE_EXP))


@pytest.fixture(scope="module")
def table6_outcome():
    return run_campaign(table6_campaign_spec(SIZE_EXP))


def test_speedup_grid_matches_single_cell_path(table5_outcome):
    grid = speedup_grid(table5_outcome)
    assert len(grid) == 90
    # exact equality: the campaign runs the same simulator on the same points
    assert grid["GCC-TBB/reduce/A"] == cell_speedup("A", "GCC-TBB", "reduce", SIZE_EXP)
    assert grid["NVC-OMP/sort/C"] == cell_speedup("C", "NVC-OMP", "sort", SIZE_EXP)
    assert grid["GCC-GNU/inclusive_scan/B"] is None  # capability N/A
    assert grid["ICC-TBB/reduce/B"] is None  # ICC absent on Mach B


def test_full_grid_equality_with_legacy(table5_outcome):
    grid = speedup_grid(table5_outcome)
    for key, value in grid.items():
        backend, case, machine = key.split("/")
        legacy = cell_speedup(machine, backend, case, SIZE_EXP)
        assert value == legacy, key


def test_efficiency_grid_matches_single_cell_path(table6_outcome):
    grid = efficiency_grid(table6_outcome, EFFICIENCY_THRESHOLD)
    for key, value in grid.items():
        backend, case, machine = key.split("/")
        legacy = cell_max_threads(machine, backend, case, SIZE_EXP)
        assert value == legacy, key


def test_cell_curves_shape(table6_outcome):
    curves = cell_curves(table6_outcome)
    curve = curves["GCC-TBB/reduce/C"]
    # Mach C sweeps 1..128 in powers of two
    assert curve.threads == (1, 2, 4, 8, 16, 32, 64, 128)
    assert len(curve.seconds) == 8
    assert curve.baseline_seconds > 0
    assert curve.scaling_curve().threads == curve.threads


def test_filter_results(table5_outcome):
    pairs = filter_results(table5_outcome, machine="a", backend="gcc-tbb")
    assert len(pairs) == 6  # six cases
    assert all(t.point.machine == "A" for t, _ in pairs)
    nas = filter_results(table5_outcome, status=NA)
    assert len(nas) == 9
    everything = filter_results(table5_outcome, kind=None)
    assert len(everything) == 108


def test_bench_rows_shape(table5_outcome):
    pairs = filter_results(table5_outcome, machine="A", case="reduce", status=DONE)
    rows = bench_rows(pairs)
    assert rows
    for row in rows:
        assert "reduce<" in row.name and "@MachA" in row.name
        assert row.iterations == 1
        assert row.mean_time > 0


def test_store_shared_across_specs_reuses_baselines():
    """Table 5 and Table 6 share (machine, case, n) baselines via the cache."""
    store = ResultStore(None)
    run_campaign(table5_campaign_spec(SIZE_EXP), store=store)
    before = store.writes
    second = run_campaign(table6_campaign_spec(SIZE_EXP), store=store)
    # every Table 6 baseline was already cached by Table 5
    assert second.stats.cache_hits >= len(second.plan.baselines)
    assert store.writes > before  # but the thread sweep itself was new


def test_store_query_walks_the_index_not_the_objects(tmp_path):
    store = ResultStore(tmp_path / "cache")
    run_campaign(table5_campaign_spec(SIZE_EXP), store=store)

    rows = store_query(store, machine="a", case="reduce", status=DONE)
    assert rows
    for row in rows:
        assert row["point"]["machine"] == "A"  # matching is case-insensitive
        assert row["point"]["case"] == "reduce"
        assert row["status"] == DONE and row["seconds"] > 0
        assert row["wall_ms"] is not None  # the executor's wall time
        record = store.load_key(row["key"])  # the row of a stored record
        assert record["point"] == row["point"]
        assert record["result"]["seconds"] == row["seconds"]
    assert [r["key"] for r in rows] == sorted(r["key"] for r in rows)

    # the table covers everything a plan replay answers (plus shared
    # baseline points the plan does not surface as task pairs)
    outcome = run_campaign(table5_campaign_spec(SIZE_EXP), store=store)
    pairs = filter_results(outcome, machine="A", case="reduce", status=DONE)
    keys = {row["key"] for row in rows}
    assert {store.key_for(task.point) for task, _ in pairs} <= keys

    assert store_query(store, backend="no-such-backend") == []


def test_store_query_requires_an_index():
    # every store holds the result table, so a memory store answers too
    assert store_query(ResultStore(None)) == []
