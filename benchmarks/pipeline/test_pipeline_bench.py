"""Self-tests for the pipeline benchmark: ``pytest benchmarks/pipeline``."""

from __future__ import annotations

import itertools
import json
import re
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import launch  # noqa: E402

launch.bootstrap()

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.campaign import ResultStore  # noqa: E402

SPEC = json.loads((launch.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

TINY_GRID = workloads.GridShape(machines=("A",), backends=("GCC-TBB", "GCC-HPX"),
                                cases=("reduce", "copy", "sort"), size_exps=(16, 17, 18),
                                thread_choices=(1, 2, 4), thread_count=2)
TINY_FLEET = workloads.FleetShape(machines=("A", "B"), backends=("GCC-TBB",),
                                  cases=("reduce",), size_exps=(18, 19, 20),
                                  thread_pool=(1, 2, 3, 4), threads_per_grid=2,
                                  warmup_threads=8, length=8)


def _schedule_json(seed: int) -> str:
    return json.dumps([[(s.kind, s.payload, s.ref) for s in client]
                       for client in workloads.service_schedule(seed, workloads.FleetShape())],
                      sort_keys=True)


def _grid_json(seed: int) -> str:
    return workloads.grid_spec(seed, workloads.GridShape(), "g", "grid-cold").canonical()


# -- seeded inputs ------------------------------------------------------------


@pytest.mark.parametrize("make", [_schedule_json, _grid_json,
                                  lambda seed: json.dumps(workloads.suite_order(
                                      seed, 0, tuple(workloads.scenario_names())))])
def test_seed_determines_inputs(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def _points(payload: dict) -> set[tuple]:
    return set(itertools.product(payload["machines"], payload["backends"],
                                 payload["cases"], payload["size_exps"],
                                 payload["threads"]))


def test_schedule_mix_and_truly_cold_grids():
    schedule = workloads.service_schedule(3, workloads.FleetShape())
    kinds = [s.kind for client in schedule for s in client]
    assert kinds.count("cold") / len(kinds) == pytest.approx(0.5, abs=0.01)
    seen: set[tuple] = set()
    for sub in (s for client in schedule for s in client if s.kind == "cold"):
        points = _points(sub.payload)
        assert not points & seen  # no cold grid shares a point with another
        seen |= points
    assert not seen & _points(workloads.fleet_warmup(workloads.FleetShape()))
    for client in schedule:
        for sub in client:
            if sub.kind == "dup":
                assert sub.payload == client[sub.ref].payload
            if sub.kind == "warm":
                assert client[sub.ref].kind == "cold"
                assert sub.payload["name"] != client[sub.ref].payload["name"]


# -- names agree with BENCHMARK.json ------------------------------------------


def test_metric_names_match_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert e2e == run.E2E_UNITS
    assert layers == tracing.PER_LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(run.ITEMS)
    assert set(workloads.WORKLOADS) == set(run.ITEMS)
    fake = types.SimpleNamespace(setup_samples=[1.0], peak_rss_mb=lambda: 1.0)
    measured = workloads.Measured(items=1, wall_s=1.0, latencies_ms=[1.0])
    assert set(workloads.e2e_metrics(fake, measured)) == set(e2e)
    assert set(tracing.layer_metrics([], (0.0, 1.0))) == set(layers)
    for name in [*e2e, *layers, *run.ITEMS]:
        assert NAME.match(name), name


# -- self-time arithmetic -------------------------------------------------------


def _span(sid, parent, name, start, end, pid=1, **attrs):
    return tracing.Span(sid, parent, name, start, end, pid, 0, attrs)


def test_self_time_on_a_synthetic_tree():
    spans = [
        _span(1, None, "campaign.run", 0.0, 10.0, executed=4, cache_hits=1),
        _span(2, 1, "store.put", 1.0, 4.0),
        _span(3, 2, "store.index", 2.0, 3.0),
        _span(4, 1, "store.journal", 3.0, 6.0),   # overlaps store.put
        _span(5, 1, "store.lookup", 9.0, 12.0),   # runs past its parent
        _span(1, None, "campaign.run", 0.0, 2.0, pid=2),  # same id, other pid
        _span(9, None, "store.put", 50.0, 51.0),  # outside the window
    ]
    selfs = tracing.self_times(spans)
    assert selfs[(1, 1)] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[(1, 2)] == pytest.approx(2.0)
    assert selfs[(1, 4)] == pytest.approx(3.0)
    assert selfs[(2, 1)] == pytest.approx(2.0)
    metrics = tracing.layer_metrics(spans, (0.0, 20.0))
    assert metrics["campaign.run.self_s"] == pytest.approx(6.0)
    assert metrics["campaign.run.calls"] == 2
    assert metrics["store.put.calls"] == 1
    assert metrics["store.put.self_s"] == pytest.approx(2.0)
    assert metrics["store.index.self_s"] == pytest.approx(1.0)
    assert metrics["campaign.cache_hit_ratio"] == pytest.approx(0.2)
    assert metrics["trace.spans"] == 6


def test_wrappers_nest_and_restore():
    module = types.SimpleNamespace()
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    original = module.inner
    rec = tracing.Recorder()
    rec.patch(module, "inner", "store.index", None)
    rec.patch(module, "outer", "store.put", None)
    assert module.outer(1) == 4
    inner, outer = rec.spans
    assert (inner.name, outer.name) == ("store.index", "store.put")
    assert inner.parent == outer.id and outer.parent is None
    rec.uninstall()
    assert module.inner is original and not hasattr(module.outer, "__pipeline_span__")


# -- correctness gates ------------------------------------------------------------


def test_warm_gate_fires_on_a_corrupted_cache_entry(tmp_path):
    wl = workloads.GridWarm(0, tmp_path, TINY_GRID)
    wl.setup()
    store = ResultStore(wl.fill_dir / "cache")
    task = next(t for t in workloads.campaign.plan_campaign(wl.spec).runnable
                if wl.cold[t.task_id][0] == "done")
    store.put(task.point, {"status": "done", "error": None,
                           "seconds": wl.cold[task.task_id][1] * 2})
    wl.measure(0.0, 1)
    assert len(wl.failures) == 1 and task.task_id in wl.failures[0]


def test_cold_gate_fires_on_a_wrong_value(tmp_path):
    wl = workloads.GridCold(0, tmp_path, TINY_GRID)
    wl.measure(0.0, 1)
    point, seconds = wl.executed[0]
    wl.executed = [(point, seconds * (1 + 2 ** -40))]
    wl.check()
    assert len(wl.failures) == 1


def test_service_audit_flags_short_and_undeduped_results():
    sub = workloads.Submission("dup", {}, 0)
    state = {"state": "complete", "points": 3}
    rows = [{"task_id": "t", "status": "done", "seconds": 1.0}] * 2
    problems = workloads.ServiceFleet._audit(
        sub, state, {"rows": rows}, {"deduped": False}, {"t": ("done", 2.0)})
    assert len(problems) == 3


# -- smoke runs ---------------------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda p: workloads.PaperSuite(0, p, scenarios=("fig1", "table7")),
    lambda p: workloads.GridCold(0, p, TINY_GRID),
    lambda p: workloads.GridWarm(0, p, TINY_GRID),
    lambda p: workloads.ServiceFleet(0, p, TINY_FLEET),
], ids=list(run.ITEMS))
def test_smoke_each_workload(tmp_path, make):
    wl = make(tmp_path)
    try:
        wl.setup()
        measured = wl.measure(0.0, 2)
    finally:
        wl.close()
    wl.check()
    assert wl.failures == []
    assert measured.items > 0 and len(measured.latencies_ms) >= 2
    metrics = workloads.e2e_metrics(wl, measured)
    assert all(value > 0 for value in metrics.values())


def test_traced_smoke_splits_layers(tmp_path):
    wl = workloads.GridCold(0, tmp_path / "work", TINY_GRID)
    session = workloads.TraceSession(tmp_path / "spans")
    ref, traced = wl.run_traced(0.0, session)
    spans, roles = session.collect()
    metrics = tracing.layer_metrics(spans, traced.window)
    assert metrics["store.put.calls"] == metrics["campaign.points_executed"] > 0
    assert metrics["suite.run_case.calls"] > 0 and metrics["sim.wave.points"] > 0
    assert metrics["service.submit.calls"] == metrics["remote.claims"] == 0
    assert wl.failures == []
    trace = tracing.chrome_trace(spans, roles, 0.0)
    assert {e["args"]["clock"] for e in trace["traceEvents"] if e["ph"] == "X"} == {"wall"}


# -- compare ------------------------------------------------------------------------


def _records(workload: str, values: list[float]) -> list[dict]:
    return [{"workload": workload, "metrics": {"items_per_s": {"value": v}}}
            for v in values]


@pytest.mark.parametrize("b, verdict", [
    ([100.0, 101.0, 99.0, 100.5], "within"),
    ([80.0, 81.0, 79.0, 80.5], "worse"),
    ([120.0, 121.0, 119.0, 120.5], "better"),
    ([50.0, 150.0, 60.0, 140.0], "unresolved"),
])
def test_compare_verdicts(b, verdict):
    spec = {"end_to_end": [{"name": "items_per_s", "unit": "1/s",
                            "better": "higher", "bound": 0.1}]}
    a = _records("grid-cold", [100.0, 100.5, 99.5, 100.2])
    (row,) = run.compare_rows(a, _records("grid-cold", b), spec)
    assert row["verdict"] == verdict
