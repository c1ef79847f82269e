"""tools/bench_trajectory.py: the append-and-gate benchmark ledger.

The trajectory tool is itself CI-gating, so its failure modes need
pinning as much as its happy path: an append that duplicated entries,
a gate that silently passed malformed JSON, or a regression rule that
never fired would all rot the performance story without anyone
noticing. Covered here with injected metrics (no real benchmarks run):

* idempotent append -- re-running on the same commit replaces that
  commit's entry, distinct commits accumulate in order;
* schema round-trip -- what ``run`` writes, ``load_trajectory`` and
  ``check`` accept verbatim;
* the gate -- floors fire, a synthetic >10% ratio slowdown fires, a
  within-tolerance dip does not, and an empty/missing ledger fails;
* malformed ledgers -- invalid JSON, wrong schema version, wrong
  benchmark name, missing entry keys and non-numeric gated metrics are
  all rejected with errors that name the file and the problem;
* the CLI -- exit code 0 / 1 / 2 mapping for OK / gate / malformed,
  and ``check`` reports the violations of every family, not the first.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "bench_trajectory.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_trajectory", _TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules["bench_trajectory"] = module
    spec.loader.exec_module(module)
    return module


bt = _load_tool()


def _sweep_metrics(speedup=6.0):
    return {"reference_s": 1.2, "fused_s": 1.2 / speedup,
            "reference_speedup": speedup}


def _campaign_metrics(reference_speedup=12.0, warm_speedup=100.0):
    return {
        "cold_reference_s": 0.4, "cold_wave_s": 0.4 / reference_speedup,
        "warm_s": 0.4 / warm_speedup,
        "cold_reference_speedup": reference_speedup,
        "warm_reference_speedup": warm_speedup,
    }


def _service_metrics(p99=120.0, dedup=1.0, completed=1.0):
    return {
        "submissions": 1000, "campaigns": 750, "throughput_rps": 350.0,
        "submit_p50_ms": 50.0, "submit_p99_ms": p99,
        "request_overhead_ms": 40.0, "dedup_hit_rate": dedup,
        "completed_rate": completed,
    }


def _store_metrics(speedup_100k=60.0):
    return {
        "cold_scan_s_10k": 0.8, "indexed_s_10k": 0.02,
        "lookup_speedup_10k": 40.0,
        "cold_scan_s_100k": 8.0, "indexed_s_100k": 8.0 / speedup_100k,
        "lookup_speedup_100k": speedup_100k,
        "compact_rows_per_s": 35_000.0,
    }


def _remote_metrics(completed=1.0, exactly_once=1.0, slowdown=2.5,
                    over_put=2.5):
    return {
        "fleet": 4, "fleet_rounds": 31, "fleet_rows": 60,
        "fleet_wall_s": 0.125, "local_wall_s": 0.05,
        "fleet_rows_per_s": 480.0,
        "remote_completed_rate": completed,
        "exactly_once_rate": exactly_once,
        "segment_ingest_ms": 13.0, "segment_put_ms": 5.2,
        "fleet_slowdown": slowdown,
        "segment_ingest_over_put": over_put,
    }


# --- append -----------------------------------------------------------------


def test_append_is_idempotent_per_commit(tmp_path):
    path = tmp_path / "BENCH_SWEEP.json"
    bt.append_entry(path, "sweep", _sweep_metrics(6.0), "aaa111", "2026-08-08")
    bt.append_entry(path, "sweep", _sweep_metrics(6.5), "aaa111", "2026-08-08")
    data = bt.load_trajectory(path, "sweep")
    assert len(data["entries"]) == 1  # same commit: replaced, not duplicated
    assert data["entries"][0]["metrics"]["reference_speedup"] == 6.5

    bt.append_entry(path, "sweep", _sweep_metrics(7.0), "bbb222", "2026-08-09")
    data = bt.load_trajectory(path, "sweep")
    assert [e["commit"] for e in data["entries"]] == ["aaa111", "bbb222"]


def test_schema_round_trip(tmp_path):
    path = tmp_path / "BENCH_CAMPAIGN.json"
    written = bt.append_entry(path, "campaign", _campaign_metrics(),
                              "cafe01", "2026-08-08T12:00:00+00:00")
    loaded = bt.load_trajectory(path, "campaign")
    assert loaded == written
    assert loaded["schema"] == bt.SCHEMA_VERSION
    assert loaded["benchmark"] == "campaign"
    entry = loaded["entries"][0]
    assert entry["commit"] == "cafe01"
    assert entry["recorded"] == "2026-08-08T12:00:00+00:00"
    assert set(bt.GATES["campaign"]) <= set(entry["metrics"])


# --- gate -------------------------------------------------------------------


def test_missing_ledger_is_a_gate_failure(tmp_path):
    with pytest.raises(bt.GateError, match="no entries"):
        bt.check_trajectory(tmp_path / "BENCH_SWEEP.json", "sweep")


def test_floor_fires(tmp_path):
    path = tmp_path / "BENCH_SWEEP.json"
    bt.append_entry(path, "sweep", _sweep_metrics(4.9), "aaa", "t")
    with pytest.raises(bt.GateError, match="below the floor"):
        bt.check_trajectory(path, "sweep")


def test_regression_fires_on_synthetic_slowdown(tmp_path):
    path = tmp_path / "BENCH_CAMPAIGN.json"
    bt.append_entry(path, "campaign", _campaign_metrics(14.0, 100.0), "aaa", "t0")
    bt.append_entry(path, "campaign", _campaign_metrics(11.9, 100.0), "bbb", "t1")
    with pytest.raises(bt.GateError, match="cold_reference_speedup regressed"):
        bt.check_trajectory(path, "campaign")  # 15% drop > 10% tolerance


def test_warm_path_slowdown_fires_and_a_faster_cold_wave_does_not(tmp_path):
    """warm_reference_speedup divides the fixed yardstick by the warm run,
    so only a slower warm path lowers it; a faster cold wave, which
    lowered the old cold-over-warm ratio, leaves it alone."""
    path = tmp_path / "BENCH_CAMPAIGN.json"
    bt.append_entry(path, "campaign", _campaign_metrics(10.0, 100.0), "aaa", "t0")
    bt.append_entry(path, "campaign", _campaign_metrics(11.5, 100.0), "bbb", "t1")
    bt.check_trajectory(path, "campaign")
    bt.append_entry(path, "campaign", _campaign_metrics(11.5, 85.0), "ccc", "t2")
    with pytest.raises(bt.GateError, match="warm_reference_speedup regressed"):
        bt.check_trajectory(path, "campaign")  # 15% drop > 10% tolerance
    bt.append_entry(path, "campaign", _campaign_metrics(11.5, 44.0), "ddd", "t3")
    with pytest.raises(bt.GateError, match="warm_reference_speedup = 44.000 "
                                           "is below the floor"):
        bt.check_trajectory(path, "campaign")


def test_within_tolerance_dip_passes(tmp_path):
    path = tmp_path / "BENCH_CAMPAIGN.json"
    bt.append_entry(path, "campaign", _campaign_metrics(14.0, 100.0), "aaa", "t0")
    bt.append_entry(path, "campaign", _campaign_metrics(12.95, 94.0), "bbb", "t1")
    lines = bt.check_trajectory(path, "campaign")  # 7.5% and 6% drops: allowed
    assert any("cold_reference_speedup" in line for line in lines)
    assert any("warm_reference_speedup" in line for line in lines)


def test_new_metric_starts_a_series_against_an_older_entry(tmp_path):
    """An entry from before a gated metric existed is not compared on it."""
    path = tmp_path / "BENCH_CAMPAIGN.json"
    bt.append_entry(path, "campaign",
                    {"cold_batch_s": 0.066, "cold_wave_s": 0.037,
                     "warm_s": 0.005, "wave_over_batch": 1.78,
                     "warm_speedup": 12.8}, "old", "t0")
    bt.append_entry(path, "campaign", _campaign_metrics(), "new", "t1")
    lines = bt.check_trajectory(path, "campaign")
    assert any("cold_reference_speedup" in line and "first value" in line
               for line in lines)
    # ...but the newest entry must carry every gated metric.
    bt.append_entry(path, "campaign", {"cold_wave_s": 0.03}, "bad", "t2")
    with pytest.raises(bt.TrajectoryError, match="missing gated metric"):
        bt.check_trajectory(path, "campaign")


def test_service_floor_fires_on_imperfect_dedup(tmp_path):
    path = tmp_path / "BENCH_SERVICE.json"
    bt.append_entry(path, "service", _service_metrics(dedup=0.99), "aaa", "t")
    with pytest.raises(bt.GateError, match="dedup_hit_rate.*below the floor"):
        bt.check_trajectory(path, "service")


def test_service_ceiling_fires_on_slow_p99(tmp_path):
    path = tmp_path / "BENCH_SERVICE.json"
    bt.append_entry(path, "service", _service_metrics(p99=600.0), "aaa", "t")
    with pytest.raises(bt.GateError, match="submit_p99_ms.*over the ceiling"):
        bt.check_trajectory(path, "service")


def test_service_p99_upward_regression_fires(tmp_path):
    path = tmp_path / "BENCH_SERVICE.json"
    bt.append_entry(path, "service", _service_metrics(p99=100.0), "aaa", "t0")
    bt.append_entry(path, "service", _service_metrics(p99=115.0), "bbb", "t1")
    with pytest.raises(bt.GateError, match="submit_p99_ms regressed"):
        bt.check_trajectory(path, "service")  # +15% > 10% tolerance


def test_service_p99_improvement_and_small_drift_pass(tmp_path):
    path = tmp_path / "BENCH_SERVICE.json"
    bt.append_entry(path, "service", _service_metrics(p99=100.0), "aaa", "t0")
    bt.append_entry(path, "service", _service_metrics(p99=106.0), "bbb", "t1")
    lines = bt.check_trajectory(path, "service")  # +6%: within tolerance
    assert any("ceiling" in line for line in lines)
    bt.append_entry(path, "service", _service_metrics(p99=60.0), "ccc", "t2")
    bt.check_trajectory(path, "service")  # getting faster is always fine


def test_gate_compares_against_previous_entry_only(tmp_path):
    path = tmp_path / "BENCH_SWEEP.json"
    bt.append_entry(path, "sweep", _sweep_metrics(9.0), "aaa", "t0")
    bt.append_entry(path, "sweep", _sweep_metrics(6.0), "bbb", "t1")
    bt.append_entry(path, "sweep", _sweep_metrics(5.8), "ccc", "t2")
    bt.check_trajectory(path, "sweep")  # 6.0 -> 5.8 is fine; 9.0 is history


# --- malformed ledgers ------------------------------------------------------


def test_invalid_json_rejected_with_clear_error(tmp_path):
    path = tmp_path / "BENCH_SWEEP.json"
    path.write_text("{not json")
    with pytest.raises(bt.TrajectoryError, match="BENCH_SWEEP.json.*not valid JSON"):
        bt.load_trajectory(path, "sweep")


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.update(schema=99), "unsupported schema"),
    (lambda d: d.update(benchmark="campaign"), "benchmark is 'campaign'"),
    (lambda d: d.update(entries="nope"), "'entries' must be a list"),
    (lambda d: d["entries"][0].pop("commit"), "missing 'commit'"),
    (lambda d: d["entries"][0].pop("recorded"), "missing 'recorded'"),
    (lambda d: d["entries"][0].pop("metrics"), "missing 'metrics'"),
    # Every recorded metric must be a number, gated or not.
    (lambda d: d["entries"][0]["metrics"].update(batch_speedup="fast"),
     "batch_speedup must be a number"),
])
def test_malformed_ledger_rejected(tmp_path, mutate, message):
    path = tmp_path / "BENCH_SWEEP.json"
    bt.append_entry(path, "sweep", _sweep_metrics(), "aaa", "t")
    data = json.loads(path.read_text())
    mutate(data)
    path.write_text(json.dumps(data))
    with pytest.raises(bt.TrajectoryError, match=message):
        bt.load_trajectory(path, "sweep")


# --- CLI --------------------------------------------------------------------


def _seed_both(root, **overrides):
    bt.append_entry(root / "BENCH_SWEEP.json", "sweep",
                    _sweep_metrics(overrides.get("reference_speedup", 6.0)),
                    "aaa", "t")
    bt.append_entry(root / "BENCH_CAMPAIGN.json", "campaign",
                    _campaign_metrics(overrides.get("cold_reference_speedup", 12.0)),
                    "aaa", "t")
    bt.append_entry(root / "BENCH_SERVICE.json", "service",
                    _service_metrics(overrides.get("submit_p99_ms", 120.0)),
                    "aaa", "t")
    bt.append_entry(root / "BENCH_STORE.json", "store",
                    _store_metrics(overrides.get("lookup_speedup_100k", 60.0)),
                    "aaa", "t")
    bt.append_entry(root / "BENCH_REMOTE.json", "remote",
                    _remote_metrics(overrides.get("remote_completed_rate", 1.0)),
                    "aaa", "t")


def test_cli_check_ok(tmp_path, capsys):
    _seed_both(tmp_path)
    assert bt.main(["check", "--root", str(tmp_path)]) == 0
    assert "benchmark trajectory OK" in capsys.readouterr().out


def test_cli_check_gate_failure_exits_1(tmp_path, capsys):
    _seed_both(tmp_path, cold_reference_speedup=4.0)
    assert bt.main(["check", "--root", str(tmp_path)]) == 1
    assert "GATE FAILED" in capsys.readouterr().err


def test_cli_check_malformed_exits_2(tmp_path, capsys):
    _seed_both(tmp_path)
    (tmp_path / "BENCH_CAMPAIGN.json").write_text("[]")
    assert bt.main(["check", "--root", str(tmp_path)]) == 2
    assert "MALFORMED" in capsys.readouterr().err


def test_cli_check_reports_every_regressed_ledger(tmp_path, capsys):
    """Two regressed families (one of them twice over): check goes on past
    the first and prints each violation on its own line."""
    _seed_both(tmp_path)
    bt.append_entry(tmp_path / "BENCH_SWEEP.json", "sweep",
                    _sweep_metrics(5.1), "bbb", "t1")  # -15%
    bt.append_entry(tmp_path / "BENCH_STORE.json", "store",
                    _store_metrics(9.0), "bbb", "t1")  # floor and -85%
    assert bt.main(["check", "--root", str(tmp_path)]) == 1
    failures = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("GATE FAILED: ")]
    assert len(failures) == 3
    assert "BENCH_SWEEP.json: reference_speedup regressed" in failures[0]
    assert "BENCH_STORE.json: lookup_speedup_100k = 9.000 is below" in failures[1]
    assert "BENCH_STORE.json: lookup_speedup_100k regressed" in failures[2]


def test_cli_check_malformed_outranks_a_gate_failure(tmp_path, capsys):
    _seed_both(tmp_path, reference_speedup=4.0)
    (tmp_path / "BENCH_REMOTE.json").write_text("{")
    assert bt.main(["check", "--root", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "GATE FAILED: BENCH_SWEEP.json" in err
    assert "MALFORMED: BENCH_REMOTE.json" in err


def test_cli_run_with_injected_measures(tmp_path, monkeypatch):
    """The run subcommand end-to-end, with benchmarks stubbed out."""
    monkeypatch.setitem(bt.MEASURES, "sweep",
                        lambda repeats: _sweep_metrics(6.2))
    monkeypatch.setitem(bt.MEASURES, "campaign",
                        lambda repeats: _campaign_metrics(13.0, 95.0))
    monkeypatch.setitem(bt.MEASURES, "service",
                        lambda repeats: _service_metrics(110.0))
    monkeypatch.setitem(bt.MEASURES, "store",
                        lambda repeats: _store_metrics(55.0))
    monkeypatch.setitem(bt.MEASURES, "remote",
                        lambda repeats: _remote_metrics())
    rc = bt.main(["run", "--root", str(tmp_path), "--commit", "deadbeef",
                  "--recorded", "2026-08-08T00:00:00+00:00"])
    assert rc == 0
    assert bt.main(["check", "--root", str(tmp_path)]) == 0
    # idempotence through the CLI too: same commit, still one entry each
    assert bt.main(["run", "--root", str(tmp_path), "--commit", "deadbeef",
                    "--recorded", "2026-08-08T00:00:00+00:00"]) == 0
    for name, family in (("BENCH_SWEEP.json", "sweep"),
                         ("BENCH_CAMPAIGN.json", "campaign"),
                         ("BENCH_SERVICE.json", "service"),
                         ("BENCH_STORE.json", "store"),
                         ("BENCH_REMOTE.json", "remote")):
        data = bt.load_trajectory(tmp_path / name, family)
        assert [e["commit"] for e in data["entries"]] == ["deadbeef"]


def test_store_floor_fires_below_10x_lookup_speedup(tmp_path):
    path = tmp_path / "BENCH_STORE.json"
    bt.append_entry(path, "store", _store_metrics(speedup_100k=9.5), "aaa", "t")
    with pytest.raises(bt.GateError,
                       match="lookup_speedup_100k.*below the floor"):
        bt.check_trajectory(path, "store")


def test_store_regression_fires_on_speedup_drop(tmp_path):
    path = tmp_path / "BENCH_STORE.json"
    bt.append_entry(path, "store", _store_metrics(60.0), "aaa", "t0")
    bt.append_entry(path, "store", _store_metrics(50.0), "bbb", "t1")
    with pytest.raises(bt.GateError, match="lookup_speedup_100k regressed"):
        bt.check_trajectory(path, "store")  # ~17% drop > 10% tolerance


def test_store_within_tolerance_dip_passes(tmp_path):
    path = tmp_path / "BENCH_STORE.json"
    bt.append_entry(path, "store", _store_metrics(60.0), "aaa", "t0")
    bt.append_entry(path, "store", _store_metrics(56.0), "bbb", "t1")
    lines = bt.check_trajectory(path, "store")
    assert any("lookup_speedup_100k" in line for line in lines)


# --- remote family ----------------------------------------------------------


def test_remote_floor_fires_on_lost_wave(tmp_path):
    path = tmp_path / "BENCH_REMOTE.json"
    bt.append_entry(path, "remote", _remote_metrics(completed=0.9), "aaa", "t")
    with pytest.raises(bt.GateError,
                       match="remote_completed_rate.*below the floor"):
        bt.check_trajectory(path, "remote")


def test_remote_floor_fires_on_double_landed_rows(tmp_path):
    path = tmp_path / "BENCH_REMOTE.json"
    bt.append_entry(path, "remote", _remote_metrics(exactly_once=0.98),
                    "aaa", "t")
    with pytest.raises(bt.GateError,
                       match="exactly_once_rate.*below the floor"):
        bt.check_trajectory(path, "remote")


def test_remote_overhead_ceiling_fires(tmp_path):
    path = tmp_path / "BENCH_REMOTE.json"
    bt.append_entry(path, "remote", _remote_metrics(over_put=25.0),
                    "aaa", "t")
    with pytest.raises(bt.GateError,
                       match="segment_ingest_over_put.*over the ceiling"):
        bt.check_trajectory(path, "remote")


def test_remote_throughput_regression_fires(tmp_path):
    path = tmp_path / "BENCH_REMOTE.json"
    bt.append_entry(path, "remote", _remote_metrics(slowdown=2.5),
                    "aaa", "t0")
    bt.append_entry(path, "remote", _remote_metrics(slowdown=2.9),
                    "bbb", "t1")
    with pytest.raises(bt.GateError, match="fleet_slowdown regressed"):
        bt.check_trajectory(path, "remote")  # 16% slower > 10% tolerance


def test_remote_within_tolerance_dip_passes(tmp_path):
    path = tmp_path / "BENCH_REMOTE.json"
    bt.append_entry(path, "remote", _remote_metrics(slowdown=2.5,
                                                    over_put=2.5),
                    "aaa", "t0")
    bt.append_entry(path, "remote", _remote_metrics(slowdown=2.7,
                                                    over_put=2.7),
                    "bbb", "t1")
    lines = bt.check_trajectory(path, "remote")
    assert any("fleet_slowdown" in line for line in lines)


def test_remote_sample_reshaped_as_a_new_series(tmp_path):
    # The entries before the interleaved rounds recorded other names;
    # the first entry of the new shape is compared with nothing.
    path = tmp_path / "BENCH_REMOTE.json"
    bt.append_entry(path, "remote", {
        "fleet": 4, "remote_rows": 60, "remote_wall_s": 0.18,
        "remote_completed_rate": 1.0, "exactly_once_rate": 1.0,
        "scaleout_rows_per_s": 330.8, "ship_ingest_overhead_ms": 39.9},
        "aaa", "t0")
    bt.append_entry(path, "remote", _remote_metrics(), "bbb", "t1")
    lines = bt.check_trajectory(path, "remote")
    assert "BENCH_REMOTE.json: fleet_slowdown = 2.500 " \
           "(ceiling 20.0, first value)" in lines


def test_segment_ingest_sample_lands_fresh_rows_in_a_live_store(tmp_path):
    from repro.campaign.store import ResultStore
    from repro.remote import SegmentIngestor

    store = ResultStore(tmp_path / "cache")
    ingestor = SegmentIngestor(store)
    for k in range(3):
        segment_s, put_s = bt._segment_ingest_s(ingestor, k)
        assert segment_s >= 0 and put_s >= 0
    assert ingestor.report.ingested == 3 * bt.REMOTE_SEGMENT_ROWS
    assert ingestor.report.deduped == 0
    assert store.count_objects() == 2 * 3 * bt.REMOTE_SEGMENT_ROWS
    # sealed in memory: the store is the only thing on disk
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache"]


def test_ratio_is_the_median_of_per_round_ratios():
    # One slow round on either side moves the median ratio, not the
    # recorded value: 10/2, 30/2 and 10/5 give 5, 15 and 2 -> 5.
    assert bt._median_ratio([10.0, 30.0, 10.0], [2.0, 2.0, 5.0]) == 5.0


def test_reference_side_costs_on_the_scalar_engine(monkeypatch):
    import repro.sim.engine as engine
    from repro.scenarios.resolve import make_context, resolve_case

    calls = []
    real = engine.simulate_cpu
    monkeypatch.setattr(engine, "simulate_cpu",
                        lambda *args: calls.append(args) or real(*args))
    bt._reference_point(resolve_case("for_each_k1"),
                        make_context("A", "GCC-TBB"), 1 << 10)
    assert len(calls) == 1
