"""Executor: serial/pool runs, caching, resume, retry, degradation."""

from __future__ import annotations

import pytest

from repro.campaign import executor as executor_mod
from repro.campaign.executor import load_campaign, run_campaign
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import DONE, FAILED, Journal, NA, ResultStore
from repro.errors import CampaignError
from repro.trace import Tracer, use_tracer


def tiny_spec(**kwargs) -> CampaignSpec:
    base = dict(name="tiny", machines=("A",), backends=("GCC-TBB", "GCC-GNU"),
                cases=("reduce", "inclusive_scan"), size_exps=(12,))
    base.update(kwargs)
    return CampaignSpec(**base)


def per_point(monkeypatch) -> None:
    """Run every task of a wave alone through ``execute_point``.

    Injects through the ``execute_wave`` seam: each wave is cut into
    one-task shards (so a fault claimed for one task fails only that
    task), and each shard calls ``execute_point`` as looked up on the
    executor module, where a test's double replaces it.
    """
    monkeypatch.setattr(executor_mod, "_shard_wave",
                        lambda tasks, shards: [[task] for task in tasks])
    monkeypatch.setattr(
        executor_mod, "execute_wave",
        lambda payloads: [executor_mod.execute_point(p) for p in payloads],
    )


def test_serial_run_completes_all_tasks():
    outcome = run_campaign(tiny_spec())
    # 4 cells + 2 shared baselines; GNU/inclusive_scan pruned at plan time
    assert outcome.stats.planned == len(outcome.plan.tasks)
    assert outcome.stats.pruned == 1
    assert outcome.stats.executed == outcome.stats.planned - 1
    assert all(t.task_id in outcome.results for t in outcome.plan.tasks)
    for task in outcome.plan.runnable:
        result = outcome.results[task.task_id]
        assert result.status == DONE
        assert result.seconds > 0


def test_pruned_tasks_are_na_without_execution():
    outcome = run_campaign(tiny_spec())
    (pruned,) = outcome.plan.pruned
    result = outcome.results[pruned.task_id]
    assert result.status == NA
    assert result.attempts == 0
    assert "inclusive_scan" in result.error


def test_shared_store_turns_rerun_into_cache_hits():
    store = ResultStore(None)
    first = run_campaign(tiny_spec(), store=store)
    second = run_campaign(tiny_spec(), store=store)
    assert second.stats.executed == 0
    assert second.stats.cache_hits == first.stats.executed
    for tid, result in first.results.items():
        again = second.results[tid]
        assert again.status == result.status
        assert again.seconds == result.seconds  # bit-identical, not approximate


def test_pool_run_matches_serial():
    serial = run_campaign(tiny_spec())
    pooled = run_campaign(tiny_spec(), workers=2)
    assert pooled.stats.executed == serial.stats.executed
    for tid, result in serial.results.items():
        assert pooled.results[tid].status == result.status
        assert pooled.results[tid].seconds == result.seconds


def test_campaign_dir_resume_skips_journaled_tasks(tmp_path):
    cdir = tmp_path / "camp"
    first = run_campaign(tiny_spec(), campaign_dir=cdir)
    assert first.stats.executed > 0
    resumed = run_campaign(tiny_spec(), campaign_dir=cdir, resume=True)
    assert resumed.stats.executed == 0
    assert resumed.stats.journal_hits == first.stats.executed
    for tid, result in first.results.items():
        assert resumed.results[tid].seconds == result.seconds


def test_interrupted_campaign_resumes_remainder(tmp_path):
    cdir = tmp_path / "camp"
    full = run_campaign(tiny_spec(), campaign_dir=cdir)
    # simulate a kill halfway: keep only the first half of the journal
    journal_path = cdir / "journal.jsonl"
    lines = journal_path.read_text(encoding="utf-8").splitlines(keepends=True)
    keep = len(lines) // 2
    journal_path.write_text("".join(lines[:keep]), encoding="utf-8")
    # drop the cache too, so the cut tasks genuinely recompute
    import shutil

    shutil.rmtree(cdir / "cache")
    resumed = run_campaign(tiny_spec(), campaign_dir=cdir, resume=True)
    assert resumed.stats.executed > 0
    assert resumed.stats.executed < full.stats.executed + 1
    for tid, result in full.results.items():
        assert resumed.results[tid].status == result.status
        assert resumed.results[tid].seconds == result.seconds


def test_campaign_dir_rejects_mismatched_spec(tmp_path):
    cdir = tmp_path / "camp"
    run_campaign(tiny_spec(), campaign_dir=cdir)
    with pytest.raises(CampaignError, match="different campaign"):
        run_campaign(tiny_spec(size_exps=(13,)), campaign_dir=cdir)


def test_resume_requires_campaign_dir():
    with pytest.raises(CampaignError, match="campaign_dir"):
        run_campaign(tiny_spec(), resume=True)


def test_failure_degrades_gracefully(monkeypatch):
    real = executor_mod.execute_point

    def flaky(payload):
        if payload["case"] == "reduce" and payload["backend"] == "GCC-TBB":
            return {"status": FAILED, "seconds": None, "error": "injected"}
        return real(payload)

    monkeypatch.setattr(executor_mod, "execute_point", flaky)
    per_point(monkeypatch)
    outcome = run_campaign(tiny_spec(), retries=0)
    assert outcome.stats.failed == 1
    # the rest of the grid still completed
    done = [r for r in outcome.results.values() if r.status == DONE]
    assert len(done) == outcome.stats.executed - 1


def test_bounded_retry_recovers_transient_failures(monkeypatch):
    real = executor_mod.execute_point
    calls = {"n": 0}

    def flaky(payload):
        if payload["case"] == "reduce" and payload["backend"] == "GCC-TBB":
            calls["n"] += 1
            if calls["n"] == 1:
                return {"status": FAILED, "seconds": None, "error": "transient"}
        return real(payload)

    monkeypatch.setattr(executor_mod, "execute_point", flaky)
    per_point(monkeypatch)
    outcome = run_campaign(tiny_spec(), retries=1)
    assert outcome.stats.failed == 0
    assert calls["n"] == 2
    recovered = [r for r in outcome.results.values() if r.attempts == 2]
    assert len(recovered) == 1


def test_failed_results_are_not_cached(monkeypatch):
    def always_fail(payload):
        return {"status": FAILED, "seconds": None, "error": "boom"}

    monkeypatch.setattr(executor_mod, "execute_point", always_fail)
    per_point(monkeypatch)
    store = ResultStore(None)
    run_campaign(tiny_spec(), store=store, retries=0)
    assert store.writes == 0


def test_resume_retries_journaled_failures(tmp_path, monkeypatch):
    cdir = tmp_path / "camp"

    def always_fail(payload):
        return {"status": FAILED, "seconds": None, "error": "boom"}

    monkeypatch.setattr(executor_mod, "execute_point", always_fail)
    per_point(monkeypatch)
    first = run_campaign(tiny_spec(), campaign_dir=cdir, retries=0)
    assert first.stats.failed == first.stats.executed
    monkeypatch.undo()
    resumed = run_campaign(tiny_spec(), campaign_dir=cdir, resume=True)
    assert resumed.stats.failed == 0
    assert resumed.stats.executed == first.stats.failed


def test_load_campaign_reconstructs_without_executing(tmp_path):
    cdir = tmp_path / "camp"
    ran = run_campaign(tiny_spec(), campaign_dir=cdir)
    loaded = load_campaign(cdir)
    assert loaded.stats.executed == 0
    assert set(loaded.results) == set(ran.results)
    for tid, result in ran.results.items():
        assert loaded.results[tid].status == result.status
        assert loaded.results[tid].seconds == result.seconds


def test_progress_callback_sees_every_task():
    seen = []
    run_campaign(tiny_spec(), progress=lambda task, result: seen.append(task.task_id))
    assert len(seen) == len(plan_ids := run_campaign(tiny_spec()).results)
    assert set(seen) == set(plan_ids)


def test_trace_spans_cover_plan_execute_and_cache():
    tracer = Tracer()
    store = ResultStore(None)
    with use_tracer(tracer):
        run_campaign(tiny_spec(), store=store)
        run_campaign(tiny_spec(), store=store)
    names = [s.name for s in tracer.spans if s.category == "campaign"]
    assert names.count("campaign.run") == 2
    assert names.count("campaign.plan") == 2
    assert names.count("campaign.execute") == 2
    misses = [s for s in tracer.spans if s.name == "cache-miss"]
    hits = [s for s in tracer.spans if s.name == "cache-hit"]
    pruned = [s for s in tracer.spans if s.name == "pruned"]
    assert len(misses) == len(hits)  # second run served every executed point
    assert len(pruned) == 2  # the GNU/inclusive_scan cell, once per run
    assert all(s.duration > 0 for s in misses)
    assert all(s.duration == 0 for s in hits)


def test_journal_entries_carry_cache_keys(tmp_path):
    cdir = tmp_path / "camp"
    run_campaign(tiny_spec(), campaign_dir=cdir)
    entries = Journal(cdir / "journal.jsonl").entries()
    executed = [e for e in entries if e["status"] == DONE]
    assert executed
    assert all(e["key"] for e in executed)


@pytest.mark.parametrize("kwargs", [{"retries": -1}, {"workers": -2}])
def test_invalid_run_arguments(kwargs):
    with pytest.raises(CampaignError):
        run_campaign(tiny_spec(), **kwargs)


def test_wall_time_is_journaled_not_cached(tmp_path):
    cdir = tmp_path / "c"
    outcome = run_campaign(tiny_spec(), campaign_dir=cdir)
    executed = [r for r in outcome.results.values()
                if not r.cached and r.attempts > 0]
    assert executed and all(r.wall_ms is not None and r.wall_ms >= 0
                            for r in executed)
    entries = Journal(cdir / "journal.jsonl").entries()
    timed = [e for e in entries if e.get("wall_ms") is not None]
    assert len(timed) == len(executed)
    # the cacheable payload stays machine-independent
    assert "wall_ms" not in executed[0].payload()
    store = ResultStore(cdir / "cache")
    cached = store.result_for(executed[0].task_id, executed[0].point)
    assert cached is not None and cached.wall_ms is None


def test_wall_time_present_in_scalar_and_batch_paths():
    # Model mode is fused; run-mode points fall back to execute_point.
    for modes in (("model",), ("run",)):
        outcome = run_campaign(tiny_spec(modes=modes))
        for task in outcome.plan.runnable:
            assert outcome.results[task.task_id].wall_ms is not None, (
                f"modes={modes} lost wall_ms"
            )
