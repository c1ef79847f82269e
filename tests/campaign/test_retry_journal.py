"""Retry + journal interaction: failure -> retry -> success leaves no scars.

A point that times out or fails and is later retried successfully must
end up indistinguishable from one that succeeded first try: bit-identical
seconds, exactly one terminal journal row, and a resume that does not
re-execute it. These tests drive the failure through the wave executor
(one fused submission per wave, or per pool shard, with per-point
retries) as well as the pool plumbing, complementing the per-point
injection tests in ``test_executor.py``.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.campaign import executor as executor_mod
from repro.campaign.executor import run_campaign
from repro.campaign.plan import plan_campaign
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import DONE, FAILED, NA, Journal

from tests.campaign.test_executor import per_point, tiny_spec


def _failed(payloads):
    return [
        {"status": FAILED, "seconds": None, "error": "injected wave failure"}
        for _ in payloads
    ]


def test_curve_failure_retries_scalar_and_recovers(monkeypatch):
    """Every point of a failed wave group retries through execute_point."""
    monkeypatch.setattr(executor_mod, "execute_wave", _failed)
    outcome = run_campaign(tiny_spec(), retries=1)
    assert outcome.stats.failed == 0
    executed = [r for r in outcome.results.values() if not r.cached]
    assert executed
    for result in executed:
        if result.status == DONE:
            assert result.attempts == 2  # wave failure + scalar retry

    per_point(monkeypatch)
    clean = run_campaign(tiny_spec())
    for tid, result in clean.results.items():
        assert outcome.results[tid].status == result.status
        assert outcome.results[tid].seconds == result.seconds  # no stale state


def test_recovered_points_journal_single_terminal_row(tmp_path, monkeypatch):
    """Retry happens before journaling: one row per task, all done."""
    monkeypatch.setattr(executor_mod, "execute_wave", _failed)
    cdir = tmp_path / "camp"
    outcome = run_campaign(tiny_spec(), campaign_dir=cdir, retries=1)
    assert outcome.stats.failed == 0
    entries = Journal(cdir / "journal.jsonl").entries()
    per_task: dict[str, list[dict]] = {}
    for entry in entries:
        per_task.setdefault(entry["task_id"], []).append(entry)
    assert set(per_task) == set(outcome.results)
    for tid, rows in per_task.items():
        assert len(rows) == 1, f"{tid}: duplicate journal rows"
        assert rows[0]["status"] == outcome.results[tid].status


def test_journaled_failure_resumes_to_success_without_duplicates(
    tmp_path, monkeypatch
):
    """timeout/failure -> journaled FAILED -> resume retries -> one DONE row."""
    cdir = tmp_path / "camp"

    def timed_out(payloads):
        return [
            {"status": FAILED, "seconds": None, "error": "timeout after 1s"}
            for _ in payloads
        ]

    monkeypatch.setattr(executor_mod, "execute_wave", timed_out)
    first = run_campaign(tiny_spec(), campaign_dir=cdir, retries=0)
    assert first.stats.failed == first.stats.executed > 0
    monkeypatch.undo()

    resumed = run_campaign(tiny_spec(), campaign_dir=cdir, resume=True)
    assert resumed.stats.failed == 0
    assert resumed.stats.executed == first.stats.failed  # only failures re-ran

    clean = run_campaign(tiny_spec())
    for tid, result in clean.results.items():
        assert resumed.results[tid].status == result.status
        assert resumed.results[tid].seconds == result.seconds

    per_task: dict[str, list[str]] = {}
    for entry in Journal(cdir / "journal.jsonl").entries():
        per_task.setdefault(entry["task_id"], []).append(entry["status"])
    for tid, statuses in per_task.items():
        terminal = [s for s in statuses if s != FAILED]
        assert len(terminal) == 1, f"{tid}: duplicate terminal rows {statuses}"
        assert statuses[-1] == terminal[0]  # failure rows precede the recovery

    again = run_campaign(tiny_spec(), campaign_dir=cdir, resume=True)
    assert again.stats.executed == 0  # fully journaled; nothing re-runs


def _wave_tasks():
    plan = plan_campaign(tiny_spec())
    return [t for wave in plan.waves() for t in wave]


def test_pool_batch_timeout_fails_all_pending_points(monkeypatch):
    """A wave shard stuck past the budget marks each of its points failed."""
    monkeypatch.setattr(
        executor_mod, "execute_wave",
        lambda payloads: time.sleep(0.5) or [],
    )
    tasks = _wave_tasks()
    with ThreadPoolExecutor(max_workers=2) as pool:
        payloads = executor_mod._run_wave(
            tasks, pool, timeout=0.05, retries=0, shards=2
        )
    assert set(payloads) == {t.task_id for t in tasks}
    for payload in payloads.values():
        assert payload["status"] == FAILED
        assert "timeout" in payload["error"]


def test_pool_batch_curve_exception_retries_each_point(monkeypatch):
    """A crashing wave-shard future degrades to per-point scalar retries."""

    def boom(payloads):
        raise RuntimeError("worker died")

    monkeypatch.setattr(executor_mod, "execute_wave", boom)
    tasks = _wave_tasks()
    with ThreadPoolExecutor(max_workers=2) as pool:
        payloads = executor_mod._run_wave(
            tasks, pool, timeout=None, retries=1, shards=2
        )
    assert set(payloads) == {t.task_id for t in tasks}
    for task in tasks:
        payload = payloads[task.task_id]
        assert payload["status"] in (DONE, NA)
        assert payload["attempts"] == 2
