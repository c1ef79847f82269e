"""Wave-level group commit: one fsynced journal append per wave.

The executor buffers each wave's journal rows and commits them with one
``Journal.append(*rows)`` when the wave ends. Cache objects are still
put per task *before* that commit, so a crash inside a wave loses only
rows whose results are already stored: a resume serves them as cache
hits, never re-executes them, and converges bit-identically.
"""

from __future__ import annotations

import pytest

from repro.campaign import executor as executor_mod
from repro.campaign.cli import main
from repro.campaign.executor import run_campaign
from repro.campaign.plan import plan_campaign
from repro.campaign.store import FAILED, Journal

from tests.campaign.test_executor import tiny_spec


def test_one_append_per_non_empty_wave_in_wave_and_task_order(
        tmp_path, monkeypatch):
    calls: list[list[str]] = []  # the task ids of each Journal.append call
    real = Journal.append

    def spy(self, *entries):
        calls.append([entry["task_id"] for entry in entries])
        return real(self, *entries)

    monkeypatch.setattr(Journal, "append", spy)
    cdir = tmp_path / "camp"
    outcome = run_campaign(tiny_spec(), campaign_dir=cdir)
    waves = [[t.task_id for t in wave]
             for wave in executor_mod._all_waves(outcome.plan)]
    assert len(waves) == 3  # pruned N/A, baselines, measures
    assert calls == waves
    entries = Journal(cdir / "journal.jsonl").entries()
    assert [e["task_id"] for e in entries] == [t for w in waves for t in w]

    # a fully journaled resume re-appends nothing: every wave is empty
    calls.clear()
    again = run_campaign(tiny_spec(), campaign_dir=cdir, resume=True)
    assert again.stats.executed == 0
    assert calls == []


def test_crash_before_the_measures_commit_resumes_from_cache(
        tmp_path, monkeypatch):
    plan = plan_campaign(tiny_spec())
    measures = {t.task_id for t in plan.measures if t.pruned is None}
    real = Journal.append

    def crash_on_measures(self, *entries):
        if any(entry["task_id"] in measures for entry in entries):
            raise OSError("crash before the measures wave's commit")
        return real(self, *entries)

    cdir = tmp_path / "camp"
    monkeypatch.setattr(Journal, "append", crash_on_measures)
    with pytest.raises(OSError, match="measures wave"):
        run_campaign(tiny_spec(), campaign_dir=cdir)
    monkeypatch.undo()
    journaled = Journal(cdir / "journal.jsonl").completed_ids()
    assert journaled and not measures & set(journaled)  # their rows were lost

    resumed = run_campaign(tiny_spec(), campaign_dir=cdir, resume=True)
    assert resumed.stats.executed == 0  # nothing re-executes...
    assert resumed.stats.cache_hits == len(measures)  # ...the lost rows hit
    clean = run_campaign(tiny_spec())
    assert set(resumed.results) == set(clean.results)
    for tid, result in clean.results.items():
        assert resumed.results[tid].status == result.status
        assert resumed.results[tid].seconds == result.seconds  # bit-identical
    assert measures <= set(Journal(cdir / "journal.jsonl").completed_ids())
    assert main(["verify", str(cdir)]) == 0


def test_drain_after_the_first_wave_leaves_every_result_durable(tmp_path):
    spec = tiny_spec(backends=("GCC-TBB",))  # no pruned wave: baselines first
    recorded: list[str] = []
    cdir = tmp_path / "camp"
    outcome = run_campaign(
        spec, campaign_dir=cdir,
        progress=lambda task, result: recorded.append(task.task_id),
        should_stop=lambda: bool(recorded))
    assert outcome.stats.drained
    first = next(outcome.plan.waves())
    assert recorded == [t.task_id for t in first]
    durable = {tid for tid, result in outcome.results.items()
               if result.status != FAILED}
    assert durable and durable < {t.task_id for t in outcome.plan.tasks}
    assert set(Journal(cdir / "journal.jsonl").completed_ids()) == durable
