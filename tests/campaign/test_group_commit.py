"""Wave-level group commit: one transaction and one fsynced journal
append per wave.

The executor buffers each wave's cache objects and journal rows and
commits them when the wave ends: the objects as one transaction
(``ResultStore.put_many``), then the rows with one
``Journal.append(*rows)``. A crash after the object commit loses only
rows whose results are already stored: a resume serves them as cache
hits, never re-executes them, and converges bit-identically. A crash
inside the object commit loses the wave whole: none of its rows is
visible, and a resume recomputes it bit-identically.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.campaign import executor as executor_mod
from repro.campaign.cli import main
from repro.campaign.executor import run_campaign
from repro.campaign.plan import plan_campaign
from repro.campaign.store import FAILED, Journal, ResultStore

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


#: A campaign whose writer is SIGKILLed inside the put of its measures,
#: with that batch's rows inserted and not yet committed.
_KILLED_WRITER = textwrap.dedent("""
    import os, signal, sys
    from repro.campaign import shard
    from repro.campaign.executor import run_campaign
    from tests.campaign.test_executor import tiny_spec

    keys = set(sys.argv[2:])

    def killed(self, *rows):
        self._conn.execute("BEGIN IMMEDIATE")
        self._conn.executemany(
            "INSERT OR REPLACE INTO results VALUES (?, ?, ?, ?, ?, ?)", rows)
        if keys & {row[0] for row in rows}:
            os.kill(os.getpid(), signal.SIGKILL)
        self._conn.execute("COMMIT")

    shard.ShardIndex.append = killed
    run_campaign(tiny_spec(), campaign_dir=sys.argv[1])
""")


def test_crash_between_the_pack_and_its_index_rows_recomputes(tmp_path, capsys):
    plan = plan_campaign(tiny_spec())
    measures = {t.task_id for t in plan.measures if t.pruned is None}
    keys = {ResultStore(None).key_for(t.point)
            for t in plan.measures if t.pruned is None}
    assert len(keys) == len(measures)
    repo = Path(__file__).resolve().parents[2]
    cdir = tmp_path / "camp"
    env = {**os.environ, "PYTHONPATH": str(repo / "src")}
    killed = subprocess.run(
        [sys.executable, "-c", _KILLED_WRITER, str(cdir), *sorted(keys)],
        cwd=repo, env=env, timeout=120)
    assert killed.returncode == -signal.SIGKILL
    # the killed put took the wave's journal rows with it...
    journaled = Journal(cdir / "journal.jsonl").completed_ids()
    assert journaled and not measures & set(journaled)
    # ...and no row of its uncommitted batch is visible
    store = ResultStore(cdir / "cache")
    assert not any(store.contains(key) for key in keys)
    assert store.count_objects() > 0 and store.scan().errors == 0

    resumed = run_campaign(tiny_spec(), campaign_dir=cdir, resume=True)
    assert resumed.stats.executed == len(measures)  # recomputed, not served
    clean = run_campaign(tiny_spec())
    assert set(resumed.results) == set(clean.results)
    for tid, result in clean.results.items():
        assert resumed.results[tid].status == result.status
        assert resumed.results[tid].seconds == result.seconds  # bit-identical
    capsys.readouterr()
    assert main(["verify", str(cdir)]) == 0
    assert "verify: OK" in capsys.readouterr().out
