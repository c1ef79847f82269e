"""The ``dispatch=`` seam: remote rows land, every other task runs locally.

A dispatch hook returns only the rows that already landed through
segment ingest. ``run_campaign`` records those without a local store
write and runs every other task of the wave through its own local
runner, with the campaign's own ``batch``, ``retries`` and ``faults``.
A stub stands in for :class:`~repro.remote.RemoteCoordinator` here, so
no registry or executor is involved.
"""

from __future__ import annotations

from repro.campaign import executor as executor_mod
from repro.campaign.executor import run_campaign
from repro.campaign.spec import PointSpec
from repro.campaign.store import Journal, ResultStore
from repro.faults import FaultPlan

from tests.campaign.test_chaos import chaos_spec


def test_dispatch_lands_some_rows_and_the_rest_run_locally(tmp_path,
                                                            monkeypatch):
    spec = chaos_spec()
    clean = run_campaign(spec)
    landed_ids: set[str] = set()

    def stub(tasks):
        """Land every other task of the wave, as a remote executor would."""
        landed = {}
        for task in tasks[::2]:
            result = clean.results[task.task_id]
            landed[task.task_id] = {"status": result.status,
                                    "seconds": result.seconds,
                                    "error": result.error, "wall_ms": 1.0,
                                    "attempts": 1}
        landed_ids.update(landed)
        return landed

    executed: list[PointSpec] = []
    real_execute_point = executor_mod.execute_point

    def spy(payload):
        executed.append(PointSpec.from_dict(payload))
        return real_execute_point(payload)

    monkeypatch.setattr(executor_mod, "execute_point", spy)
    plan = FaultPlan(seed=1, worker_exception=0.5)
    store = ResultStore(None)
    cdir = tmp_path / "camp"
    outcome = run_campaign(spec, campaign_dir=cdir, store=store, batch=False,
                           retries=2, faults=plan, dispatch=stub)

    runnable = outcome.plan.runnable
    local = [t for t in runnable if t.task_id not in landed_ids]
    assert landed_ids and local
    # Only the tasks no executor landed reach the local runner, which
    # claims the campaign's worker faults for them and retries them.
    assert {t.point for t in local} == set(executed)
    assert outcome.stats.faults_injected == sum(
        plan.fires("worker_exception", t.task_id) for t in local) > 0
    for task in local:
        faulted = plan.fires("worker_exception", task.task_id)
        assert outcome.results[task.task_id].attempts == 1 + faulted
    assert outcome.stats.failed == 0
    assert outcome.stats.executed == len(runnable)
    assert outcome.stats.remote == len(landed_ids)

    # Landed rows are journaled but not stored again here: ingest owns
    # their store write. Local results are stored as usual.
    for task in runnable:
        stored = store.get(task.point)
        assert (stored is None) == (task.task_id in landed_ids)

    # The journal holds each wave's rows in plan order.
    order = [t.task_id for t in outcome.plan.pruned]
    order += [t.task_id for wave in outcome.plan.waves() for t in wave]
    journaled = [row["task_id"] for row in
                 Journal(cdir / "journal.jsonl").entries()]
    assert journaled == order

    for task in outcome.plan.tasks:
        assert outcome.results[task.task_id].status == \
            clean.results[task.task_id].status
        assert outcome.results[task.task_id].seconds == \
            clean.results[task.task_id].seconds  # bit for bit
