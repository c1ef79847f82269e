"""Chaos suite: seeded fault schedules must converge to bit-identical grids.

Every test here drives the full campaign pipeline under a deterministic
:class:`~repro.faults.FaultPlan` and checks the headline invariant from
docs/ROBUSTNESS.md: for any fault schedule below the retry budget,

    run -> (faults) -> resume -> query

produces results *bit-identical* to a fault-free run, and the store
verifies clean afterwards. The matrix is 3 seeds x 4 fault kinds; each
cell is fully reproducible (a failing seed is a repro recipe, not a
flake). Marked ``chaos`` so CI can run the matrix as its own job.
"""

from __future__ import annotations

import pytest

from repro.campaign.cli import main
from repro.campaign.executor import run_campaign
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.faults import FaultPlan

from tests.campaign.test_executor import per_point

pytestmark = pytest.mark.chaos

SEEDS = (1, 2, 3)

#: kind -> (plan kwargs, pool width). Kill needs a real process pool (it
#: breaks one); the rest run serial for speed. Kill is capped so a hostile
#: seed cannot exceed the executor's MAX_POOL_REBUILDS bound.
KINDS = {
    "worker_exception": ({"worker_exception": 0.5}, 0),
    "worker_kill": ({"worker_kill": 0.4, "max_faults": 4}, 2),
    "cache_corrupt": ({"cache_corrupt": 0.5}, 0),
    "journal_torn_tail": ({"journal_torn_tail": 0.5}, 0),
}


def chaos_spec() -> CampaignSpec:
    return CampaignSpec(name="chaos", machines=("A",),
                        backends=("GCC-TBB", "GCC-GNU"),
                        cases=("reduce", "transform", "find"),
                        size_exps=(12, 13))


def assert_bit_identical(clean, recovered) -> None:
    for task in clean.plan.tasks:
        a = clean.results[task.task_id]
        b = recovered.results[task.task_id]
        assert b.status == a.status, task.task_id
        assert b.seconds == a.seconds, task.task_id  # exact, not approximate


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_faulted_run_then_resume_is_bit_identical(tmp_path, seed, kind):
    plan_kwargs, workers = KINDS[kind]
    plan = FaultPlan(seed=seed, **plan_kwargs)
    clean = run_campaign(chaos_spec())

    cdir = tmp_path / "camp"
    faulted = run_campaign(chaos_spec(), campaign_dir=cdir, workers=workers,
                           retries=2, faults=plan)
    assert faulted.stats.faults_injected > 0  # the schedule actually hit
    assert faulted.stats.failed == 0  # every injection stayed under budget

    resumed = run_campaign(chaos_spec(), campaign_dir=cdir, resume=True)
    assert resumed.stats.failed == 0
    assert_bit_identical(clean, resumed)

    # After recovery the store holds no corrupt objects: every flipped
    # record -- one whose "checksum" field name a flip renamed included --
    # was quarantined on resume and its point recomputed.
    scan = ResultStore(cdir / "cache").scan()
    assert scan.errors == 0
    assert scan.ok == len(clean.plan.runnable)


#: ``faults_injected`` of the journal_torn_tail-only cell per seed, as the
#: one-append-per-task journal produced them. The wave group commit claims
#: the same (site, task) pairs once per committed row, so the counts must
#: not move: a change to claim order or granularity fails here instead of
#: silently thinning the schedule.
TORN_TAIL_INJECTED = {1: 10, 2: 9, 3: 11}


@pytest.mark.parametrize("seed", SEEDS)
def test_torn_tail_schedule_is_pinned(tmp_path, seed):
    plan_kwargs, workers = KINDS["journal_torn_tail"]
    faulted = run_campaign(chaos_spec(), campaign_dir=tmp_path / "camp",
                           workers=workers, retries=2,
                           faults=FaultPlan(seed=seed, **plan_kwargs))
    assert faulted.stats.faults_injected == TORN_TAIL_INJECTED[seed]


@pytest.mark.parametrize("seed", SEEDS)
def test_every_site_at_once_still_converges(tmp_path, seed):
    plan = FaultPlan(seed=seed, worker_exception=0.3, cache_corrupt=0.3,
                     journal_torn_tail=0.3)
    clean = run_campaign(chaos_spec())
    cdir = tmp_path / "camp"
    faulted = run_campaign(chaos_spec(), campaign_dir=cdir, retries=2,
                           faults=plan)
    assert faulted.stats.failed == 0
    resumed = run_campaign(chaos_spec(), campaign_dir=cdir, resume=True)
    assert_bit_identical(clean, resumed)
    assert main(["verify", str(cdir)]) == 0  # the CLI agrees the store is clean


def test_hung_worker_times_out_retries_and_converges(tmp_path):
    # One worker stalls well past the per-task timeout; the executor must
    # surface it as a timed-out attempt, retry it, and still converge.
    plan = FaultPlan(seed=5, worker_hang=1.0, max_faults=1, hang_seconds=1.0)
    clean = run_campaign(chaos_spec())
    faulted = run_campaign(chaos_spec(), campaign_dir=tmp_path / "camp",
                           workers=2, timeout=0.25, retries=2, faults=plan)
    assert faulted.stats.faults_injected == 1
    assert faulted.stats.failed == 0
    assert_bit_identical(clean, faulted)


def test_kill_schedule_rebuilds_the_pool(tmp_path):
    plan = FaultPlan(seed=1, worker_kill=1.0, max_faults=2)
    outcome = run_campaign(chaos_spec(), campaign_dir=tmp_path / "camp",
                           workers=2, retries=2, faults=plan)
    assert outcome.stats.faults_injected == 2
    assert outcome.stats.pool_rebuilds >= 1
    assert "pool rebuilds" in outcome.stats.summary()
    assert outcome.stats.failed == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_serial_and_pooled_runs_claim_the_same_faults(seed, monkeypatch):
    # Inline and pooled waves share one submit/retry loop, so a plan's
    # worker faults are claimed for every task either way, and so are
    # they when every task is submitted alone.
    plan = FaultPlan(seed=seed, worker_exception=0.5)
    runs = [run_campaign(chaos_spec(), retries=2, faults=plan, workers=workers)
            for workers in (0, 2)]
    per_point(monkeypatch)
    runs.append(run_campaign(chaos_spec(), retries=2, faults=plan, workers=0))
    injected = {run.stats.faults_injected for run in runs}
    assert len(injected) == 1 and injected.pop() > 0
    assert [run.stats.failed for run in runs] == [0, 0, 0]


def test_serial_run_never_kills_or_hangs_the_driver():
    # Kill and hang are pool-only: an inline runner claims neither, so
    # the driver process survives and nothing waits out a hang.
    plan = FaultPlan(seed=1, worker_kill=1.0, worker_hang=1.0)
    outcome = run_campaign(chaos_spec(), workers=0, retries=0, faults=plan)
    assert outcome.stats.faults_injected == 0
    assert outcome.stats.failed == 0
    assert outcome.stats.executed == len(outcome.plan.runnable)
