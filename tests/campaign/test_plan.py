"""Planner: deterministic expansion, pruning, baseline dedup."""

from __future__ import annotations

import pytest

from repro.campaign.plan import BASELINE, MEASURE, plan_campaign, task_id_for
from repro.campaign.spec import CampaignSpec
from repro.errors import CampaignError
from repro.scenarios import campaign_spec


def table5_campaign_spec(size_exp: int) -> CampaignSpec:
    """The registered Table 5 scenario's campaign at 2^size_exp."""
    return campaign_spec("table5", {"size_exps": [size_exp]})


def tiny_spec(**kwargs) -> CampaignSpec:
    base = dict(name="tiny", machines=("A",), backends=("GCC-TBB",),
                cases=("reduce",), size_exps=(12,))
    base.update(kwargs)
    return CampaignSpec(**base)


def test_plan_is_deterministic():
    spec = table5_campaign_spec(16)
    a = plan_campaign(spec)
    b = plan_campaign(spec)
    assert [t.task_id for t in a.tasks] == [t.task_id for t in b.tasks]
    assert [t.point for t in a.tasks] == [t.point for t in b.tasks]


def test_table5_plan_shape():
    """5 backends x 6 cases x 3 machines = 90 measures + 18 shared baselines."""
    plan = plan_campaign(table5_campaign_spec(16))
    assert len(plan.tasks) == 108
    assert len(plan.baselines) == 18  # one per (machine, case)
    assert len(plan.measures) == 90
    # GNU lacks parallel inclusive_scan (3 machines) + ICC absent on B (6 cases)
    assert len(plan.pruned) == 9
    reasons = {t.pruned for t in plan.pruned}
    assert any("Mach B" in r for r in reasons)
    assert any("inclusive_scan" in t.point.case for t in plan.pruned)


def test_baselines_are_shared():
    plan = plan_campaign(table5_campaign_spec(16))
    baseline_ids = {t.task_id for t in plan.baselines}
    for measure in plan.measures:
        if measure.pruned is None:
            assert measure.baseline_id in baseline_ids
            assert measure.depends_on == (measure.baseline_id,)
    # every non-pruned measure on Mach A/reduce shares ONE denominator
    reduce_a = [t for t in plan.measures
                if t.point.machine == "A" and t.point.case == "reduce"
                and t.pruned is None]
    assert len({t.baseline_id for t in reduce_a}) == 1


def test_threads_none_resolves_to_machine_cores():
    plan = plan_campaign(tiny_spec(machines=("A", "C")))
    by_machine = {t.point.machine: t.point.threads for t in plan.measures}
    assert by_machine == {"A": 32, "C": 128}


def test_threads_wider_than_machine_are_skipped():
    plan = plan_campaign(tiny_spec(threads=(16, 64)))  # Mach A has 32 cores
    assert [t.point.threads for t in plan.measures] == [16]


def test_baseline_runs_single_threaded():
    plan = plan_campaign(tiny_spec())
    for task in plan.baselines:
        assert task.point.backend == "GCC-SEQ"
        assert task.point.threads == 1


def test_excluded_pairs_are_pruned_not_executed():
    plan = plan_campaign(tiny_spec(exclude=(("A", "GCC-TBB"),)))
    assert len(plan.runnable) == 0  # no baseline needed for a pruned cell
    assert len(plan.pruned) == 1
    assert plan.pruned[0].baseline_id is None


def test_waves_order_baselines_first():
    plan = plan_campaign(table5_campaign_spec(16))
    waves = list(plan.waves())
    assert len(waves) == 2
    assert {t.kind for t in waves[0]} == {BASELINE}
    assert {t.kind for t in waves[1]} == {MEASURE}


def test_task_ids_are_content_addressed():
    plan = plan_campaign(tiny_spec())
    for task in plan.tasks:
        assert task.task_id == task_id_for(task.point)
        assert len(task.task_id) == 16


def test_unknown_names_fail_at_plan_time():
    with pytest.raises(CampaignError):
        plan_campaign(tiny_spec(machines=("Z",)))
    with pytest.raises(CampaignError):
        plan_campaign(tiny_spec(backends=("GCC-FOO",)))


def test_non_sequential_baseline_rejected():
    with pytest.raises(CampaignError, match="not sequential"):
        plan_campaign(tiny_spec(baseline_backend="GCC-TBB"))
