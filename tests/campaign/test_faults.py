"""repro.faults: plans, decisions, injector accounting, backoff, rebuild."""

from __future__ import annotations

import json

import pytest

from repro.campaign.executor import (
    BackoffPolicy,
    _PoolHandle,
    run_campaign,
)
from repro.campaign.spec import CampaignSpec, PointSpec
from repro.campaign.store import DONE, Journal, ResultStore
from repro.errors import CampaignError, FaultPlanError, InjectedFaultError
from repro.faults import (
    FAULT_SITES,
    WORKER_SITES,
    FaultInjector,
    FaultPlan,
    apply_directive,
    decision,
    faulty_point,
    faulty_wave,
    load_fault_plan,
)
from repro.trace import Tracer, use_tracer


POINT = PointSpec(machine="A", backend="GCC-TBB", case="reduce",
                  size_exp=12, threads=32)


def tiny_spec(**kwargs) -> CampaignSpec:
    base = dict(name="tiny", machines=("A",), backends=("GCC-TBB", "GCC-GNU"),
                cases=("reduce", "inclusive_scan"), size_exps=(12,))
    base.update(kwargs)
    return CampaignSpec(**base)


# ---------------------------------------------------------------- decisions


def test_decision_is_a_deterministic_unit_draw():
    draws = [decision(7, "worker_kill", f"task-{i}") for i in range(200)]
    assert all(0.0 <= d < 1.0 for d in draws)
    assert draws == [decision(7, "worker_kill", f"task-{i}") for i in range(200)]
    # seed, site and ident all shift the draw
    assert decision(7, "worker_kill", "t") != decision(8, "worker_kill", "t")
    assert decision(7, "worker_kill", "t") != decision(7, "worker_hang", "t")
    assert decision(7, "worker_kill", "t") != decision(7, "worker_kill", "u")


def test_fires_respects_rates():
    never = FaultPlan(seed=1)
    always = FaultPlan(seed=1, **{site: 1.0 for site in FAULT_SITES})
    for site in FAULT_SITES:
        assert not never.fires(site, "t")
        assert always.fires(site, "t")


def test_with_seed_changes_the_schedule():
    plan = FaultPlan(seed=0, worker_exception=0.5)
    idents = [f"task-{i}" for i in range(64)]
    a = [plan.fires("worker_exception", i) for i in idents]
    b = [plan.with_seed(1).fires("worker_exception", i) for i in idents]
    assert a != b  # same rate, different schedule


# --------------------------------------------------------------- validation


@pytest.mark.parametrize("bad", [
    {"worker_kill": 1.5},
    {"cache_corrupt": -0.1},
    {"worker_exception": "lots"},
    {"hang_seconds": -1.0},
    {"max_faults": -1},
])
def test_fault_plan_rejects_bad_values(bad):
    with pytest.raises(FaultPlanError):
        FaultPlan(**bad)


def test_fault_plan_roundtrip_and_unknown_keys():
    plan = FaultPlan(seed=3, worker_kill=0.25, journal_torn_tail=0.5,
                     hang_seconds=2.0, max_faults=4)
    assert FaultPlan.from_dict(plan.to_dict()) == plan
    with pytest.raises(FaultPlanError, match="unknown FaultPlan fields"):
        FaultPlan.from_dict({"worker_krash": 1.0})
    with pytest.raises(FaultPlanError, match="unknown fault site"):
        plan.rate("worker_krash")


def test_load_fault_plan(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"seed": 9, "cache_corrupt": 1.0}),
                    encoding="utf-8")
    plan = load_fault_plan(path)
    assert plan.seed == 9 and plan.cache_corrupt == 1.0
    with pytest.raises(FaultPlanError, match="no fault plan"):
        load_fault_plan(tmp_path / "missing.json")
    path.write_text("{torn", encoding="utf-8")
    with pytest.raises(FaultPlanError, match="invalid fault plan"):
        load_fault_plan(path)
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(FaultPlanError, match="JSON object"):
        load_fault_plan(path)


# ----------------------------------------------------------------- injector


def test_injector_fires_at_most_once_per_site_and_ident():
    injector = FaultInjector(FaultPlan(worker_exception=1.0))
    assert injector.claim_worker_fault("t1") == "worker_exception"
    assert injector.claim_worker_fault("t1") is None  # a retry runs clean
    assert injector.claim_worker_fault("t2") == "worker_exception"
    assert injector.total_injected == 2


def test_worker_sites_claim_in_priority_order():
    everything = FaultInjector(FaultPlan(
        worker_exception=1.0, worker_hang=1.0, worker_kill=1.0))
    assert everything.claim_worker_fault("t") == "worker_kill"
    no_kill = FaultInjector(FaultPlan(worker_exception=1.0, worker_hang=1.0))
    assert no_kill.claim_worker_fault("t") == "worker_hang"
    assert WORKER_SITES == ("worker_kill", "worker_hang", "worker_exception")


def test_inline_claims_consider_only_exceptions():
    # kill/hang in the driver process would take the campaign down with it
    injector = FaultInjector(FaultPlan(worker_kill=1.0, worker_hang=1.0))
    assert injector.claim_worker_fault("t", pool=False) is None
    both = FaultInjector(FaultPlan(worker_kill=1.0, worker_exception=1.0))
    assert both.claim_worker_fault("t", pool=False) == "worker_exception"


def test_max_faults_caps_total_injections():
    injector = FaultInjector(FaultPlan(worker_exception=1.0, max_faults=2))
    claims = [injector.claim_worker_fault(f"t{i}") for i in range(4)]
    assert claims == ["worker_exception", "worker_exception", None, None]
    assert injector.total_injected == 2


def test_was_killed_tracks_kill_claims():
    injector = FaultInjector(FaultPlan(worker_kill=1.0))
    assert not injector.was_killed("t")
    assert injector.claim_worker_fault("t") == "worker_kill"
    assert injector.was_killed("t")
    assert not injector.was_killed("other")


def test_after_put_corrupts_and_the_store_quarantines():
    store = ResultStore(None)
    key = store.put(POINT, {"status": DONE, "seconds": 1.0, "error": None})
    injector = FaultInjector(FaultPlan(cache_corrupt=1.0))
    injector.after_put(store, key)
    assert store.load_key(store.key_for(POINT)) is None  # tampered record is never served
    assert store.quarantined == 1
    assert injector.counts == {"cache_corrupt": 1}


def test_after_journal_tears_only_the_tail(tmp_path):
    journal = Journal(tmp_path / "journal.jsonl")
    journal.append({"task_id": "a", "status": DONE, "seconds": 1.0})
    journal.append({"task_id": "b", "status": DONE, "seconds": 2.0})
    injector = FaultInjector(FaultPlan(journal_torn_tail=1.0))
    injector.after_journal(journal, "b")
    assert set(journal.completed_ids()) == {"a"}
    assert journal.torn_lines() <= 1  # a full tear deletes the line outright


def test_injections_emit_trace_spans():
    tracer = Tracer()
    injector = FaultInjector(FaultPlan(worker_exception=1.0, cache_corrupt=1.0))
    store = ResultStore(None)
    key = store.put(POINT, {"status": DONE, "seconds": 1.0, "error": None})
    with use_tracer(tracer):
        injector.claim_worker_fault("t1")
        injector.after_put(store, key)
    spans = [s for s in tracer.spans if s.name == "fault.injected"]
    assert [s.attributes["site"] for s in spans] == ["worker_exception",
                                                     "cache_corrupt"]
    assert all(s.category == "faults" for s in spans)


def test_injector_summary_lines():
    injector = FaultInjector(FaultPlan(worker_exception=1.0))
    assert injector.summary() == "no faults injected"
    injector.claim_worker_fault("t1")
    injector.claim_worker_fault("t2")
    assert injector.summary() == "injected worker_exception=2"


# ----------------------------------------------------------- worker wrappers


def test_apply_directive_exception_and_unknown():
    with pytest.raises(InjectedFaultError, match="injected worker exception"):
        apply_directive("worker_exception", 0.0)
    with pytest.raises(InjectedFaultError, match="unknown fault directive"):
        apply_directive("worker_meltdown", 0.0)


def test_faulty_wrappers_raise_or_delegate():
    payload = POINT.to_dict()
    with pytest.raises(InjectedFaultError):
        faulty_point(payload, "worker_exception", 0.0)
    with pytest.raises(InjectedFaultError):
        faulty_wave([payload, payload], [None, "worker_exception"], 0.0)
    # a zero-second hang is a no-op stall: the real evaluation still runs
    out = faulty_point(payload, "worker_hang", 0.0)
    assert out["status"] == DONE and out["seconds"] > 0


# ------------------------------------------------------------------ backoff


def test_backoff_default_is_zero_delay():
    policy = BackoffPolicy()
    assert policy.delay("t", 1) == 0.0
    assert policy.sleep("t", 3) == 0.0


def test_backoff_grows_exponentially_and_caps():
    policy = BackoffPolicy(base=0.5, factor=2.0, max_delay=1.5)
    assert [policy.delay("t", k) for k in (1, 2, 3, 4)] == [0.5, 1.0, 1.5, 1.5]


def test_backoff_jitter_is_bounded_and_deterministic():
    policy = BackoffPolicy(base=1.0, factor=1.0, jitter=0.5, seed=4)
    delays = {tid: policy.delay(tid, 1) for tid in ("a", "b", "c", "d")}
    assert all(0.5 <= d <= 1.5 for d in delays.values())
    assert len(set(delays.values())) > 1  # tasks de-correlate
    assert delays == {tid: policy.delay(tid, 1) for tid in delays}


@pytest.mark.parametrize("bad", [
    {"base": -1.0}, {"factor": 0.5}, {"max_delay": -1.0}, {"jitter": 1.5},
])
def test_backoff_rejects_bad_values(bad):
    with pytest.raises(CampaignError):
        BackoffPolicy(**bad)


# ------------------------------------------------------------- pool rebuild


def test_pool_handle_counts_and_traces_rebuilds():
    tracer = Tracer()
    handle = _PoolHandle(2)
    with use_tracer(tracer):
        handle.rebuild()
        handle.rebuild()
    handle.shutdown()
    handle.shutdown()  # idempotent
    assert handle.rebuilds == 2
    spans = [s for s in tracer.spans if s.name == "pool.rebuild"]
    assert [s.attributes["rebuilds"] for s in spans] == [1, 2]


# --------------------------------------------------- campaign-level plumbing


def test_run_campaign_surfaces_fault_counters_in_stats():
    plan = FaultPlan(seed=11, worker_exception=1.0)
    outcome = run_campaign(tiny_spec(), retries=2, faults=plan)
    assert outcome.stats.failed == 0  # every injection retried to success
    assert outcome.stats.faults_injected > 0
    assert "faults injected" in outcome.stats.summary()
    for task in outcome.plan.runnable:
        assert outcome.results[task.task_id].status == DONE


def test_run_campaign_without_faults_mentions_no_degradation():
    outcome = run_campaign(tiny_spec())
    assert outcome.stats.faults_injected == 0
    assert "faults injected" not in outcome.stats.summary()
