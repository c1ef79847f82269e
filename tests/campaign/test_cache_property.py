"""Property tests: cache soundness of the campaign store.

Two invariants the content-addressed design promises, checked over
randomly drawn specs rather than the two paper grids:

* a re-run against a warm store is served entirely from cache and is
  **bit-identical** to the cold run (the simulator is deterministic, so
  equality is exact ``==`` on floats, not approximate);
* bumping the model fingerprint shifts every cache key, forcing a full
  recompute -- which, model unchanged, reproduces the same values.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.campaign.executor import run_campaign
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore

MACHINES = ("A", "B", "C")
BACKENDS = ("GCC-TBB", "GCC-GNU", "GCC-HPX", "ICC-TBB", "NVC-OMP")
CASES = ("reduce", "find", "sort", "inclusive_scan", "for_each_k1")


@st.composite
def campaign_specs(draw):
    """Small random sweeps over the paper's machines/backends/cases."""
    machines = draw(st.lists(st.sampled_from(MACHINES), min_size=1,
                             max_size=2, unique=True))
    backends = draw(st.lists(st.sampled_from(BACKENDS), min_size=1,
                             max_size=2, unique=True))
    cases = draw(st.lists(st.sampled_from(CASES), min_size=1, max_size=2,
                          unique=True))
    size_exp = draw(st.integers(min_value=8, max_value=14))
    threads = draw(st.sampled_from([(None,), (1, 4), (2,), (None, 8)]))
    return CampaignSpec(
        name="prop", machines=machines, backends=backends, cases=cases,
        size_exps=(size_exp,), threads=threads,
    )


def outcomes_identical(a, b) -> bool:
    """Same tasks, same statuses, bit-identical seconds."""
    if set(a.results) != set(b.results):
        return False
    return all(
        b.results[tid].status == r.status and b.results[tid].seconds == r.seconds
        for tid, r in a.results.items()
    )


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=campaign_specs())
def test_warm_rerun_is_bit_identical_and_fully_cached(spec):
    store = ResultStore(None)
    cold = run_campaign(spec, store=store)
    warm = run_campaign(spec, store=store)
    assert warm.stats.executed == 0  # zero simulator invocations
    assert warm.stats.cache_hits == cold.stats.executed
    assert outcomes_identical(cold, warm)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=campaign_specs())
def test_fingerprint_bump_forces_recompute(spec):
    old_store = ResultStore(None, fingerprint="model-v1")
    cold = run_campaign(spec, store=old_store)
    new_store = ResultStore(None, fingerprint="model-v2")
    new_store.index = old_store.index  # the same table, shifted keys
    recomputed = run_campaign(spec, store=new_store)
    assert recomputed.stats.cache_hits == 0  # every old key missed
    assert recomputed.stats.executed == cold.stats.executed
    # the model didn't actually change, so values agree exactly
    assert outcomes_identical(cold, recomputed)
