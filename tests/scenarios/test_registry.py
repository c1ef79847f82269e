"""Registry pins: the declarative specs cannot drift from the paper's
axes, the fidelity artifact ids, or the campaign identities.

Each artifact's ``output`` golden in ``refdata/`` pins the registry's
*outputs*; this module pins its *inputs* -- the axis values the former
per-figure drivers hard-coded, spelled out here as literals -- and the
content-derived campaign ids that service dedup and store reuse key on,
so an edit to either side fails loudly.
"""

from __future__ import annotations

import pytest

from repro.errors import ScenarioError
from repro.scenarios.analyses import analysis_kinds, get_analysis
from repro.scenarios.registry import (
    BUILTIN_SCENARIOS,
    builtin_scenarios,
    get_scenario,
    scenario_names,
)

EXPECTED_NAMES = (
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "table3", "table4", "table5", "table6", "table7",
)


def test_registry_carries_every_paper_artifact_in_report_order():
    assert scenario_names() == EXPECTED_NAMES


def test_every_builtin_spec_validates():
    specs = builtin_scenarios()
    assert set(specs) == set(EXPECTED_NAMES)
    for name, spec in specs.items():
        assert spec.name == name
        assert spec.title


def test_claims_bind_exactly_the_fidelity_artifacts():
    from repro.fidelity.refdata import ARTIFACT_IDS

    claims = {get_scenario(n).claims for n in scenario_names()}
    assert claims == set(ARTIFACT_IDS)
    for name in scenario_names():
        assert get_scenario(name).claims == name


def test_unknown_scenario_raises_with_the_known_list():
    with pytest.raises(ScenarioError, match="unknown scenario 'fig99'"):
        get_scenario("fig99")


def test_get_scenario_is_cached():
    assert get_scenario("fig1") is get_scenario("fig1")


def test_every_analysis_kind_is_exercised_by_a_builtin():
    used = {get_scenario(n).analysis for n in scenario_names()}
    # campaign-grid is the user-facing kind; every other kind carries a
    # paper artifact
    assert set(analysis_kinds()) - used == {"campaign-grid"}


def test_builtin_entries_are_plain_json_payloads():
    import json

    for entry in BUILTIN_SCENARIOS:
        assert json.loads(json.dumps(entry)) == dict(entry)


# -- pins against the paper's axis constants ----------------------------------

_FIG2_BACKENDS = ("GCC-SEQ", "GCC-TBB", "GCC-GNU", "GCC-HPX", "ICC-TBB", "NVC-OMP")


def test_fig1_axes_match_the_legacy_constants():
    spec = get_scenario("fig1")
    # HPX keeps its own allocator, so Fig. 1 compares the other four
    assert spec.backends == ("GCC-TBB", "GCC-GNU", "ICC-TBB", "NVC-OMP")
    assert spec.cases == ("find", "for_each_k1", "for_each_k1000",
                          "inclusive_scan", "reduce", "sort")
    assert spec.machines == ("A",)
    assert spec.threads == (32,)
    assert spec.size_exps == (30,)


def test_fig2_backends_match_the_legacy_constant():
    assert get_scenario("fig2").backends == _FIG2_BACKENDS


@pytest.mark.parametrize("name", ["fig3", "fig4", "fig5", "fig6", "fig7",
                                  "table3", "table4", "table5", "table6"])
def test_parallel_cpu_backends_match_the_registry_constant(name):
    from repro.backends.registry import PARALLEL_CPU_BACKENDS

    assert get_scenario(name).backends == tuple(PARALLEL_CPU_BACKENDS)


def test_headline_cases_match_the_suite_constant():
    from repro.suite.cases import HEADLINE_CASES

    assert get_scenario("fig1").cases == tuple(HEADLINE_CASES)
    assert get_scenario("table5").cases == tuple(HEADLINE_CASES)
    assert get_scenario("table6").cases == tuple(HEADLINE_CASES)


def test_table3_backends_match_the_legacy_constant():
    from repro.backends.registry import PARALLEL_CPU_BACKENDS

    assert get_scenario("table3").backends == tuple(PARALLEL_CPU_BACKENDS)
    assert get_scenario("table4").backends == tuple(PARALLEL_CPU_BACKENDS)


def test_table7_backends_match_the_legacy_constant():
    assert get_scenario("table7").backends == (
        "GCC-SEQ", "GCC-TBB", "GCC-GNU", "GCC-HPX", "ICC-TBB", "NVC-OMP",
        "NVC-CUDA",
    )


def test_fig8_sweep_options_match_the_legacy_driver():
    spec = get_scenario("fig8")
    assert spec.k_values == (1, 1000, 10000)
    # GPU sweeps stop at 2^29 floats so the A2's 8 GiB UM never thrashes
    assert spec.option("max_exp") == 29
    assert spec.option("size_step") == 2


# -- campaign identity pins --------------------------------------------------

#: Content-derived ids of the paper-scale campaign specs. Service dedup
#: and store reuse against existing campaigns key on these.
TABLE5_CAMPAIGN_ID = "ab5ff6107147fc3f"
TABLE6_CAMPAIGN_ID = "0f4c40975b5b2d7f"


def test_table5_scenario_produces_the_legacy_campaign_spec():
    from repro.scenarios import campaign_spec
    from repro.service.scheduler import campaign_id

    spec = get_scenario("table5")
    kind = get_analysis(spec.analysis)
    assert kind.campaign_spec_for is not None
    assert kind.campaign_spec_for(spec).name == "table5-2^30"
    assert campaign_id(campaign_spec("table5")) == TABLE5_CAMPAIGN_ID


def test_table6_scenario_produces_the_legacy_campaign_spec():
    from repro.scenarios import campaign_spec
    from repro.service.scheduler import campaign_id

    spec = campaign_spec("table6")
    assert spec.name == "table6-2^30"
    assert spec.threads == (1, 2, 4, 8, 16, 32, 64, 128)
    assert campaign_id(spec) == TABLE6_CAMPAIGN_ID


def test_campaign_shaped_scenarios_share_the_content_derived_id():
    from repro.campaign.spec import CampaignSpec
    from repro.scenarios.runner import campaign_payload
    from repro.service.scheduler import campaign_id

    via_payload = CampaignSpec.from_dict(campaign_payload("table5"))
    assert campaign_id(via_payload) == TABLE5_CAMPAIGN_ID
