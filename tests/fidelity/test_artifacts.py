"""Tests for the artifact builder registry (``repro.fidelity.artifacts``)."""

from __future__ import annotations

import pytest

from repro.campaign.store import ResultStore
from repro.errors import FidelityError
from repro.fidelity.artifacts import artifact_builders, build_artifact
from repro.fidelity.refdata import ARTIFACT_IDS
from repro.scenarios import RunOptions, run_scenario


def test_registry_covers_every_artifact():
    builders = artifact_builders()
    assert list(builders) == list(ARTIFACT_IDS)
    assert all(callable(b) for b in builders.values())


def test_unknown_artifact_rejected():
    with pytest.raises(FidelityError, match="unknown artifact"):
        build_artifact("fig99")


def test_fig1_cells_match_refdata_keys():
    measured = build_artifact("fig1")
    assert measured.artifact == "fig1"
    assert measured.cell("GCC-TBB/for_each_k1000") is not None
    # NVC++ has no std::execution sort offload in the paper either
    assert "GCC-TBB/sort" in measured.cells


def test_fig2_size_step_coarsens_curves():
    fine = run_scenario("fig2", RunOptions(size_step=4))
    coarse = run_scenario("fig2", RunOptions(size_step=8))
    name = next(iter(fine.curves))
    assert len(coarse.curves[name]) < len(fine.curves[name])


def test_fig3_records_trace_summary_object():
    measured = build_artifact("fig3")
    summary = measured.objects["trace_summary"]
    assert summary["total_events"] > 0
    assert summary["call_span_names"]


def test_table5_builder_reuses_campaign_cache(tmp_path):
    store = ResultStore(tmp_path / "cache")
    build_artifact("table5", RunOptions(store=store))
    assert store.misses > 0
    warm = ResultStore(tmp_path / "cache")
    again = build_artifact("table5", RunOptions(store=warm))
    assert warm.misses == 0 and warm.hits > 0
    assert again.cells == build_artifact("table5").cells
