"""Schema and integrity tests for ``refdata/``.

The checked-in reference files are the contract between the paper and
the reproduction; these tests keep them loadable, internally consistent
and honestly cited (every waiver must quote EXPERIMENTS.md verbatim).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import FidelityError
from repro.fidelity.refdata import (
    ARTIFACT_IDS,
    ArtifactRef,
    Claim,
    Waiver,
    load_all_refdata,
    load_refdata,
    refdata_dir,
    save_refdata,
)

EXPERIMENTS = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


def test_every_artifact_has_refdata():
    refs = load_all_refdata()
    assert [r.artifact for r in refs] == list(ARTIFACT_IDS)
    assert all(r.claims for r in refs), "no artifact may be claim-free"


def test_no_stray_refdata_files():
    names = {p.stem for p in refdata_dir().glob("*.json")}
    assert names == set(ARTIFACT_IDS)


def test_waivers_quote_experiments_md_verbatim():
    """Every waiver's citation must appear verbatim in EXPERIMENTS.md."""
    text = EXPERIMENTS.read_text(encoding="utf-8")
    for ref in load_all_refdata():
        for waiver in ref.waivers:
            assert waiver.experiments_md in text, (
                f"{ref.artifact}: waiver for {waiver.claim!r} cites text "
                f"not found in EXPERIMENTS.md: {waiver.experiments_md!r}"
            )


def test_all_claim_kinds_and_tiers_are_exercised():
    """The shipped refdata covers every claim kind (hence all 3 tiers)."""
    kinds = {c.kind for ref in load_all_refdata() for c in ref.claims}
    assert kinds == {"ordering", "ratio", "bound", "na", "crossover", "golden"}
    tiers = {c.tier for ref in load_all_refdata() for c in ref.claims}
    assert tiers == {"ordering", "ratio", "crossover"}


def test_refdata_round_trips(tmp_path):
    for ref in load_all_refdata():
        path = save_refdata(ref, tmp_path)
        again = load_refdata(ref.artifact, tmp_path)
        assert again == ref, f"{path} does not round-trip"


def test_claim_validation_rejects_malformed():
    with pytest.raises(FidelityError):
        Claim(id="x", kind="nope")
    with pytest.raises(FidelityError):
        Claim(id="x", kind="ordering", cell="a", group=("a",), expect="max")
    with pytest.raises(FidelityError):
        Claim(id="x", kind="ordering", cell="a", group=("b", "c"), expect="max")
    with pytest.raises(FidelityError):
        Claim(id="x", kind="ratio", cell="a", paper=2.0)  # no band
    with pytest.raises(FidelityError):
        Claim(id="x", kind="ratio", cell="a", paper=2.0, band=(1.5, 0.5))
    with pytest.raises(FidelityError):
        Claim(id="x", kind="bound", cell="a")  # neither min nor max
    with pytest.raises(FidelityError):
        Claim(id="x", kind="crossover", curve_a="a", curve_b="b")  # no paper_x
    with pytest.raises(FidelityError):
        Claim(id="x", kind="crossover", curve_a="a", curve_b="b",
              paper_x=8.0, steps=-1)


def test_claim_from_dict_rejects_unknown_fields():
    with pytest.raises(FidelityError):
        Claim.from_dict({"id": "x", "kind": "na", "cell": "a", "bogus": 1})
    with pytest.raises(FidelityError):
        Claim.from_dict({"kind": "na", "cell": "a"})


def test_waiver_requires_citation():
    with pytest.raises(FidelityError):
        Waiver(claim="x", reason="r", experiments_md="")


def test_artifact_ref_rejects_duplicate_ids_and_orphan_waivers():
    claim = Claim(id="c1", kind="na", cell="a")
    with pytest.raises(FidelityError):
        ArtifactRef(artifact="fig1", title="t", source="s",
                    claims=(claim, Claim(id="c1", kind="na", cell="b")))
    with pytest.raises(FidelityError):
        ArtifactRef(artifact="fig1", title="t", source="s", claims=(claim,),
                    waivers=(Waiver(claim="ghost", reason="r",
                                    experiments_md="e"),))
    with pytest.raises(FidelityError):
        ArtifactRef(artifact="fig1", title="t", source="s",
                    claims=(Claim(id="g", kind="golden", cell="obj"),))


def test_load_refdata_errors(tmp_path):
    with pytest.raises(FidelityError, match="no reference data"):
        load_refdata("fig1", tmp_path)
    (tmp_path / "fig1.json").write_text("{not json")
    with pytest.raises(FidelityError, match="corrupt"):
        load_refdata("fig1", tmp_path)
    (tmp_path / "fig2.json").write_text(json.dumps(
        {"artifact": "fig9", "title": "t", "source": "s", "claims": []}))
    with pytest.raises(FidelityError, match="declares artifact"):
        load_refdata("fig2", tmp_path)
    with pytest.raises(FidelityError, match="unknown artifacts"):
        load_all_refdata(["fig99"], tmp_path)


def test_experiments_md_carries_generated_summary():
    """EXPERIMENTS.md holds the generated conformance table (populated;
    ``pstl-fidelity report --write-experiments`` refreshes it)."""
    from repro.fidelity.report import MARKER_BEGIN, MARKER_END

    text = EXPERIMENTS.read_text(encoding="utf-8")
    assert MARKER_BEGIN in text and MARKER_END in text
    block = text.split(MARKER_BEGIN, 1)[1].split(MARKER_END, 1)[0]
    for ref in load_all_refdata():
        assert f"| {ref.artifact} |" in block
    assert "Totals:" in block and "unwaived deviations" in block


def test_refdata_matches_generator():
    """tools/gen_refdata.py and refdata/ must not drift apart.

    The generator is the authoring source; the JSON is what ships. This
    regenerates every artifact and compares (the stored goldens are read
    back from the checked-in files, so the comparison is exact).
    """
    import importlib.util

    tool = Path(__file__).resolve().parents[2] / "tools" / "gen_refdata.py"
    spec = importlib.util.spec_from_file_location("gen_refdata", tool)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    regenerated = mod.all_refs()
    assert [ref.artifact for ref in regenerated] == list(ARTIFACT_IDS)
    for ref in regenerated:
        assert load_refdata(ref.artifact) == ref, (
            f"refdata/{ref.artifact}.json is stale; re-run tools/gen_refdata.py"
        )
