"""Scenario outputs vs their frozen goldens, bit for bit.

Every ``refdata/`` artifact stores an ``output`` golden: each cell and
curve point of its registered scenario as float hex, frozen when the
registry was proven bit-identical to the per-figure drivers it replaced.
The golden claim on it keeps that proof after the drivers are gone: any
drift in a spec or a kind runner is a deviation that names the cell.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.fidelity import DEVIATION, PASS, check_claim, load_refdata
from repro.fidelity.cli import main as fidelity_main
from repro.fidelity.refdata import ARTIFACT_IDS
from repro.scenarios import get_scenario, scenario_names


def _output_claim(ref):
    return next(c for c in ref.claims if c.kind == "golden" and c.cell == "output")


def test_every_claimed_scenario_is_comparable():
    claimed = {get_scenario(n).claims for n in scenario_names()}
    assert claimed == set(ARTIFACT_IDS)
    for artifact in ARTIFACT_IDS:
        ref = load_refdata(artifact)
        assert _output_claim(ref) is not None
        assert ref.goldens["output"], artifact


@pytest.mark.parametrize("name", ARTIFACT_IDS)
def test_scenario_is_bit_identical_to_its_legacy_driver(name, scenario_run):
    golden = load_refdata(name).goldens["output"]
    output = scenario_run(name).output()
    changed = sorted(k for k in set(golden) | set(output)
                     if golden.get(k) != output.get(k))
    assert not changed, f"{name}: {len(changed)} value(s) differ, e.g. {changed[:5]}"


def test_harness_list_mode(capsys):
    """``pstl-fidelity run --verbose`` lists the golden claim as passing."""
    assert fidelity_main(["run", "--artifact", "table7", "--verbose"]) == 0
    assert "t7-output" in capsys.readouterr().out


def test_harness_rejects_unknown_scenarios(capsys):
    with pytest.raises(SystemExit) as exc:
        fidelity_main(["run", "--artifact", "fig99"])
    assert exc.value.code == 2


def test_one_ulp_change_fails_the_golden_naming_the_cell(scenario_run):
    run = scenario_run("fig2")
    key = "B/k1/GCC-TBB/t@2^20"
    cells = dict(run.cells)
    cells[key] = math.nextafter(cells[key], math.inf)
    ref = load_refdata("fig2")
    claim = _output_claim(ref)

    assert check_claim(claim, run.artifact(), ref).status == PASS
    nudged = check_claim(
        claim, dataclasses.replace(run, cells=cells).artifact(), ref)
    assert nudged.status == DEVIATION
    assert nudged.detail.endswith(f"(fields: cells/{key})")
