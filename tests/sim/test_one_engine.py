"""One CPU engine in the product, and tracing changes nothing it computes.

``repro.sim.engine`` (``simulate_cpu`` over ``arrays_to_profile``) is
the scalar reference that the differential checks compare the wave
engine against. Here both names are replaced by spies that raise, and
every product path still runs: every registered scenario, traced and
untraced, with bit-identical outputs; ``pstl-bench`` single points in
model and run mode and on a GPU; ``execute_point``; and a campaign
that mixes fused points with per-point fallbacks. A source scan checks
that no product module imports the reference or builds its IR.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro.sim.engine as engine
from repro.campaign.executor import execute_point, run_campaign
from repro.campaign.spec import PointSpec
from repro.campaign.store import DONE
from repro.scenarios import run_scenario, scenario_names
from repro.suite.cli import main as bench_main
from repro.trace import Tracer, use_tracer

from tests.campaign.test_executor import tiny_spec

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: The reference engine, its IR and its bandwidth model, where the
#: names below may appear.
REFERENCE_MODULES = {"sim/engine.py", "sim/work.py", "sim/bandwidth.py"}

#: What only the reference modules and the checks may use.
REFERENCE_NAMES = {"simulate_cpu", "arrays_to_profile", "dram_memory_time",
                   "ChunkWork", "Phase", "WorkProfile"}


@pytest.fixture
def no_reference(monkeypatch):
    """Make any call into the reference engine fail the test."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a product path reached the reference engine")

    monkeypatch.setattr(engine, "simulate_cpu", forbidden)
    monkeypatch.setattr(engine, "arrays_to_profile", forbidden)


@pytest.mark.parametrize("name", scenario_names())
def test_scenarios_never_reach_the_reference_and_tracing_changes_nothing(
    name, no_reference
):
    untraced = run_scenario(name).output()
    with use_tracer(Tracer()):
        traced = run_scenario(name).output()
    assert traced == untraced


@pytest.mark.parametrize("argv", [
    ["--machine", "A", "--backend", "gcc-tbb", "--case", "reduce",
     "--threads", "8", "--size", "2^20", "--min-time", "0.001"],
    ["--machine", "A", "--backend", "gcc-tbb", "--case", "sort",
     "--threads", "4", "--size", "2^12", "--mode", "run",
     "--min-time", "0.001"],
    ["--machine", "D", "--backend", "nvc-cuda", "--case", "reduce",
     "--threads", "1", "--size", "2^20", "--min-time", "0.001"],
], ids=["model", "run", "gpu"])
def test_single_points_never_reach_the_reference(argv, no_reference, capsys):
    assert bench_main(argv) == 0
    assert "error" not in capsys.readouterr().err


def test_execute_point_never_reaches_the_reference(no_reference):
    for mode in ("model", "run"):
        point = PointSpec(machine="A", backend="GCC-TBB", case="reduce",
                          size_exp=12, threads=8, mode=mode)
        assert execute_point(point.to_dict())["status"] == DONE


def test_mixed_campaign_never_reaches_the_reference(no_reference):
    outcome = run_campaign(tiny_spec(modes=("model", "run")))
    assert outcome.stats.failed == 0
    assert {r.point.mode for r in outcome.results.values()} == {"model", "run"}


def _reference_uses(path: Path) -> set[str]:
    """Reference names a module imports, calls or reads."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.module == "repro.sim.engine":
                used.add("repro.sim.engine")
            used |= {alias.name for alias in node.names} & REFERENCE_NAMES
        elif isinstance(node, ast.Import):
            used |= {alias.name for alias in node.names
                     if alias.name == "repro.sim.engine"}
        elif isinstance(node, ast.Name) and node.id in REFERENCE_NAMES:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in REFERENCE_NAMES:
            used.add(node.attr)
    return used


def test_no_product_module_uses_the_reference():
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel in REFERENCE_MODULES:
            continue
        used = _reference_uses(path)
        if used:
            offenders[rel] = sorted(used)
    assert not offenders
