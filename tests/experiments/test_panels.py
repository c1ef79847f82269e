"""Tests for the two-panel ``algo-panels`` kind behind Figures 4-7."""

import dataclasses

import pytest

from repro.scenarios import ScenarioRun, get_scenario, run_scenario
from repro.scenarios.analyses import RunOptions


def run_panels(machine, case, size_exp, size_step):
    """fig6's panel pair re-aimed at ``machine``/``case`` (reduced sizes)."""
    spec = dataclasses.replace(
        get_scenario("fig6"), machines=(machine,), cases=(case,),
        size_exps=(size_exp,),
        exclude=(("B", "ICC-TBB"),) if machine == "B" else (),
    )
    return run_scenario(spec, RunOptions(size_step=size_step))


def problem(run):
    return {k.split("/")[1] for k in run.curves if k.startswith("problem/")}


def scaling(run):
    return {k.split("/")[1] for k in run.curves if k.startswith("scaling/")}


@pytest.fixture(scope="module")
def panels():
    return run_panels("A", "reduce", size_exp=22, size_step=6)


class TestRunPanels:
    def test_problem_panel_includes_sequential(self, panels):
        assert "GCC-SEQ" in problem(panels)

    def test_scaling_panel_excludes_sequential(self, panels):
        assert "GCC-SEQ" not in scaling(panels)

    def test_all_parallel_backends_present(self, panels):
        for backend in ("GCC-TBB", "GCC-GNU", "GCC-HPX", "ICC-TBB", "NVC-OMP"):
            assert backend in scaling(panels)

    def test_icc_dropped_on_mach_b(self):
        panels_b = run_panels("B", "reduce", size_exp=20, size_step=8)
        assert "ICC-TBB" not in scaling(panels_b)
        assert "ICC-TBB" not in problem(panels_b)

    def test_unsupported_algorithm_dropped(self):
        panels_scan = run_panels("A", "inclusive_scan", size_exp=20, size_step=8)
        assert "GCC-GNU" not in scaling(panels_scan)
        assert panels_scan.curves["problem/GCC-GNU"] == ()
        assert panels_scan.cells["scaling/GCC-GNU/max_speedup"] is None

    def test_scaling_curves_start_at_one_thread(self, panels):
        for key, curve in panels.curves.items():
            if key.startswith("scaling/"):
                assert curve[0][0] == 1

    def test_rendered_has_both_charts(self, panels):
        out = panels.rendered()
        assert "problem/GCC-SEQ" in out
        assert "scaling/GCC-TBB" in out

    def test_is_dataclass_with_fields(self, panels):
        assert isinstance(panels, ScenarioRun)
        assert panels.spec.machines == ("A",)
        assert panels.spec.cases == ("reduce",)
