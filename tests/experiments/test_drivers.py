"""Smoke + structure tests for every paper scenario at reduced sizes.

Each paper figure and table is one registered scenario
(``repro.scenarios``); these tests narrow its axes (smaller problem
sizes, fewer backends) and check the structure of what it measures.
"""

import dataclasses

import pytest

from repro.scenarios import get_scenario, run_scenario, scenario_names
from repro.scenarios.resolve import make_context
from repro.sim.gpu import GpuExecution


def narrowed(name, **fields):
    """A registered scenario with some fields replaced, keeping only the
    exclude pairs that still name a machine and backend on its axes."""
    spec = dataclasses.replace(get_scenario(name), **fields)
    exclude = tuple((m, b) for m, b in spec.exclude
                    if m in spec.machines and b in spec.backends)
    return dataclasses.replace(spec, exclude=exclude)


class TestCommon:
    def test_paper_size(self):
        # The evaluation's standard problem size (Section 4.2 / Table 5).
        for name in ("fig1", "fig3", "table3", "table5", "table6"):
            assert get_scenario(name).size_exps == (30,)

    def test_make_ctx_defaults_all_cores(self):
        ctx = make_context("A", "gcc-tbb")
        assert ctx.threads == 32

    def test_make_ctx_seq_forces_one_thread(self):
        ctx = make_context("A", "gcc-seq", threads=16)
        assert ctx.threads == 1

    def test_seq_baseline_positive(self):
        run = run_scenario(narrowed("table5", machines=("A",), backends=("GCC-TBB",),
                                    cases=("reduce",), size_exps=(20,)))
        assert run.cells["GCC-TBB/reduce/A"] > 0

    def test_registry_complete(self):
        paper = {f"fig{i}" for i in range(1, 10)} | {
            f"table{i}" for i in range(3, 8)
        }
        assert set(scenario_names()) == paper


class TestFig1:
    def test_full_grid_renders(self):
        run = run_scenario(narrowed("fig1", size_exps=(24,)))
        assert "GCC-TBB" in run.rendered()
        spec = get_scenario("fig1")
        assert len(run.cells) == len(spec.backends) * len(spec.cases)

    def test_gnu_scan_cell_is_na(self):
        run = run_scenario(narrowed("fig1", size_exps=(22,)))
        assert run.cells["GCC-GNU/inclusive_scan"] is None

    def test_memory_bound_cases_gain(self):
        run = run_scenario(narrowed("fig1", backends=("GCC-TBB",),
                                    cases=("for_each_k1", "reduce"),
                                    size_exps=(28,)))
        assert run.cells["GCC-TBB/for_each_k1"] > 1.3
        assert run.cells["GCC-TBB/reduce"] > 1.3

    def test_compute_bound_case_neutral(self):
        run = run_scenario(narrowed("fig1", backends=("GCC-TBB",),
                                    cases=("for_each_k1000",), size_exps=(26,)))
        assert run.cells["GCC-TBB/for_each_k1000"] == pytest.approx(1.0, abs=0.1)


class TestFig2Fig3:
    def test_fig2_series_structure(self):
        from repro.scenarios.analyses import RunOptions

        run = run_scenario(narrowed("fig2", machines=("A",),
                                    backends=("GCC-SEQ", "GCC-TBB"),
                                    k_values=(1,)), RunOptions(size_step=6))
        assert set(run.curves) == {"A/k1/GCC-SEQ", "A/k1/GCC-TBB"}
        assert len(run.curves["A/k1/GCC-TBB"]) == 5

    def test_fig3_curve(self):
        run = run_scenario(narrowed("fig3", machines=("A",),
                                    backends=("GCC-TBB",), k_values=(1000,),
                                    size_exps=(24,), exclude=()))
        curve = run.curves["GCC-TBB/k1000/A"]
        assert curve[0][0] == 1
        assert curve[-1][0] == 32
        assert run.cells["GCC-TBB/k1000/A/max_speedup"] > 10


class TestCounterTables:
    def test_table3_structure(self):
        run = run_scenario(narrowed("table3", size_exps=(24,)))
        assert "GCC-TBB/instructions" in run.rendered()
        assert "GCC-HPX/instructions" in run.cells

    def test_counters_scale_with_calls(self):
        def instructions(calls):
            spec = narrowed("table3", backends=("GCC-TBB",), size_exps=(20,),
                            options={"calls": calls})
            return run_scenario(spec).cells["GCC-TBB/instructions"]

        assert instructions(100) == pytest.approx(100 * instructions(1))


class TestTable5Table6:
    @staticmethod
    def cell(name, machine, backend, case, size_exp):
        spec = narrowed(name, machines=(machine,), backends=(backend,),
                        cases=(case,), size_exps=(size_exp,))
        return run_scenario(spec).cells[f"{backend}/{case}/{machine}"]

    def test_cell_speedup_small(self):
        v = self.cell("table5", "A", "GCC-TBB", "reduce", 24)
        assert v is not None and v > 1.0

    def test_icc_na_on_b(self):
        assert self.cell("table5", "B", "ICC-TBB", "reduce", 20) is None

    def test_gnu_scan_na(self):
        assert self.cell("table5", "A", "GCC-GNU", "inclusive_scan", 20) is None

    def test_table5_renders_na_cells(self):
        run = run_scenario(narrowed("table5", size_exps=(20,)))
        assert "N/A" in run.rendered()

    def test_cell_max_threads_bounds(self):
        # compute-bound: efficient at full width
        assert self.cell("table6", "A", "GCC-TBB", "for_each_k1000", 24) == 32

    def test_nvc_scan_max_threads_is_one(self):
        assert self.cell("table6", "A", "NVC-OMP", "inclusive_scan", 24) == 1


class TestTable7:
    def test_rendered(self):
        run = run_scenario("table7")
        assert "61." in run.rendered()  # HPX ~62 MiB
        assert len(run.cells) == 7


class TestGpuExperiments:
    def test_gpu_ctx_transfer_flag(self):
        for transfer_back in (True, False):
            ctx = make_context("D", "nvc-cuda", threads=1,
                               gpu_options=GpuExecution(transfer_back=transfer_back))
            assert ctx.gpu_options.transfer_back is transfer_back

    def test_fig8_panels(self):
        from repro.scenarios.analyses import RunOptions

        run = run_scenario(narrowed("fig8", k_values=(1,)), RunOptions(size_step=6))
        assert {key.split("/")[0] for key in run.curves} == {"k1"}
        assert "k1/t4" in run.curves

    def test_chained_cheaper_than_transfer(self):
        spec = get_scenario("fig9")
        spec = dataclasses.replace(spec, options={
            **spec.options, "max_exp": 26, "size_step": 23, "min_time": 1.0})
        run = run_scenario(spec)
        assert run.cells["chained/t4/t@2^26"] < run.cells["forced/t4/t@2^26"] / 5

    def test_results_have_ids(self):
        for name in ("fig1", "table7"):
            spec = narrowed(name, size_exps=(20,)) if name == "fig1" else name
            run = run_scenario(spec)
            assert run.spec.name == name
            assert run.artifact().artifact == name
            assert run.rendered().startswith(f"{name}:")
