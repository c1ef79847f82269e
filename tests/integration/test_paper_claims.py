"""Integration tests: the paper's headline qualitative claims, full scale.

Each test cites the paper section whose claim it checks and reads the
cells and curves of the registered scenarios (``repro.scenarios``) at
n = 2^30 in model mode (fast: the simulator is analytic). Single-cell
bounds and orderings live as refdata claims (``pstl-fidelity``); these
tests hold the statements that compare cells with each other or with a
machine model's constants.
"""

import pytest

from repro.machines import get_machine
from repro.scenarios.resolve import make_context

N30 = 1 << 30
PARALLEL = ("GCC-TBB", "GCC-GNU", "GCC-HPX", "ICC-TBB", "NVC-OMP")
CORES = {"A": 32, "B": 64, "C": 128}


@pytest.fixture(scope="module")
def cells(scenario_run):
    """``cells(name)``: the flat cell map of one registered scenario."""
    return lambda name: scenario_run(name).cells


class TestSection51Allocator:
    """Fig. 1: the custom allocator's wins and non-effects."""

    def test_for_each_k1_large_gain(self, cells):
        # Paper: up to +63 %.
        assert 1.4 < cells("fig1")["GCC-TBB/for_each_k1"] < 1.9

    def test_reduce_large_gain(self, cells):
        # Paper: up to +50 %.
        assert 1.3 < cells("fig1")["GCC-TBB/reduce"] < 1.9

    def test_k1000_no_effect(self, cells):
        assert cells("fig1")["GCC-TBB/for_each_k1000"] == pytest.approx(
            1.0, abs=0.05
        )

    def test_sort_small_effect(self, cells):
        assert cells("fig1")["GCC-TBB/sort"] < 1.3

    def test_find_and_scan_benefit_least(self, cells):
        """Paper reports outright losses for find/scan; our model keeps
        them as the clearly smallest beneficiaries (see EXPERIMENTS.md)."""
        ratios = {
            case: cells("fig1")[f"GCC-TBB/{case}"]
            for case in ("find", "for_each_k1", "inclusive_scan", "reduce", "sort")
        }
        assert ratios["find"] < ratios["sort"] < ratios["for_each_k1"]
        assert ratios["inclusive_scan"] < ratios["sort"]

    def test_find_and_scan_trail_the_memory_bound_gains(self, cells):
        for backend in ("GCC-TBB", "ICC-TBB"):
            fig1 = cells("fig1")
            gains = min(fig1[f"{backend}/{c}"] for c in ("for_each_k1", "reduce"))
            assert fig1[f"{backend}/find"] < gains - 0.3
            assert fig1[f"{backend}/inclusive_scan"] < gains - 0.3


class TestSection52ForEach:
    """Figs. 2-3 and Table 3."""

    def test_nvc_fastest_parallel_k1(self, cells):
        times = {b: cells("fig2")[f"A/k1/{b}/t@2^30"] for b in PARALLEL}
        assert times["NVC-OMP"] == min(times.values())

    def test_hpx_slowest_parallel_k1(self, cells):
        times = {b: cells("fig2")[f"A/k1/{b}/t@2^30"] for b in PARALLEL}
        assert times["GCC-HPX"] == max(times.values())

    def test_nvc_fastest_and_hpx_slowest_k1_every_machine(self, cells):
        for machine in CORES:
            times = {b: cells("fig2")[f"{machine}/k1/{b}/t@2^30"]
                     for b in PARALLEL}
            assert min(times, key=times.get) == "NVC-OMP", machine
            assert max(times, key=times.get) == "GCC-HPX", machine

    @pytest.mark.parametrize("machine", sorted(CORES))
    def test_sequential_wins_small_sizes(self, cells, machine):
        fig2 = cells("fig2")
        for exp in (8, 10):
            seq = fig2[f"{machine}/k1/GCC-SEQ/t@2^{exp}"]
            assert seq < fig2[f"{machine}/k1/GCC-TBB/t@2^{exp}"]

    @pytest.mark.parametrize("machine", sorted(CORES))
    def test_parallel_wins_large_sizes(self, cells, machine):
        fig2 = cells("fig2")
        seq = fig2[f"{machine}/k1/GCC-SEQ/t@2^30"]
        for backend in ("GCC-TBB", "GCC-GNU", "NVC-OMP"):
            assert fig2[f"{machine}/k1/{backend}/t@2^30"] < seq / 3

    def test_k1000_backends_converge(self, cells):
        """Paper: at high intensity all compilers/backends are much closer."""
        for machine in CORES:
            at_max = [cells("fig2")[f"{machine}/k1000/{b}/t@2^30"]
                      for b in PARALLEL]
            assert max(at_max) / min(at_max) < 1.5

    def test_gnu_sequential_below_2_10(self, cells):
        """Paper: GNU uses sequential execution below 2^10 elements."""
        fig2 = cells("fig2")
        assert fig2["A/k1/GCC-GNU/t@2^9"] < 2 * fig2["A/k1/GCC-SEQ/t@2^9"]

    def test_k1000_near_ideal_on_c(self, cells):
        """Section 5.2: 102-106.7 speedup for non-HPX; HPX ~84.8 (66 % eff)."""
        table5 = cells("table5")
        for backend in ("GCC-TBB", "GCC-GNU", "NVC-OMP"):
            assert 90 < table5[f"{backend}/for_each_k1000/C"] < 120
        hpx = table5["GCC-HPX/for_each_k1000/C"]
        assert 70 < hpx < 95
        assert hpx < table5["GCC-TBB/for_each_k1000/C"]

    def test_speedup_monotone_for_k1000(self, scenario_run):
        for machine in CORES:
            s = [y for _, y in scenario_run("fig3").curves[f"GCC-TBB/k1000/{machine}"]]
            assert all(b >= a * 0.98 for a, b in zip(s, s[1:])), machine

    def test_hpx_flat_scaling_beyond_16_threads(self, cells):
        """Fig. 3: HPX speedup nearly constant past 16 threads (k_it=1)."""
        fig3 = cells("fig3")
        assert fig3["GCC-HPX/k1/B/speedup@64"] < fig3["GCC-HPX/k1/B/speedup@16"] * 2.0

    def test_hpx_flat_past_16_threads_on_both_zen_machines(self, cells):
        fig3 = cells("fig3")
        for machine in ("B", "C"):
            top = fig3[f"GCC-HPX/k1/{machine}/speedup@{CORES[machine]}"]
            assert top < fig3[f"GCC-HPX/k1/{machine}/speedup@16"] * 2.0

    def test_table3_instruction_ordering(self, cells):
        instr = {b: cells("table3")[f"{b}/instructions"] for b in PARALLEL}
        assert instr["ICC-TBB"] < instr["GCC-TBB"] < instr["NVC-OMP"]
        assert instr["NVC-OMP"] < instr["GCC-GNU"] < instr["GCC-HPX"]
        # Paper: HPX up to 147 % more instructions than ICC-TBB.
        assert 2.0 < instr["GCC-HPX"] / instr["ICC-TBB"] < 3.0

    def test_table3_fp_scalar_identical_everywhere(self, cells):
        # Table 3: 107G scalar FP for every backend (1 op/elem x 100 calls).
        for b in ("GCC-TBB", "GCC-GNU", "ICC-TBB", "NVC-OMP"):
            assert cells("table3")[f"{b}/fp_scalar"] == pytest.approx(100 * N30)

    def test_table3_hpx_bandwidth_far_below_nvc(self, cells):
        table3 = cells("table3")
        assert table3["GCC-HPX/bandwidth_gib"] < 0.75 * table3["NVC-OMP/bandwidth_gib"]


class TestSection53Find:
    def test_max_speedup_about_six_on_b(self, cells):
        assert 4.0 < cells("table5")["GCC-TBB/find/B"] < 8.0

    def test_speedup_below_stream_ratio(self, cells, mach_b):
        assert cells("table5")["GCC-TBB/find/B"] < mach_b.ideal_bandwidth_speedup()

    def test_every_backend_below_stream_ratio(self, cells, mach_b):
        fig4 = cells("fig4")
        for backend in ("GCC-TBB", "GCC-GNU", "GCC-HPX", "NVC-OMP"):
            top = fig4[f"scaling/{backend}/max_speedup"]
            assert top < mach_b.ideal_bandwidth_speedup(), backend

    def test_sequential_wins_by_orders_of_magnitude_small(self, cells):
        fig4 = cells("fig4")
        assert fig4["problem/GCC-TBB/t@2^6"] > 20 * fig4["problem/GCC-SEQ/t@2^6"]

    def test_parallel_wins_past_2_18(self, cells):
        """Paper: beyond 2^18 the parallel implementations clearly win."""
        fig4 = cells("fig4")
        for backend in ("GCC-TBB", "GCC-GNU"):
            assert fig4[f"problem/{backend}/t@2^24"] < fig4["problem/GCC-SEQ/t@2^24"]
            assert fig4[f"problem/{backend}/t@2^30"] < fig4["problem/GCC-SEQ/t@2^30"] / 2


class TestSection54Scan:
    def test_tbb_scan_speedup_about_five_on_c(self, cells):
        assert 2.0 < cells("table5")["GCC-TBB/inclusive_scan/C"] < 7.0

    def test_nvc_scan_no_speedup(self, cells):
        for machine in ("A", "B", "C"):
            assert 0.6 < cells("table5")[f"NVC-OMP/inclusive_scan/{machine}"] < 1.2

    def test_gnu_has_no_scan_curve(self, scenario_run):
        assert scenario_run("fig5").curves["problem/GCC-GNU"] == ()
        assert "scaling/GCC-GNU" not in scenario_run("fig5").curves

    def test_nvc_scan_flat_across_threads(self, scenario_run):
        speedups = [y for _, y in scenario_run("fig5").curves["scaling/NVC-OMP"]]
        assert max(speedups) - min(speedups) < 0.05

    def test_tbb_family_scales_monotonically(self, scenario_run):
        """Monotone from 2 threads on: 1 thread runs the single-pass
        sequential scan, >= 2 threads the three-phase parallel scan with
        its extra read pass."""
        for backend in ("GCC-TBB", "ICC-TBB"):
            curve = scenario_run("fig5").curves[f"scaling/{backend}"]
            speedups = [y for _, y in curve][1:]
            assert all(b >= a / 1.02 for a, b in zip(speedups, speedups[1:])), backend

    def test_sequential_wins_cache_resident_sizes(self, cells):
        """Paper: seq wins up to ~L2 capacity and loses beyond the LLC."""
        fig5 = cells("fig5")
        assert fig5["problem/GCC-SEQ/t@2^14"] < fig5["problem/GCC-TBB/t@2^14"]
        assert fig5["problem/GCC-TBB/t@2^30"] < fig5["problem/GCC-SEQ/t@2^30"]


class TestSection55Reduce:
    def test_group_one_near_ten_on_a(self, cells):
        for backend in ("GCC-TBB", "GCC-GNU", "NVC-OMP"):
            assert 8 < cells("table5")[f"{backend}/reduce/A"] < 13

    def test_hpx_worst_on_a(self, cells):
        speedups = {b: cells("table5")[f"{b}/reduce/A"] for b in PARALLEL}
        assert speedups["GCC-HPX"] == min(speedups.values())

    def test_hpx_worst_scaling_curve(self, cells):
        tops = {b: cells("fig6")[f"scaling/{b}/max_speedup"] for b in PARALLEL}
        assert min(tops, key=tops.get) == "GCC-HPX"
        assert tops["GCC-HPX"] < 0.75 * tops["GCC-TBB"]

    def test_icc_scales_well_to_16_threads(self, cells):
        fig6 = cells("fig6")
        assert fig6["scaling/ICC-TBB/speedup@16"] > fig6["scaling/ICC-TBB/speedup@2"] * 2

    def test_memory_bound_ceiling(self, cells):
        """No backend beats the STREAM bandwidth ratio (~11.5 on Mach A)."""
        cap = get_machine("A").ideal_bandwidth_speedup()
        for backend in PARALLEL:
            assert cells("fig6")[f"scaling/{backend}/max_speedup"] <= cap * 1.1, backend

    def test_table4_vectorization_split(self, cells):
        table4 = cells("table4")
        assert table4["ICC-TBB/fp_packed_256"] > 0
        assert table4["ICC-TBB/fp_scalar"] < 1e9
        assert table4["GCC-HPX/fp_packed_256"] > 0
        assert table4["GCC-TBB/fp_packed_256"] == 0
        assert table4["GCC-TBB/fp_scalar"] == pytest.approx(100 * N30)

    def test_table4_hpx_most_instructions(self, cells):
        instr = {b: cells("table4")[f"{b}/instructions"] for b in PARALLEL}
        assert instr["GCC-HPX"] > 3 * max(
            v for b, v in instr.items() if b != "GCC-HPX"
        )
        assert instr["ICC-TBB"] == min(instr.values())

    @pytest.mark.parametrize("backend,paper", [
        ("GCC-GNU", 227e9), ("GCC-TBB", 188e9), ("ICC-TBB", 107e9),
        ("NVC-OMP", 295e9),
    ])
    def test_table4_scalar_backend_instructions(self, cells, backend, paper):
        assert cells("table4")[f"{backend}/instructions"] == pytest.approx(paper, rel=0.1)

    def test_table4_packed_ops_match_paper(self, cells):
        # Paper: 26G 256-bit packed for ICC and HPX.
        for backend in ("ICC-TBB", "GCC-HPX"):
            assert cells("table4")[f"{backend}/fp_packed_256"] == pytest.approx(
                26.8e9, rel=0.02)


class TestSection56Sort:
    def test_gnu_dominates_at_high_threads(self, cells):
        for machine in ("A", "B", "C"):
            speedups = {
                b: cells("table5")[f"{b}/sort/{machine}"]
                for b in ("GCC-TBB", "GCC-GNU", "GCC-HPX", "NVC-OMP")
            }
            assert speedups["GCC-GNU"] == max(speedups.values())
            assert speedups["GCC-GNU"] > 2 * speedups["GCC-TBB"]

    def test_nvc_weakest_scaling(self, cells):
        table5 = cells("table5")
        assert table5["NVC-OMP/sort/C"] < table5["GCC-TBB/sort/C"]

    def test_quicksort_family_capped_near_ten(self, cells):
        for machine in ("A", "B", "C"):
            assert 6 < cells("table5")[f"GCC-TBB/sort/{machine}"] < 14

    def test_gnu_far_ahead_on_c(self, cells):
        fig7 = cells("fig7")
        assert fig7["scaling/GCC-GNU/max_speedup"] > 2.5 * fig7["scaling/GCC-TBB/max_speedup"]

    def test_nvc_weakest_at_full_width(self, cells):
        fig7 = cells("fig7")
        assert fig7["scaling/NVC-OMP/speedup@128"] < fig7["scaling/GCC-TBB/speedup@128"]

    def test_nvc_competitive_at_low_threads(self, cells):
        """Paper: NVC-OMP fastest for a small number of threads."""
        fig7 = cells("fig7")
        assert fig7["scaling/NVC-OMP/speedup@2"] > 0.6 * fig7["scaling/GCC-TBB/speedup@2"]

    def test_sequential_fallbacks(self):
        """TBB sorts sequentially below 2^10, HPX on one thread to 2^15."""
        tbb = make_context("C", "GCC-TBB")
        assert not tbb.runs_parallel("sort", 1 << 9)
        assert tbb.runs_parallel("sort", 1 << 10)
        hpx = make_context("C", "GCC-HPX")
        assert not hpx.runs_parallel("sort", 1 << 15)
        assert hpx.runs_parallel("sort", 1 << 16)

    def test_parallel_sort_beats_sequential_at_scale(self, cells):
        fig7 = cells("fig7")
        for backend in ("GCC-TBB", "GCC-GNU", "NVC-OMP"):
            assert fig7[f"problem/{backend}/t@2^30"] < fig7["problem/GCC-SEQ/t@2^30"] / 4


class TestSection57Efficiency:
    def test_backends_rarely_efficient_past_16_threads(self, cells):
        """Table 6: memory-bound algorithms stop being efficient around
        the per-NUMA-node core count."""
        inefficient = 0
        total = 0
        for case in ("find", "for_each_k1", "inclusive_scan", "reduce"):
            for backend in ("GCC-TBB", "GCC-GNU", "GCC-HPX", "NVC-OMP"):
                v = cells("table6")[f"{backend}/{case}/C"]
                if v is None:
                    continue
                total += 1
                if v <= 16:
                    inefficient += 1
        assert inefficient / total > 0.7

    def test_compute_bound_case_scales_fully(self, cells):
        for machine, cores in CORES.items():
            assert cells("table6")[f"GCC-TBB/for_each_k1000/{machine}"] == cores

    def test_memory_bound_rarely_past_16_anywhere(self, cells):
        values = [
            cells("table6")[f"{b}/{c}/{m}"]
            for m in CORES
            for b in ("GCC-TBB", "GCC-GNU", "GCC-HPX", "NVC-OMP")
            for c in ("find", "inclusive_scan", "reduce", "sort")
        ]
        measured = [v for v in values if v is not None]
        assert sum(v > 16 for v in measured) / len(measured) < 0.35

    def test_values_are_measured_thread_counts(self, cells):
        for key, v in cells("table6").items():
            assert v is None or v in {1, 2, 4, 8, 16, 32, 64, 128}, key

    def test_hpx_never_efficient_at_full_width(self, cells):
        for machine, cores in CORES.items():
            for case in ("find", "reduce", "sort", "inclusive_scan"):
                v = cells("table6")[f"GCC-HPX/{case}/{machine}"]
                assert v is None or v < cores

    def test_table5_bulk_within_2x_of_paper(self, cells):
        """>= 85 % of the comparable Table 5 cells within [0.5x, 2x]."""
        from repro.fidelity.refdata import load_refdata

        ratios = [
            cells("table5")[c.cell] / c.paper
            for c in load_refdata("table5").claims
            if c.kind == "ratio"
        ]
        assert sum(0.5 <= r <= 2.0 for r in ratios) / len(ratios) >= 0.85

    def test_k1000_exceeds_half_core_count(self, cells):
        for machine, cores in CORES.items():
            for backend in ("GCC-TBB", "GCC-GNU", "NVC-OMP"):
                assert cells("table5")[f"{backend}/for_each_k1000/{machine}"] > cores / 2

    def test_gnu_binary_doubles_sequential(self, cells):
        table7 = cells("table7")
        assert 1.8 < table7["GCC-GNU/mib"] / table7["GCC-SEQ/mib"] < 2.4


class TestSection58Gpu:
    """Figs. 8-9: GPU offload."""

    def test_ratio_grows_with_intensity(self, cells):
        fig8 = cells("fig8")
        ratios = [fig8[f"k{k}/t4/ratio@2^29"] for k in (1, 1000, 10000)]
        assert ratios[0] < ratios[1] < ratios[2]

    def test_launch_cost_dominates_tiny_sizes(self, cells):
        """Paper: 'input size is critical ... launching a kernel is costly'."""
        fig8 = cells("fig8")
        assert fig8["k1/t4/t@2^3"] > 100 * fig8["k1/seq-host/t@2^3"]

    def test_low_intensity_small_sizes_gpu_loses_even_to_sequential(self):
        from repro.sim.gpu import GpuExecution
        from repro.suite.cases import _case_for_each
        from repro.suite.wrappers import measure_case
        from repro.types import FLOAT32

        n = 1 << 12  # launch + page-fault latency dwarf 16 KiB of work
        case = _case_for_each(1)
        gpu = make_context("D", "nvc-cuda", threads=1,
                           gpu_options=GpuExecution(transfer_back=True))
        t_seq = measure_case(case, make_context("gpu-host", "gcc-seq"), n, FLOAT32)
        assert measure_case(case, gpu, n, FLOAT32) > t_seq

    def test_chained_gpu_beats_the_host(self, cells):
        fig9 = cells("fig9")
        chained = fig9["chained/t4/t@2^29"]
        assert chained < fig9["forced/omp-host/t@2^29"] / 2
        assert chained < fig9["forced/seq-host/t@2^29"] / 10

    def test_t4_faster_than_a2_when_resident(self, cells):
        # T4 has the higher device bandwidth (264 vs 172 GB/s).
        fig9 = cells("fig9")
        assert fig9["chained/t4/t@2^29"] < fig9["chained/a2/t@2^29"]
